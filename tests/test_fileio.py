import json
import math
import tracemalloc

import numpy as np
import pytest

from fracbb.clifford import CliffordElement
from fracbb.errors import InputError, InvariantViolation
from fracbb.fileio import (
    dumps_json,
    field_from_jsonable,
    field_to_jsonable,
    format_float,
    load_coefficients,
    load_grid_csv,
    save_coefficients,
    save_grid_csv,
    write_json,
)
from fracbb.spectral import GridField, SpectralField, inverse_transform


def test_format_float_round_trips():
    values = [math.pi, 1e-17, -2.5, 0.1 + 0.2, 1.0, 12345678901234567.0]
    for v in values:
        assert float(format_float(v)) == v


def test_coefficient_round_trip(tmp_path):
    element = CliffordElement(2, {0: 1.5 - 2j, 0b11: 0.25j})
    field = SpectralField(2, 3, {(1, -2): element, (0, 0): 3.0})
    path = tmp_path / "field.json"
    save_coefficients(field, path)
    back = load_coefficients(path)
    assert back.dim == field.dim and back.band == field.band
    for m in [(1, -2), (0, 0)]:
        assert (back.coeffs[m] - field.coeffs[m]).norm() == 0.0


def test_coefficient_schema_shape(tmp_path):
    field = SpectralField(1, 2, {(1,): 1.0 + 2.0j})
    data = field_to_jsonable(field)
    assert set(data) == {"dim", "band", "entries"}
    entry = data["entries"][0]
    assert set(entry) == {"m", "alpha", "re", "im"}
    assert entry["m"] == [1] and entry["alpha"] == []
    path = tmp_path / "x.json"
    save_coefficients(field, path)
    parsed = json.loads(path.read_text())
    assert parsed["entries"][0]["re"] == 1.0


def test_clifford_alpha_round_trip():
    element = CliffordElement(3, {0b101: 2.0})  # e1 e3
    field = SpectralField(3, 1, {(1, 0, 0): element})
    data = field_to_jsonable(field)
    assert data["entries"][0]["alpha"] == [1, 3]
    back = field_from_jsonable(data)
    assert back.coeffs[(1, 0, 0)].component((1, 3)) == 2.0


def test_grid_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    field = SpectralField(
        2,
        2,
        {
            (1, 0): CliffordElement(2, {0: 1.0, 1: 2j}),
            (0, 1): CliffordElement(2, {2: rng.normal()}),
        },
    )
    grid = inverse_transform(field, 9)
    path = tmp_path / "grid.csv"
    save_grid_csv(grid, path)
    back = load_grid_csv(path, 2)
    assert back.points_per_axis == 9
    for mask, plane in grid.comps.items():
        assert np.array_equal(back.comps[mask], plane)
    header = path.read_text().splitlines()[0]
    assert header.startswith("re_")


def test_grid_csv_scalar_header(tmp_path):
    grid = GridField.from_scalar(np.ones((4,), dtype=complex))
    path = tmp_path / "g.csv"
    save_grid_csv(grid, path)
    assert path.read_text().splitlines()[0] == "re_1,im_1"


def test_malformed_inputs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_coefficients(path)
    path2 = tmp_path / "bad2.json"
    path2.write_text('{"dim": 1}')
    with pytest.raises(InputError):
        load_coefficients(path2)
    path3 = tmp_path / "bad.csv"
    path3.write_text("re_1,im_1\n1.0\n")
    with pytest.raises(InputError):
        load_grid_csv(path3, 1)


# (file name, contents, grid dimension; None for a coefficient file)
BAD_INPUT_FILES = [
    ("nan.json", '{"dim": 1, "band": 2, "entries": [{"m": [1], "alpha": [], "re": NaN, "im": 0}]}', None),
    ("inf.json", '{"dim": 1, "band": 2, "entries": [{"m": [1], "alpha": [], "re": 0, "im": -Infinity}]}', None),
    ("dim0.csv", "re_1,im_1\n1.0,0.0\n1.0,0.0\n", 0),
    ("dim-1.csv", "re_1,im_1\n1.0,0.0\n1.0,0.0\n", -1),
    ("dim9.csv", "re_1,im_1\n" + "1.0,0.0\n" * 2**9, 9),
    ("header_only.csv", "re_1,im_1\n", 1),
    ("non_numeric.csv", "re_1,im_1\n1.0,0.0\nabc,0.0\n", 1),
    ("ragged.csv", "re_1,im_1\n1.0,0.0\n1.0,0.0,2.0\n", 1),
    ("non_finite.csv", "re_1,im_1\n1.0,0.0\ninf,0.0\n", 1),
]


@pytest.mark.parametrize("name, text, dim", BAD_INPUT_FILES, ids=[c[0] for c in BAD_INPUT_FILES])
def test_bad_input_files_are_rejected_at_load(tmp_path, name, text, dim):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InputError):
        if dim is None:
            load_coefficients(path)
        else:
            load_grid_csv(path, dim)


def test_non_cubic_grid_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["re_1,im_1"] + ["1.0,0.0"] * 5
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InputError):
        load_grid_csv(path, 2)


def test_dumps_json_is_deterministic():
    payload = {"b": 1.5, "a": [1, 2, 3], "flag": True, "nested": {"x": None}}
    assert dumps_json(payload) == dumps_json(payload)
    assert '"b": 1.5' in dumps_json(payload)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan")])
def test_dumps_json_rejects_non_finite_floats(bad, tmp_path):
    with pytest.raises(InvariantViolation):
        dumps_json({"ok": 1.0, "values": [0.5, bad]})
    path = tmp_path / "report.json"
    with pytest.raises(InvariantViolation):
        write_json(path, {"x": bad})
    assert not path.exists()


def test_coefficient_indices_must_be_integral():
    def entry(m, alpha):
        return {"dim": 2, "band": 2, "entries": [{"m": m, "alpha": alpha, "re": 1.0, "im": 0.0}]}

    field = field_from_jsonable(entry([1.0, -2.0], [2.0]))
    assert field.masks == (2,) and field.coeffs[(1, -2)].component([2]) == 1.0
    for m, alpha in (([1.5, 0], []), ([0.9, 0], []), ([1, 0], [1.5]), ([math.inf, 0], []),
                     ([True, 0], []), (["1", 0], []), ("10", []), ([1, 0], [True]),
                     ([1, 0], ["2"])):
        with pytest.raises(InputError, match="malformed coefficient entry"):
            field_from_jsonable(entry(m, alpha))
    # JSON booleans and strings are not integers in the shape either.
    for shape in ({"dim": True, "band": 2}, {"dim": 2, "band": "2"}, {"dim": "2", "band": 2}):
        with pytest.raises(InputError, match="malformed coefficient data"):
            field_from_jsonable({**shape, "entries": []})


def test_a_one_entry_file_of_a_large_cube_is_read_and_written_in_proportion_to_its_array(
    tmp_path,
):
    # A 3-D band-60 cube has 121**3 = 1,771,561 modes: the coefficient array
    # is 27 MiB, and a Python tuple per mode would take hundreds of MiB.
    rows = np.zeros((1, 121**3), dtype=complex)
    rows[0, np.ravel_multi_index((61, 0, 67), (121,) * 3)] = 2.0 - 1j  # mode (1, -60, 7)
    field = SpectralField.from_blade_vectors(3, 60, (0,), rows)
    del rows
    array_bytes = field.data.nbytes
    path = tmp_path / "one.json"

    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, write_peak = peak(lambda: save_coefficients(field, path))
    back, read_peak = peak(lambda: load_coefficients(path))
    assert json.loads(path.read_text())["entries"] == [
        {"m": [1, -60, 7], "alpha": [], "re": 2.0, "im": -1.0}]
    assert back.masks == field.masks and np.array_equal(back.data, field.data)
    assert write_peak <= 3 * array_bytes and read_peak <= 1.5 * array_bytes
