import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fracbb import kernels, spectral
from fracbb.cli import main
from fracbb.clifford import MAX_GENERATORS
from fracbb.fileio import load_coefficients, save_coefficients, save_grid_csv
from fracbb.spectral import GridField, SpectralField, inverse_transform


def run_cli(args):
    return main([str(a) for a in args])


def test_apply_op_fraclap_example(tmp_path):
    src = tmp_path / "one_mode.json"
    out = tmp_path / "out.json"
    save_coefficients(SpectralField(1, 4, {(3,): 1.0}), src)
    assert run_cli(["apply-op", "--op", "fraclap", "--s", 0.25, "--in", src, "--out", out]) == 0
    result = load_coefficients(out)
    assert abs(result.get(3).p0() - math.sqrt(3.0)) < 1e-12


def test_decompose_example(tmp_path):
    src = tmp_path / "e1.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    prefix = tmp_path / "dec"
    assert run_cli(["decompose", "--dim", 1, "--in", src, "--out-prefix", prefix]) == 0
    part0 = load_coefficients(f"{prefix}_part0.json")
    part1 = load_coefficients(f"{prefix}_part1.json")
    assert abs(part0.get(1).p0() - 0.5) < 1e-12
    assert abs(part1.get(1).p0() - 0.5j) < 1e-12
    report = json.loads(open(f"{prefix}_report.json").read())
    assert report["schema_version"] == 1
    assert abs(report["bound_ratio"] - 1 / math.sqrt(2)) < 1e-12


def test_decompose_dim_mismatch_exit_code(tmp_path):
    src = tmp_path / "e1.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    assert run_cli(["decompose", "--dim", 2, "--in", src, "--out-prefix", tmp_path / "x"]) == 2


def test_verify_bb_deterministic_bytes(tmp_path):
    args = [
        "verify-bb", "--dim", 1, "--band", 8, "--samples", 3, "--seed", 7,
        "--tol", 1e-6,
    ]
    out1 = (tmp_path / "r1.json", tmp_path / "r1.csv")
    out2 = (tmp_path / "r2.json", tmp_path / "r2.csv")
    for json_path, csv_path in (out1, out2):
        code = run_cli(args + ["--out-json", json_path, "--out-csv", csv_path])
        assert code == 0
    assert out1[0].read_bytes() == out2[0].read_bytes()
    assert out1[1].read_bytes() == out2[1].read_bytes()
    lines = out1[1].read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("# config=")
    assert lines[2] == "id,lhs,rhs,ratio,gap_0,gap_1"


def test_transform_round_trip_via_files(tmp_path):
    field = SpectralField(1, 3, {(1,): 1.0, (-2,): 0.5j})
    grid_path = tmp_path / "grid.csv"
    coeff_path = tmp_path / "coeffs.json"
    save_grid_csv(inverse_transform(field, 12), grid_path)
    assert run_cli([
        "transform", "--direction", "forward", "--in", grid_path,
        "--out", coeff_path, "--dim", 1, "--band", 3,
    ]) == 0
    back = load_coefficients(coeff_path)
    assert (back.get(1) - field.get(1)).norm() < 1e-12
    assert (back.get(-2) - field.get(-2)).norm() < 1e-12
    grid2_path = tmp_path / "grid2.csv"
    assert run_cli([
        "transform", "--direction", "inverse", "--in", coeff_path,
        "--out", grid2_path, "--points", 12,
    ]) == 0
    assert grid2_path.exists()


def test_norm_command(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    assert run_cli(["norm", "--in", src, "--kind", "sobolev", "--s", -0.5, "--homogeneous"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0)
    assert payload["schema_version"] == 1


def test_mixed_norm_command(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    assert run_cli(["mixed-norm", "--in", src, "--homogeneous", "--tol", 1e-7]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["gap"] <= 1e-7
    # A single mode is Sobolev-only; the closed-form certificate settles it.
    assert payload["iterations"] == 0
    # With a positive exponent the integrable part is active, so it iterates.
    ones = tmp_path / "ones.json"
    save_coefficients(
        SpectralField(1, 8, {(n,): 1.0 for n in range(-8, 9) if n}, zero_mean=True), ones
    )
    assert run_cli([
        "mixed-norm", "--in", ones, "--homogeneous", "--s", 0.5, "--tol", 1e-7,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] <= 1e-7
    assert payload["iterations"] >= 1


def test_mixed_norm_reports_the_solver_path(tmp_path, capsys):
    src = tmp_path / "ones.json"
    save_coefficients(
        SpectralField(1, 8, {(n,): 1.0 for n in range(-8, 9) if n}, zero_mean=True), src
    )
    paths = {}
    for s in (-0.5, 0.5):
        assert run_cli(["mixed-norm", "--in", src, "--homogeneous", "--s", s]) == 0
        payload = json.loads(capsys.readouterr().out)
        paths[s] = (payload["path"], payload["iterations"] > 0)
    assert paths == {-0.5: ("closed-form", False), 0.5: ("interior-point", True)}


def test_mixed_norm_split_dump(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 3, {(1,): 1.0, (2,): 1j}, zero_mean=True), src)
    prefix = tmp_path / "split"
    assert run_cli([
        "mixed-norm", "--in", src, "--homogeneous", "--dump-split", prefix,
    ]) == 0
    capsys.readouterr()
    h = load_coefficients(f"{prefix}_h.json")
    g_hat = load_coefficients(f"{prefix}_g_coeffs.json")
    for m in [(1,), (2,)]:
        total = g_hat.get(m) + h.get(m)
        expected = 1.0 if m == (1,) else 1j
        assert abs(total.p0() - expected) < 1e-8


def test_bilinear_a_command(capsys):
    assert run_cli(["bilinear-a", "--a", 1.0, "--b", 0.5, "--truncations", "10,100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["limit"] == pytest.approx(math.pi - 0.5)
    assert len(payload["partial_sums"]) == 2
    assert payload["sup_partial"] <= math.pi + 0.6


def test_bilinear_a_sequence_mode(tmp_path, capsys):
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0, (-1,): 1.0}), f1)
    save_coefficients(SpectralField(1, 2, {(1,): 1.0, (-1,): 1.0}), f2)
    assert run_cli(["bilinear-a", "--in1", f1, "--in2", f2, "--truncations", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"]["re"] == pytest.approx(0.0)
    assert payload["value"]["im"] == pytest.approx(0.0)


def test_kernel_command(tmp_path):
    out = tmp_path / "k.json"
    report = tmp_path / "scan.csv"
    assert run_cli([
        "kernel", "--dim", 2, "--band", 4, "--axis", 1,
        "--scan-bands", "4,8", "--out", out, "--report", report,
    ]) == 0
    k = load_coefficients(out)
    assert abs(k.get((1, 0)).p0() - 1.0) < 1e-12
    lines = report.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("# config=")
    assert lines[2] == "band,sup,ratio"
    assert len(lines) == 5


def test_verify_bergman_command(tmp_path):
    out = tmp_path / "bergman.csv"
    out_json = tmp_path / "bergman.json"
    assert run_cli([
        "verify-bergman", "--corpus-size", 2, "--decay", 1.0, "--order", 8,
        "--radii", "0.9,0.99", "--tol", 1e-6, "--seed", 1,
        "--out", out, "--out-json", out_json,
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "series_id,r,bergman,l1,hminushalf,mixed,ratio"
    assert len(lines) == 3 + 2 * 2
    payload = json.loads(out_json.read_text())
    assert payload["aggregates"]["max_ratio"] == pytest.approx(math.sqrt(math.pi), rel=1e-3)


def test_exit_codes(tmp_path, capsys):
    # input error: missing file
    assert run_cli(["norm", "--in", tmp_path / "missing.json", "--kind", "l1"]) == 2
    # input error: nonzero mean for invD
    src = tmp_path / "mean.json"
    save_coefficients(SpectralField(1, 2, {(0,): 1.0}), src)
    assert run_cli(["apply-op", "--op", "invD", "--in", src, "--out", tmp_path / "o.json"]) == 2
    # non-convergence exit code 3: an over-tight tolerance with a tiny cap.
    # --s 1 makes the integrable part active; at the default exponent the
    # field certifies in closed form, without iterating.
    hard = tmp_path / "hard.json"
    rng = np.random.default_rng(0)
    save_coefficients(
        SpectralField(1, 8, {(n,): complex(rng.normal(), rng.normal()) for n in range(-8, 9) if n}),
        hard,
    )
    capsys.readouterr()
    code = run_cli([
        "mixed-norm", "--in", hard, "--homogeneous", "--s", 1, "--tol", 1e-15,
        "--max-iterations", 10,
    ])
    assert code == 3
    # The error report keeps the partial split's value and certificate.
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "non-convergence"
    assert error["iterations"] == 10
    assert math.isfinite(error["value"]) and error["value"] > 0
    assert error["gap"] > 1e-15


def test_non_convergence_report_of_an_overflowed_split_is_valid_json(tmp_path, capsys):
    src = tmp_path / "huge.json"
    save_coefficients(SpectralField(1, 4, {(1,): 1e300, (-2,): 1e300}, zero_mean=True), src)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = run_cli(["mixed-norm", "--in", src, "--homogeneous", "--s", 1,
                        "--max-iterations", 50])
    assert code == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "non-convergence" and "value" not in error


@pytest.mark.parametrize("args", [
    ["mixed-norm", "--points", 0],
    ["mixed-norm", "--points", -3],
    ["norm", "--kind", "l1", "--points", 0],
    ["norm", "--kind", "l2", "--points", -1],
    ["transform", "--direction", "inverse", "--points", 0],
])
def test_grid_sizes_below_one_are_rejected(tmp_path, args):
    # Only an absent --points means the default grid; 0 used to mean it too.
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 4, {(1,): 1.0, (-2,): 0.5}, zero_mean=True), src)
    out = ["--out", tmp_path / "out.csv"] if args[0] == "transform" else []
    assert run_cli(args + ["--in", src] + out) == 2


def test_pipeline_forward_apply_norm(tmp_path, capsys):
    # grid CSV -> coefficients -> fractional Laplacian -> Sobolev norm
    x = np.arange(16) * 2 * np.pi / 16
    grid = GridField.from_scalar(np.exp(1j * x) + 0.5 * np.exp(-2j * x))
    grid_path = tmp_path / "g.csv"
    save_grid_csv(grid, grid_path)
    coeff_path = tmp_path / "c.json"
    assert run_cli([
        "transform", "--direction", "forward", "--in", grid_path,
        "--out", coeff_path, "--dim", 1, "--band", 4,
    ]) == 0
    scaled_path = tmp_path / "s.json"
    assert run_cli([
        "apply-op", "--op", "fraclap", "--s", 0.5, "--in", coeff_path,
        "--out", scaled_path,
    ]) == 0
    assert run_cli(["norm", "--in", scaled_path, "--kind", "sobolev", "--s", -0.5, "--homogeneous"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # (-Lap)^{1/2} then H^{-1/2}: each mode contributes |n|^{1/2} |a_n|
    expected = math.sqrt((1.0**0.5 * 1.0) ** 2 + (2.0**0.5 * 0.5) ** 2)
    assert payload["value"] == pytest.approx(expected, abs=1e-10)


def test_apply_op_stdout_default(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}), src)
    assert run_cli(["apply-op", "--op", "riesz", "--in", src]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"][0]["im"] == pytest.approx(1.0)


def test_empty_field_round_trip(tmp_path):
    src = tmp_path / "empty.json"
    save_coefficients(SpectralField(2, 3, {}), src)
    back = load_coefficients(src)
    assert back.dim == 2 and back.band == 3 and not back.coeffs


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fracbb.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for command in ["transform", "apply-op", "kernel", "norm", "mixed-norm",
                    "verify-bb", "verify-bergman", "bilinear-a", "decompose"]:
        assert command in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["verify-bb", "--band", 4, "--samples", 1, "--tol", -1],
        ["verify-bb", "--band", 4, "--samples", 1, "--decay", "nan"],
        ["verify-bb", "--dim", 1, "--band", 8, "--samples", 2, "--decay", -200],
        ["verify-bb", "--dim", 1, "--band", 8, "--samples", 2, "--decay", -400],
    ],
)
def test_verify_bb_rejects_bad_settings(args, capsys):
    assert run_cli(args) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "input"


def test_mixed_norm_rejects_bad_tolerance(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    # A negative tolerance can never be met; it must fail before any iteration.
    assert run_cli(["mixed-norm", "--in", src, "--homogeneous", "--tol", -1]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "input" and "tolerance" in report["message"]


def test_mixed_norm_rejects_iteration_cap_below_one(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0}, zero_mean=True), src)
    assert run_cli(["mixed-norm", "--in", src, "--homogeneous", "--max-iterations", 0]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "input" and "iteration cap" in report["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["verify-bergman", "--corpus-size", 1, "--order", 4, "--decay", "nan"],
        ["verify-bergman", "--corpus-size", 1, "--order", 4, "--decay", "inf"],
        ["bilinear-a", "--a", "nan", "--b", 0.5],
        ["bilinear-a", "--a", 0.5, "--b=-inf"],
        ["bilinear-a", "--a", 1e308, "--b=-1e308"],  # finite angles, a - b overflows
    ],
)
def test_non_finite_settings_exit_with_input_error(args, tmp_path, capsys):
    if args[0] == "verify-bergman":
        args = args + ["--out", tmp_path / "bergman.csv"]
    assert run_cli(args) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"
    assert not (tmp_path / "bergman.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify-bergman", "--corpus-size", 0],
        ["verify-bergman", "--corpus-size", 1, "--radii", ""],
        ["verify-bergman", "--corpus-size", 1, "--order", -1],
        ["verify-bergman", "--corpus-size", 1, "--order", 24, "--decay", -300],
        ["verify-bergman", "--corpus-size", 1, "--order", 24, "--decay", -150],
    ],
)
def test_verify_bergman_rejects_bad_settings(args, tmp_path, capsys):
    # Settings that cannot give a finite report fail before any solve or write.
    assert run_cli(args + ["--out", tmp_path / "bergman.csv"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"
    assert not (tmp_path / "bergman.csv").exists()


BAD_INPUT_FILES = [
    ("nan.json", '{"dim": 1, "band": 2, "entries": [{"m": [1], "alpha": [], "re": NaN, "im": 0}]}',
     ["norm", "--kind", "l2"]),
    ("inf.json", '{"dim": 1, "band": 2, "entries": [{"m": [1], "alpha": [], "re": 1, "im": Infinity}]}',
     ["apply-op", "--op", "riesz"]),
    ("dim0.csv", "re_1,im_1\n1.0,0.0\n1.0,0.0\n",
     ["transform", "--direction", "forward", "--dim", 0, "--band", 1]),
    ("header_only.csv", "re_1,im_1\n",
     ["transform", "--direction", "forward", "--dim", 1, "--band", 1]),
    ("repeated_blade.csv", "re_1,im_1,re_1,im_1\n" + "1,0,2,0\n" * 3,
     ["transform", "--direction", "forward", "--dim", 1, "--band", 1]),
    ("fractional_m.json",
     '{"dim": 1, "band": 2, "entries": [{"m": [1.5], "alpha": [], "re": 1, "im": 0}]}',
     ["norm", "--kind", "sobolev", "--s", 0.5, "--homogeneous"]),
]


@pytest.mark.parametrize("name, text, args", BAD_INPUT_FILES, ids=[c[0] for c in BAD_INPUT_FILES])
def test_bad_input_files_exit_with_input_error(name, text, args, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    out = ["--out", tmp_path / "out.json"] if args[0] == "transform" else []
    assert run_cli(args + ["--in", path] + out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


@pytest.mark.parametrize("mean", [1e200, 1e-170])
def test_inverting_D_rejects_a_huge_or_tiny_mean(mean, tmp_path, capsys):
    # A square of 1e200 overflows and one of 1e-170 underflows; neither may
    # decide whether the mean is zero.
    src = tmp_path / "mean.json"
    save_coefficients(SpectralField(1, 2, {(0,): mean, (1,): 1.0}), src)
    assert run_cli(["apply-op", "--op", "invD", "--in", src, "--out", tmp_path / "o.json"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--out-prefix", "parts"],
        ["norm", "--kind", "sobolev", "--s", -0.5, "--homogeneous"],
        ["mixed-norm", "--homogeneous"],
        ["apply-op", "--op", "invD", "--out", "o.json"],
    ],
    ids=["decompose", "sobolev-norm", "mixed-norm", "invert-D"],
)
def test_a_tiny_mean_is_a_mean_for_every_zero_mean_command(args, tmp_path, monkeypatch, capsys):
    # 1e-170 squares to 0.0, so only the entry itself can tell that the
    # mean is not zero; every command that needs a zero mean must see it.
    src = tmp_path / "mean.json"
    save_coefficients(SpectralField(1, 2, {(0,): 1e-170, (1,): 1.0}), src)
    monkeypatch.chdir(tmp_path)
    assert run_cli(args[:1] + ["--in", src] + args[1:]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mean.json"]


@pytest.mark.parametrize("truncations", ["", "0,5"], ids=["empty", "below-one"])
def test_bilinear_a_sequence_mode_rejects_bad_truncations(truncations, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    save_coefficients(SpectralField(1, 2, {(1,): 1.0, (-1,): 1.0}), pair)
    args = ["bilinear-a", "--in1", pair, "--in2", pair, "--truncations", truncations]
    assert run_cli(args) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


@pytest.mark.parametrize(
    "args",
    [
        ["kernel", "--dim", 9, "--band", 4, "--out", "k.json"],
        ["kernel", "--dim", 9, "--band", 1, "--report", "scan.csv", "--scan-bands", "1,2"],
        ["verify-bb", "--dim", 9, "--samples", 1],
        ["verify-bb", "--dim", 9, "--band", 1, "--samples", 1],
    ],
)
def test_dimensions_above_the_generator_count_exit_before_any_band_cube(
    args, tmp_path, monkeypatch, capsys
):
    # A band cube of 9**9 modes exhausts memory, so the guard fails the test
    # if one of dimension 9 is ever started.
    real_band_indices = spectral.band_indices

    def guarded(dim, band):
        assert dim <= MAX_GENERATORS, f"a band cube of dimension {dim} was built"
        return real_band_indices(dim, band)

    monkeypatch.setattr(spectral, "band_indices", guarded)
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 2
    assert "dimension" in json.loads(capsys.readouterr().err)["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "--kind", "sobolev", "--s", "nan"],
        ["norm", "--kind", "sobolev", "--s", "inf", "--homogeneous"],
        ["norm", "--kind", "sobolev", "--s", 1e6],
        ["norm", "--kind", "sobolev", "--s", 1e6, "--homogeneous"],
        ["apply-op", "--op", "fraclap", "--s", "nan"],
        ["apply-op", "--op", "fraclap", "--s", "inf"],
        ["apply-op", "--op", "fraclap", "--s", 1e6],
    ],
)
def test_non_finite_or_overflowing_exponents_exit_with_input_error(args, tmp_path, capsys):
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 4, {(1,): 1.0, (-2,): 0.5}, zero_mean=True), src)
    assert run_cli(args + ["--in", src, "--out", tmp_path / "out.json"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"
    assert not (tmp_path / "out.json").exists()


def test_fractional_laplacian_result_that_overflows_exits_with_input_error(tmp_path, capsys):
    # The symbol 4**200 is finite; its product with the coefficient is not.
    src = tmp_path / "f.json"
    save_coefficients(SpectralField(1, 4, {(4,): 1e200}, zero_mean=True), src)
    args = ["apply-op", "--op", "fraclap", "--s", 100, "--in", src, "--out", tmp_path / "o.json"]
    assert run_cli(args) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_verify_bergman_certifies_huge_series_in_closed_form(tmp_path):
    # Boundary values near 1e16: the closed-form gap is a few units in the
    # last place of the value, far above tol but only roundoff.
    out = tmp_path / "bergman.csv"
    args = ["verify-bergman", "--corpus-size", 1, "--order", 24, "--decay", -12, "--out", out]
    assert run_cli(args) == 0
    rows = out.read_text().splitlines()[3:]
    assert len(rows) == 4
    assert all(float(row.split(",")[-1]) == pytest.approx(math.sqrt(math.pi)) for row in rows)


def test_oversized_kernel_bands_exit_before_any_kernel_is_built(tmp_path, monkeypatch, capsys):
    # With the cap lowered to 2**12 cells, 2-D band 16 (64**2 cells) is the
    # largest band allowed; the scan fails on band 32 before band 4 is built.
    def unexpected(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(kernels, "MAX_GRID_CELLS", 2**12)
    monkeypatch.setattr(kernels.KernelSpec, "build", unexpected)
    monkeypatch.setattr(kernels, "inverse_transform", unexpected)
    monkeypatch.chdir(tmp_path)
    kernels.KernelSpec(dim=2, band=16)
    for args in (["--band", 4, "--scan-bands", "4,8,16,32,64", "--report", "scan.csv"],
                 ["--band", 17, "--out", "k.json"]):
        assert run_cli(["kernel", "--dim", 2, *args]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "input" and "more than 4096" in error["message"]
    assert not list(tmp_path.iterdir())
