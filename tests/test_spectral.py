import math

import numpy as np
import pytest

from fracbb.clifford import CliffordElement, _blade_tables
from fracbb.errors import AliasingError, InputError
from fracbb.kernels import KernelSpec
from fracbb import spectral
from fracbb.spectral import (
    MAX_GRID_CELLS,
    GridField,
    SpectralField,
    _check_shape,
    _coupling,
    _field_product,
    _grid_shape,
    _mode_product,
    _synthesis,
    _wrapped_index_arrays,
    band_indices,
    convolve,
    forward_transform,
    grid_coordinates,
    inverse_transform,
    mode_matrix,
    project_zero_mean,
)
from fracbb.norms import l2_norm, sum_space_norm

from oracles import brute_convolution, quadrature_coefficient, scatter_combine

TWO_PI = 2.0 * math.pi


def random_scalar_field(rng, dim, band, zero_mean=False):
    coeffs = {}
    for m in band_indices(dim, band):
        if zero_mean and not any(m):
            continue
        coeffs[m] = complex(rng.normal(), rng.normal())
    return SpectralField(dim, band, coeffs, zero_mean=zero_mean)


def scalar_plane(grid):
    assert grid.masks == (0,)
    return grid.data[0]


def max_coeff_error(a, b):
    return max((v.norm() for v in (a - b).coeffs.values()), default=0.0)


def test_forward_single_mode():
    grid = GridField.from_scalar(np.exp(1j * grid_coordinates(1, 8)[0]))
    hat = forward_transform(grid, 3)
    assert max_coeff_error(hat, SpectralField(1, 3, {(1,): 1.0})) < 1e-12


def test_forward_constant():
    grid = GridField.from_scalar(np.ones(8))
    hat = forward_transform(grid, 2)
    assert max_coeff_error(hat, SpectralField(1, 2, {(0,): 1.0})) < 1e-14


def test_forward_cosine_torus_vs_quadrature_oracle():
    x, _ = grid_coordinates(2, 16)
    grid = GridField.from_scalar(np.cos(2 * x))
    hat = forward_transform(grid, 4)
    assert abs(hat.coeffs[(2, 0)].p0() - 0.5) < 1e-12
    assert abs(hat.coeffs[(-2, 0)].p0() - 0.5) < 1e-12
    values = scalar_plane(grid)
    for m in [(2, 0), (-2, 0), (1, 1), (0, 0)]:
        oracle = quadrature_coefficient(values, m)
        assert abs((hat.coeffs[m].p0() if m in hat.coeffs else 0j) - oracle) < 1e-12


def test_inverse_single_mode_and_empty():
    field = SpectralField(1, 3, {(1,): 1.0})
    grid = inverse_transform(field, 8)
    x = grid_coordinates(1, 8)[0]
    assert np.allclose(scalar_plane(grid), np.exp(1j * x), atol=1e-12)
    empty = SpectralField(1, 3, {})
    assert not np.any(scalar_plane(inverse_transform(empty, 8)))


@pytest.mark.parametrize("dim,band,points", [(1, 3, 7), (1, 5, 20), (2, 3, 8)])
def test_round_trip_identity(dim, band, points):
    rng = np.random.default_rng(42 + dim)
    field = random_scalar_field(rng, dim, band)
    back = forward_transform(inverse_transform(field, points), band)
    assert max_coeff_error(field, back) < 1e-12


def test_round_trip_clifford_valued():
    rng = np.random.default_rng(3)
    coeffs = {}
    for m in band_indices(2, 2):
        coeffs[m] = CliffordElement(
            2, {0: complex(rng.normal()), 1: complex(rng.normal()), 3: complex(rng.normal())}
        )
    field = SpectralField(2, 2, coeffs)
    back = forward_transform(inverse_transform(field, 8), 2)
    assert max_coeff_error(field, back) < 1e-12


def test_transform_linearity():
    rng = np.random.default_rng(7)
    f = random_scalar_field(rng, 1, 4)
    g = random_scalar_field(rng, 1, 4)
    lam = 2.0 - 1.5j
    lhs = scalar_plane(inverse_transform(f.scale(lam) + g, 16))
    rhs = lam * scalar_plane(inverse_transform(f, 16)) + scalar_plane(inverse_transform(g, 16))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_convolve_single_modes():
    f = SpectralField(1, 2, {(1,): 1.0})
    out = convolve(f, f)
    assert abs(out.coeffs[(1,)].p0() - TWO_PI) < 1e-12
    zero = convolve(f, SpectralField(1, 2, {}))
    assert not zero.coeffs
    f2 = SpectralField(2, 2, {(1, 0): 1.0})
    out2 = convolve(f2, f2)
    assert abs(out2.coeffs[(1, 0)].p0() - TWO_PI**2) < 1e-10


def test_convolve_matches_grid_quadrature_oracle():
    rng = np.random.default_rng(12)
    f = random_scalar_field(rng, 1, 3)
    g = random_scalar_field(rng, 1, 3)
    pointwise = brute_convolution(
        scalar_plane(inverse_transform(f, 24)), scalar_plane(inverse_transform(g, 24))
    )
    oracle = forward_transform(GridField.from_scalar(pointwise), 3)
    result = convolve(f, g)
    assert max_coeff_error(result, oracle) < 1e-10


def test_convolve_dimension_mismatch():
    f = SpectralField(1, 2, {(1,): 1.0})
    g = SpectralField(2, 2, {(1, 0): 1.0})
    with pytest.raises(InputError):
        convolve(f, g)


def test_convolve_order_matters_for_clifford_values():
    e1 = CliffordElement(2, {0b01: 1.0})
    e2 = CliffordElement(2, {0b10: 1.0})
    f = SpectralField(2, 1, {(1, 0): e1})
    g = SpectralField(2, 1, {(1, 0): e2})
    fg = convolve(f, g).coeffs[(1, 0)]
    gf = convolve(g, f).coeffs[(1, 0)]
    assert (fg + gf).is_zero(1e-12)
    assert not (fg - gf).is_zero(1e-12)


def test_project_zero_mean():
    f = SpectralField(1, 2, {(0,): 5.0, (1,): 2.0})
    out = project_zero_mean(f)
    assert out.zero_mean
    assert (0,) not in out.coeffs
    assert abs(out.coeffs[(1,)].p0() - 2.0) < 1e-15
    zero = project_zero_mean(SpectralField(1, 2, {}))
    assert not zero.coeffs


def test_projected_field_has_zero_grid_mean():
    rng = np.random.default_rng(5)
    f = random_scalar_field(rng, 2, 3)
    projected = project_zero_mean(f)
    values = scalar_plane(inverse_transform(projected, 12))
    assert abs(values.mean()) < 1e-12


def test_parseval_discrete():
    rng = np.random.default_rng(8)
    for dim in (1, 2):
        f = random_scalar_field(rng, dim, 3)
        grid = inverse_transform(f, 16 if dim == 1 else 8)
        quad = l2_norm(grid) ** 2 / TWO_PI**dim
        assert abs(quad - f.l2_coefficient_norm() ** 2) < 1e-10 * max(1, quad)


def test_aliasing_error():
    field = SpectralField(1, 4, {(1,): 1.0})
    with pytest.raises(AliasingError):
        inverse_transform(field, 8)  # needs 9 points
    grid = GridField.from_scalar(np.exp(1j * grid_coordinates(1, 8)[0]))
    with pytest.raises(AliasingError):
        forward_transform(grid, 4)


def test_band_validation():
    with pytest.raises(InputError):
        SpectralField(1, 2, {(3,): 1.0})
    with pytest.raises(InputError):
        SpectralField(0, 2, {})
    with pytest.raises(InputError):
        SpectralField(1, 2, {(0,): 1.0}, zero_mean=True)


def test_coefficient_wrapping_of_plain_scalars():
    f = SpectralField(2, 1, {(1, 0): 2.5})
    value = f.coeffs[(1, 0)]
    assert value.p0() == 2.5
    assert f.is_scalar()


def test_zero_mean_flag_survives_addition():
    # A sum has a zero mean exactly when its data does, however its terms
    # were built.
    a = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    b = SpectralField(1, 2, {(-1,): 2.0, (2,): 1j}, zero_mean=True)
    mean = SpectralField(1, 2, {(0,): 1.0})
    assert (a + b).zero_mean
    assert (a - b).zero_mean
    assert not (a + mean).zero_mean
    assert (a + mean - mean).zero_mean
    assert (a - SpectralField(1, 2, {(1,): 1.0})).zero_mean


def test_dict_keys_of_other_types_build_the_normalized_field():
    values = {(-2,): 1.0, (0,): 2j, (1,): -3.0}
    plain = SpectralField(1, 2, values).data
    for keys in (
        [(np.int64(-2),), (np.int64(0),), (np.int64(1),)],
        [-2, 0, 1],
        [np.int64(-2), np.int64(0), np.int64(1)],
        [(-2.0,), (0.0,), (1.0,)],
        [(-2.5,), (0.5,), (1.5,)],  # normalized by int(), toward zero
    ):
        field = SpectralField(1, 2, dict(zip(keys, values.values())))
        assert np.array_equal(field.data, plain)
    entries = {(1, -1): 1.0, (0, 2): CliffordElement(2, {3: 1j})}
    plain = SpectralField(2, 2, entries)
    for keys in (
        [(np.int64(1), np.int64(-1)), (np.int64(0), np.int64(2))],
        [(1.0, -1.0), (0.9, 2.2)],
    ):
        field = SpectralField(2, 2, dict(zip(keys, entries.values())))
        assert field.masks == plain.masks and np.array_equal(field.data, plain.data)


@pytest.mark.parametrize(
    "dim, key, message",
    [
        (1, (1, 2), "frequency index (1, 2) has wrong dimension (expected 1)"),
        (2, (1,), "frequency index (1,) has wrong dimension (expected 2)"),
        (2, 1, "frequency index (1,) has wrong dimension (expected 2)"),
        (1, (3,), "frequency (3,) outside band 2"),
        (1, -3, "frequency (-3,) outside band 2"),
        (2, (np.int64(0), np.int64(-3)), "frequency (0, -3) outside band 2"),
        (2, (2.0, 3.5), "frequency (2, 3) outside band 2"),
        (1, 1.5, "frequency index 1.5 is not an integer tuple"),
        (1, (1j,), "frequency index (1j,) is not an integer tuple"),
    ],
)
def test_dict_key_errors_name_the_normalized_key(dim, key, message):
    with pytest.raises(InputError) as info:
        SpectralField(dim, 2, {key: 1.0})
    assert str(info.value) == message


def test_dict_value_of_another_algebra_names_the_normalized_key():
    for key in ((1, 1), (np.int64(1), 1.0), (1.5, 1)):
        with pytest.raises(InputError) as info:
            SpectralField(2, 2, {key: CliffordElement(1, {0: 1.0})})
        assert str(info.value) == "coefficient at (1, 1) lives in C_1, field needs C_2"


def test_dict_keys_of_one_mode_keep_the_last_nonzero_value():
    def value_at_one(coeffs):
        return SpectralField(1, 2, coeffs).coeffs[(1,)].p0()

    assert value_at_one({(1,): 2.0, (1.5,): 3.0}) == 3.0
    assert value_at_one({(1.5,): 3.0, (1,): 2.0}) == 2.0
    assert value_at_one({1: 3.0, (np.int64(1),): 2.0}) == 2.0
    assert value_at_one({(1,): 2.0, (1.5,): 0.0}) == 2.0  # a zero does not overwrite
    assert value_at_one({(1.5,): 0.0, (1,): 2.0}) == 2.0
    element = CliffordElement(1, {1: 4.0})
    assert SpectralField(1, 2, {(1,): element, 1: 5.0}).coeffs[(1,)] == CliffordElement(1, {0: 5.0})
    assert SpectralField(1, 2, {1: 5.0, (1,): element}).coeffs[(1,)] == element


# -- mode tables and synthesis ---------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_mode_matrix_is_the_mode_list_as_int64_rows(dim):
    for band in range(1, 7):
        modes = mode_matrix(dim, band)
        assert modes.dtype == np.int64 and modes.flags.c_contiguous
        np.testing.assert_array_equal(modes, np.array(list(band_indices(dim, band)), np.int64))


def test_shared_tables_are_read_only():
    # Cached tables are handed to every caller: a write into one would corrupt
    # every later operator in the process.
    sign, target = _blade_tables(3)
    for table in (mode_matrix(1, 8), *_wrapped_index_arrays(2, 4, 16), sign, target):
        with pytest.raises(ValueError, match="read-only"):
            table[:] = 0


# Dense matmul sizes and, at 256 * 129 and 160 * 81 DFT entries, FFT sizes.
@pytest.mark.parametrize(
    "dim, band, points, lead",
    [(1, 8, 32, (2,)), (1, 64, 256, (3, 1)), (2, 8, 32, (2,)), (2, 40, 160, (1, 2)),
     (3, 4, 16, (1,))],
)
def test_synthesis_scales_the_adjoint_in_place_with_its_bits(dim, band, points, lead):
    rng = np.random.default_rng([dim, band])
    shape = lead + ((2 * band + 1) ** dim,)
    rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _, adjoint = _coupling(dim, band, points, *lead)
    expected = adjoint(rows) * points**dim
    assert _synthesis(rows, dim, band, points).tobytes() == expected.tobytes()


@pytest.mark.parametrize("masks", [(0,), (0, 3), (0, 1, 3), (0, 1, 2, 3)])
def test_magnitude_keeps_the_bits_of_the_summed_squares_root(masks):
    # The blade-by-blade chain against the expression it replaced, on a 2-D
    # grid with signed zeros, subnormal squares and squares that overflow.
    rng = np.random.default_rng(29)
    shape = (len(masks), 24, 24)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    data[:, 0, :5] = [0.0, -0.0, -0.0j, 1e-160, 1e200]
    field = GridField(2, 24, {mask: plane for mask, plane in zip(masks, data)})
    with np.errstate(over="ignore", under="ignore"):
        want = np.sqrt((np.abs(field.data) ** 2).sum(axis=0))
        got = field.magnitude()
    assert got.shape == (24, 24) and got.tobytes() == want.tobytes()


def test_magnitude_holds_two_planes_of_a_three_blade_grid():
    # The squares accumulate in the first blade's plane, so the peak is two
    # real planes (the sum and one square), where squaring every blade in
    # place before the sum held four.
    import tracemalloc

    rng = np.random.default_rng(3)
    data = rng.normal(size=(3, 64, 64)) + 1j * rng.normal(size=(3, 64, 64))
    field = GridField(2, 64, dict(zip((0, 1, 2), data)))
    plane = 64 * 64 * 8

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def squared_then_summed():
        power = np.abs(field.data)
        power **= 2
        return np.sqrt(power.sum(axis=0))

    summed = peak(squared_then_summed)
    ours = peak(field.magnitude)
    assert summed >= 4 * plane and ours < 2.5 * plane


def _rows_with_edge_entries(rng, count, dim, band, zero_mean):
    """Nonzero coefficient rows with -0.0, subnormal and 1e300 entries (zero means if asked)."""
    shape = (count, (2 * band + 1) ** dim)
    rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rows[:, 1:6] = [complex(-0.0, -0.0), -0.0, 5e-324, complex(1e-310, -5e-324), 1e300]
    if zero_mean:
        rows[:, shape[1] // 2] = 0
    return rows


@pytest.mark.parametrize(
    "dim, band, count",
    [(dim, band, count) for dim, band in ((1, 5), (2, 3), (3, 2)) for count in range(1, 5)
     if count <= 2**dim],
)
@pytest.mark.parametrize("zero_mean", [False, True])
def test_sums_and_differences_drop_zero_rows_as_the_scatter_formula(dim, band, count, zero_mean):
    # A new field finds its zero rows in one pass; the scatter formula, which
    # drops them row by row, is the reference in masks, data bytes and flag,
    # -0.0 + -0.0, a - a, a + (-a), cancelling rows and other blades included.
    rng = np.random.default_rng([dim, count, zero_mean])
    masks = tuple(sorted(rng.choice(2**dim, size=count, replace=False).tolist()))
    a_rows = _rows_with_edge_entries(rng, count, dim, band, zero_mean)
    b_rows = _rows_with_edge_entries(rng, count, dim, band, zero_mean)
    b_rows[0] = -a_rows[0]  # the first row of a + b cancels
    a = SpectralField.from_blade_vectors(dim, band, masks, a_rows, zero_mean=zero_mean)
    b = SpectralField.from_blade_vectors(dim, band, masks, b_rows, zero_mean=zero_mean)
    other = SpectralField.from_blade_vectors(
        dim, band, ((masks[-1] + 1) % 2**dim,), b_rows[-1:], zero_mean=zero_mean)
    negated = a.scale(-1.0)
    for x, y in ((a, b), (b, a), (a, a), (a, negated), (a, other), (other, a)):
        for got, subtract in ((x + y, False), (x - y, True)):
            want_masks, want_data, want_zero_mean = scatter_combine(x, y, subtract)
            assert got.masks == want_masks and got.zero_mean == want_zero_mean
            assert got.data.tobytes() == want_data.tobytes()
            assert not got.data.flags.writeable
    assert (a - a).masks == (a + negated).masks == (0,)
    assert not (a - a).data.any()


# Dense matmul grids and, past 128 * 65 DFT entries, FFT grids.
@pytest.mark.parametrize(
    "dim, band, points, masks",
    [(1, 8, 32, (0,)), (1, 40, 256, (0, 1)), (2, 6, 24, (0, 3)), (2, 20, 256, (1, 2, 3)),
     (3, 3, 12, (0, 5, 6))],
)
def test_forward_transform_is_the_checked_constructor_bit_for_bit(dim, band, points, masks):
    rng = np.random.default_rng([dim, band, points])
    shape = (len(masks),) + (points,) * dim
    planes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    planes[0].flat[:3] = [complex(-0.0, -0.0), 5e-324, 1e300]
    if len(masks) > 1:
        planes[-1] = 0  # a zero plane gives a zero row, which the field drops
    grid = GridField(dim, points, dict(zip(masks, planes)))
    forward, _ = _coupling(dim, band, points, len(masks))
    want = SpectralField.from_blade_vectors(dim, band, grid.masks, forward(grid.data))
    got = forward_transform(grid, band)
    assert got.masks == want.masks == (masks[:-1] or masks)
    assert got.zero_mean is want.zero_mean is False
    assert got.data.tobytes() == want.data.tobytes()
    assert not got.data.flags.writeable and got.data.flags.c_contiguous


@pytest.mark.parametrize("mask", [2, -1])
def test_grid_planes_of_masks_outside_the_algebra_are_input_errors(mask):
    with pytest.raises(InputError, match="out of range"):
        GridField(1, 8, {0: np.ones(8), mask: np.ones(8)})


@pytest.mark.parametrize("dim, band", [(1, 64), (2, 12), (3, 4)])
def test_a_scalar_symbol_times_a_stack_is_the_plain_array_product(dim, band):
    # The blade-row product of a scalar symbol and a stack of scalar rows is
    # the numpy expression symbol * rows + 0, bit for bit: -0.0 parts become
    # 0.0 and nothing else moves.
    from fracbb.operators import _symbol_table

    rng = np.random.default_rng([dim, band, 3])
    stack = _rows_with_edge_entries(rng, 3, dim, band, False)[:, None]
    stack.imag[..., ::2] = -0.0
    for op, param in (("fraclap", 0.25 * dim), ("riesz", (1, False)), ("riesz", (dim, True))):
        symbol = _symbol_table(dim, band, op, param)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 * |m|**(n/2)
            masks, rows = _mode_product(symbol.masks, symbol.data, (0,), stack)
            want = symbol.data[0] * stack + 0
        assert masks == (0,) and rows.shape == stack.shape
        assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, band", [(1, 6), (2, 3), (3, 2)])
def test_convolve_is_the_scaled_mode_product_bit_for_bit(dim, band):
    rng = np.random.default_rng([dim, band, 7])
    masks = (0, 1) if dim == 1 else (0, 1, 2**dim - 1)
    f = SpectralField.from_blade_vectors(
        dim, band, masks, _rows_with_edge_entries(rng, len(masks), dim, band, False))
    g = SpectralField.from_blade_vectors(
        dim, band, masks[:2], _rows_with_edge_entries(rng, 2, dim, band, True))
    zero = SpectralField(dim, band, {})
    for x, y in ((f, g), (g, f), (f, zero)):
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 * 1e300
            got = convolve(x, y)
            want = _field_product(x, y).scale(TWO_PI**dim)
        assert got.masks == want.masks and got.zero_mean is want.zero_mean
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("dim, band", [(1, 4), (2, 2), (3, 1)])
def test_single_mode_reads_are_the_bulk_elements(dim, band):
    # view[m], view.get(m) and m in view against values(): the same
    # components in the same (mask) order, with -0.0 entries and all-(-0.0)
    # columns skipped.
    rng = np.random.default_rng([dim, band, 11])
    masks = tuple(range(min(4, 2**dim)))
    rows = rng.normal(size=(len(masks), (2 * band + 1) ** dim)) + 0j
    rows[rng.random(rows.shape) < 0.4] = 0
    rows[rng.random(rows.shape) < 0.3] = complex(-0.0, -0.0)
    rows[:, 0] = -0.0
    field = SpectralField.from_blade_vectors(dim, band, masks[::-1], rows[::-1])
    bulk = dict(zip(field.coeffs, field.coeffs.values()))
    for m in band_indices(dim, band):
        want = list(bulk[m].comps.items()) if m in bulk else []
        view = field.coeffs
        assert (m in view) == (m in bulk)
        if m in bulk:
            assert list(view[m].comps.items()) == want and view[m].n == dim
            assert list(view.get(m).comps.items()) == want
        else:
            with pytest.raises(KeyError):
                view[m]
            assert view.get(m) is None


def test_mode_cubes_and_grids_past_the_cell_cap_are_input_errors(monkeypatch):
    # A 3-D band-100000 cube has 8e15 modes and a 2-D grid of 10**5 points
    # per axis 10**10 cells: each is refused before a mode table, a transform
    # pair or a grid is built (a table built here fails the test instead of
    # filling the memory).
    assert MAX_GRID_CELLS == 2**26
    field = SpectralField(2, 8, {(1, 0): 1.0})

    def unexpected(*args):
        raise AssertionError("a table was built")

    for name in ("_mode_columns", "mode_matrix", "_dft_matrices", "_wrapped_index_arrays"):
        monkeypatch.setattr(spectral, name, unexpected)
    for build in (
        lambda: SpectralField(3, 100_000),
        lambda: SpectralField.from_blade_vectors(3, 100_000, (0,), np.zeros((1, 1))),
        lambda: mode_matrix(3, 100_000),
        lambda: _coupling(2, 8, 100_000, 1),
        lambda: inverse_transform(field, 100_000),
        lambda: sum_space_norm(field, homogeneous=False, points_per_axis=100_000),
        lambda: KernelSpec(dim=3, band=100_000, kind="K"),
    ):
        with pytest.raises(InputError, match=f"more than {2**26}"):
            build()
    # The cap itself is allowed: a 1-D cube of 2**26 - 1 modes, a 2-D grid of 2**26 cells.
    _check_shape(1, 2**25 - 1)
    assert _grid_shape(2, 2**13) == (2**13, 2**13)
    with pytest.raises(InputError):
        _check_shape(1, 2**25)
    with pytest.raises(InputError):
        _grid_shape(2, 2**13 + 1)
