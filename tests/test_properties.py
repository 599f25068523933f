"""Property tests of the coefficient store and the identities built on it."""

import math

import numpy as np
import pytest
from collections.abc import ItemsView, ValuesView

from hypothesis import example, given, settings, strategies as st

from fracbb.clifford import (
    _DENSE_PAIR_THRESHOLD,
    CliffordElement,
    _blade_product,
    _dense_multiply,
    _scaled_norm,
    multiply,
)
from fracbb.fileio import load_coefficients, load_grid_csv, save_coefficients, save_grid_csv
from fracbb.norms import _coupling, _grid_scales, l1_norm, sobolev_norm, sum_space_norm
from fracbb.operators import dirac_D, invert_D, invert_D2
from fracbb.spectral import (
    _DENSE_MAX_ENTRIES,
    GridField,
    SpectralField,
    band_indices,
    convolve,
    default_points,
    forward_transform,
    inverse_transform,
    mode_matrix,
    project_zero_mean,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
signed_zero_parts = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
signed_zero_values = st.builds(complex, signed_zero_parts, signed_zero_parts)


@st.composite
def coefficient_tables(draw, zero_mean=False, shape=None, entries=values):
    """``(dim, band, {mode: {blade: value}})`` with Clifford values, zeros included."""
    dim = shape[0] if shape else draw(st.integers(1, 3))
    band = shape[1] if shape else draw(st.integers(1, 3 if dim < 3 else 2))
    modes = [m for m in band_indices(dim, band) if any(m) or not zero_mean]
    chosen = draw(st.lists(st.sampled_from(modes), unique=True, max_size=12))
    blades = st.dictionaries(st.integers(0, (1 << dim) - 1), entries, max_size=4)
    return dim, band, {m: draw(blades) for m in chosen}


def signed_zero_fields():
    """Fields built from blade rows, so ``data`` keeps ``-0.0`` parts and entries."""

    def build(table):
        dim, band, raw = table
        masks = sorted({mask for comps in raw.values() for mask in comps}) or [0]
        modes = list(band_indices(dim, band))
        data = np.zeros((len(masks), len(modes)), dtype=complex)
        for m, comps in raw.items():
            for mask, z in comps.items():
                data[masks.index(mask), modes.index(m)] = z
        return SpectralField.from_blade_vectors(dim, band, masks, data)

    return coefficient_tables(entries=signed_zero_values).map(build)


def bits(element: CliffordElement) -> list:
    """An element's components in order, each part as ``float.hex``."""
    assert all(type(z) is complex for z in element.comps.values())
    return [(mask, z.real.hex(), z.imag.hex()) for mask, z in element.comps.items()]


def clifford_fields(zero_mean=False, shape=None):
    return coefficient_tables(zero_mean, shape).map(
        lambda t: SpectralField(
            t[0], t[1], {m: CliffordElement(t[0], c) for m, c in t[2].items()}, zero_mean
        )
    )


def assert_close(a: SpectralField, b: SpectralField, rel: float) -> None:
    scale = max(1.0, a.l2_coefficient_norm(), b.l2_coefficient_norm())
    assert (a - b).l2_coefficient_norm() <= rel * scale


@PROPERTY_SETTINGS
@given(coefficient_tables())
def test_dict_array_and_coeffs_round_trip(table):
    dim, band, raw = table
    expected = {}
    for m, comps in raw.items():
        element = CliffordElement(dim, comps)
        if element.comps:
            expected[m] = element
    field = SpectralField(dim, band, {m: CliffordElement(dim, c) for m, c in raw.items()})
    # coeffs shows exactly the nonzero modes, and only their nonzero blades
    assert dict(field.coeffs) == expected
    assert len(field.coeffs) == len(expected)
    assert all(0 not in v.comps.values() for v in field.coeffs.values())
    used = sorted({mask for v in expected.values() for mask in v.comps})
    assert field.masks == (tuple(used) or (0,))
    for m in band_indices(dim, band):
        assert field.coeffs.get(m) == expected.get(m)
    # array -> field -> dict -> field reproduces the array exactly
    masks, data = field.masks, field.data
    via_array = SpectralField.from_blade_vectors(dim, band, masks[::-1], data[::-1])
    assert via_array.masks == masks
    assert np.array_equal(via_array.data, data)
    via_dict = SpectralField(dim, band, dict(via_array.coeffs))
    assert via_dict.masks == masks
    assert np.array_equal(via_dict.data, data)


@PROPERTY_SETTINGS
@given(signed_zero_fields())
def test_coefficient_views_match_per_mode_access(field):
    view = field.coeffs
    items, values = view.items(), view.values()
    assert isinstance(items, ItemsView) and isinstance(values, ValuesView)
    one_by_one = [(m, bits(view[m])) for m in view]
    assert [(m, bits(element)) for m, element in items] == one_by_one
    assert [bits(element) for element in values] == [b for _, b in one_by_one]
    assert len(items) == len(values) == len(one_by_one)
    # Each element is what the checked constructor makes of its column: only
    # nonzero blades, -0.0 entries dropped, in mask order, bits unchanged.
    modes = list(band_indices(field.dim, field.band))
    for col, m in enumerate(modes):
        checked = CliffordElement(field.dim, dict(zip(field.masks, field.data[:, col].tolist())))
        assert bits(view.get(m, CliffordElement.zero(field.dim))) == bits(checked)
        assert (m in view) == bool(checked.comps)


@pytest.mark.parametrize(
    "dim,masks",
    [(1, (0,)), (2, (2,)), (3, (1, 2, 4)), (1, (0, 1)), (2, (0, 1, 2, 3)), (3, tuple(range(8)))],
    ids=["scalar", "one-vector-blade", "vector", "full-1d", "full-2d", "full-3d"],
)
def test_view_elements_have_the_components_of_get(dim, masks):
    rng = np.random.default_rng(len(masks) + 8 * dim)
    modes = list(band_indices(dim, 2))
    parts = rng.normal(size=(len(masks), len(modes), 2))
    # Each entry is kept, zeroed or made -0.0 per part; some columns vanish.
    choice = rng.integers(0, 3, size=parts.shape)
    parts = np.where(choice == 0, parts, np.where(choice == 1, 0.0, -0.0))
    parts[:, :3] = -0.0
    data = np.ascontiguousarray(parts).view(complex)[..., 0]
    assert (np.signbit(data.imag) & (data.imag == 0)).any()
    field = SpectralField.from_blade_vectors(dim, 2, masks, data)
    assert field.masks == masks
    view = field.coeffs
    # The reference: what the checked constructor makes of each column.
    columns = (CliffordElement(dim, dict(zip(masks, column))) for column in data.T.tolist())
    expected = [(m, bits(element)) for m, element in zip(modes, columns) if element.comps]
    assert [(m, bits(element)) for m, element in view.items()] == expected
    assert [bits(element) for element in view.values()] == [b for _, b in expected]
    assert len(view) == len(expected) < len(modes)


@st.composite
def wide_elements(draw):
    """Elements of 1 to 2**n components, n = 1..3, with parts near ``10**exponent``."""
    n, exponent = draw(st.integers(1, 3)), draw(st.integers(-150, 150))
    scaled = st.floats(-10, 10).map(lambda x: x * 10.0**exponent)
    parts = st.sampled_from([0.0, -0.0]) | scaled
    comps = st.dictionaries(
        st.integers(0, (1 << n) - 1), st.builds(complex, scaled, parts), min_size=1
    )
    return CliffordElement(n, draw(comps))


def full_element(n, magnitude):
    return CliffordElement(n, {mask: complex(mask + 1, -0.5) * magnitude for mask in range(1 << n)})


@PROPERTY_SETTINGS
@given(signed_zero_fields(), wide_elements())
@example(SpectralField(1, 1), full_element(3, 1e-150))
@example(SpectralField(1, 1), full_element(3, 1e150))
def test_element_norm_is_the_numpy_square_root_bit_for_bit(field, element):
    # The reference is ``sum``'s, so it holds on every Python version.
    for element in [*field.coeffs.values(), element]:
        expected = float(np.sqrt(sum(abs(v) ** 2 for v in element.comps.values())))
        assert element.norm().hex() == expected.hex()


def view_elements(field: SpectralField) -> list[CliffordElement]:
    """Every per-mode read of a field: values, items, ``view[m]`` and ``view.get(m)``."""
    view = field.coeffs
    return [
        *view.values(),
        *(element for _, element in view.items()),
        *(view[m] for m in view),
        *(view.get(m) for m in view),
    ]


@pytest.mark.parametrize("masks", [(0,), (1, 2)], ids=["one-component", "two-component"])
@pytest.mark.parametrize("magnitude", [2e154, 1e200, 1e300])
def test_view_elements_with_huge_parts_take_the_scaled_norm(masks, magnitude):
    rng = np.random.default_rng(len(masks))
    modes = list(band_indices(2, 2))
    # Parts of 1 to 10 times the magnitude, either sign: every square overflows.
    parts = rng.uniform(1.0, 10.0, size=(len(masks), len(modes), 2)) * magnitude
    parts *= rng.choice([-1.0, 1.0], size=parts.shape)
    field = SpectralField.from_blade_vectors(2, 2, masks, parts[..., 0] + 1j * parts[..., 1])
    elements = view_elements(field)
    assert len(elements) == 4 * len(modes)
    for element in elements:
        values = list(element.comps.values())
        assert len(values) == len(masks)
        with pytest.raises(OverflowError):
            sum(abs(v) ** 2 for v in values)
        assert element.norm().hex() == _scaled_norm(values).hex()


@pytest.mark.parametrize("masks", [(0,), (1, 2)], ids=["one-blade", "two-blade"])
def test_a_read_over_several_chunks_matches_the_per_mode_reads(masks):
    # More than 4096 nonzero columns, all built by one _elements call.
    rng = np.random.default_rng(len(masks))
    modes = list(band_indices(2, 40))
    assert len(modes) > 4096
    shape = (len(masks), len(modes), 2)
    # Some entries and whole columns vanish, as 0.0 or -0.0.
    parts = np.where(rng.random(shape) < 0.7, rng.normal(size=shape), 0.0)
    parts = np.where(rng.random(shape) < 0.5, parts, -parts)
    field = SpectralField.from_blade_vectors(2, 40, masks, parts[..., 0] + 1j * parts[..., 1])
    view = field.coeffs
    assert len(view) > 4096
    read = [bits(element) for element in view.values()]
    assert read == [bits(view[m]) for m in view]
    assert read == [bits(element) for _, element in view.items()]


def equal_blade_pairs():
    """Two fields on the same blades, their entries drawn with signed zeros."""

    def pair(args):
        f, seed = args
        rng = np.random.default_rng(seed)
        shape = f.data.shape + (2,)
        parts = np.where(rng.random(shape) < 0.5, rng.normal(size=shape), 0.0)
        parts = np.where(rng.random(shape) < 0.5, parts, -parts)
        parts[:, 0, 0] = 1.0  # no row of g vanishes, so g keeps f's blades
        rows = parts[..., 0] + 1j * parts[..., 1]
        g = SpectralField.from_blade_vectors(f.dim, f.band, f.masks, rows)
        assert g.masks == f.masks
        return f, g

    return st.tuples(signed_zero_fields(), st.integers(0, 2**32 - 1)).map(pair)


def same_bits(a: SpectralField, b: SpectralField) -> bool:
    return (a.masks, a.zero_mean, a.data.tobytes()) == (b.masks, b.zero_mean, b.data.tobytes())


@PROPERTY_SETTINGS
@given(equal_blade_pairs())
def test_sums_on_equal_blades_are_the_array_sums_bit_for_bit(fg):
    f, g = fg
    for result, rows in ((f + g, f.data + g.data), (f - g, f.data + -g.data)):
        expected = SpectralField.from_blade_vectors(f.dim, f.band, f.masks, rows)
        assert same_bits(result, expected)
        assert [bits(e) for e in result.coeffs.values()] == [
            bits(e) for e in expected.coeffs.values()
        ]


@PROPERTY_SETTINGS
@given(signed_zero_fields(), st.booleans())
def test_a_field_minus_itself_is_the_zero_field(f, zero_mean):
    if zero_mean:
        f = project_zero_mean(f)
    for zero in (f - f, f + f.scale(-1.0)):
        assert zero.masks == (0,) and not zero.data.any()
        assert len(zero.coeffs) == 0 and list(zero.coeffs.values()) == []
        assert zero.zero_mean


@pytest.mark.parametrize("masks", [(0,), (1, 2), (0, 1, 2, 3)])
def test_a_column_of_negative_zeros_reads_as_the_zero_element(masks):
    modes = list(band_indices(2, 1))
    data = np.ones((len(masks), len(modes)), dtype=complex)
    cols = [0, len(modes) // 2]  # a corner mode and the mean
    data[:, cols] = complex(-0.0, -0.0)
    field = SpectralField.from_blade_vectors(2, 1, masks, data)
    assert field.masks == masks and np.signbit(field.data[:, cols].real).all()
    view = field.coeffs
    assert len(view) == len(modes) - len(cols)
    for m in (modes[col] for col in cols):
        assert m not in view and view.get(m) is None
        with pytest.raises(KeyError):
            view[m]


@PROPERTY_SETTINGS
@given(clifford_fields(), st.integers(0, 3))
def test_forward_inverts_inverse_transform(u, extra_points):
    points = 2 * u.band + 1 + extra_points
    back = forward_transform(inverse_transform(u, points), u.band)
    assert_close(back, u, 1e-12)


@PROPERTY_SETTINGS
@given(
    dim=st.integers(1, 3),
    band=st.integers(1, 3),
    extra_points=st.integers(0, 3),
    fft_side=st.booleans(),
    blades=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_coupling_adjoint_identity(dim, band, extra_points, fft_side, blades, seed):
    # <A g, p> = P**-n <g, S p> with S the synthesis of inverse_transform, and
    # the solver's adjoint is A* = P**-n S.  Past the size rule (1-D only,
    # to keep grids small) the pair runs on FFTs instead of dense matrices.
    points = 2 * band + 1 + extra_points
    if fft_side:
        dim, points = 1, _DENSE_MAX_ENTRIES // (2 * band + 1) + 1 + extra_points
    blades = min(blades, 1 << dim)
    forward, adjoint = _coupling(dim, band, points, blades)
    rng = np.random.default_rng(seed)
    g_shape, p_shape = (blades,) + (points,) * dim, (blades, (2 * band + 1) ** dim)
    g = rng.normal(size=g_shape) + 1j * rng.normal(size=g_shape)
    p = rng.normal(size=p_shape) + 1j * rng.normal(size=p_shape)
    masks = tuple(range(blades))
    synthesis = inverse_transform(
        SpectralField.from_blade_vectors(dim, band, masks, p), points
    )
    s_p = np.array([synthesis.comps[mask] for mask in masks])
    lhs = np.vdot(p, forward(g))
    scale = 1e-12 * max(1.0, np.linalg.norm(g) * np.linalg.norm(p))
    assert abs(lhs - np.vdot(s_p, g) / points**dim) <= scale
    assert abs(lhs - np.vdot(adjoint(p), g)) <= scale


def _triangle_bound(p: np.ndarray, dim: int) -> float:
    """``sum_m |p_m| / (2 pi)**n`` of dual rows ``(blades, modes)``, as the closed form bounds."""
    return float(np.sqrt((np.abs(p) ** 2).sum(axis=0)).sum() / (2.0 * math.pi) ** dim)


triangle_cases = dict(
    dim=st.integers(1, 2), band=st.integers(1, 4), blades=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)


@PROPERTY_SETTINGS
@given(**triangle_cases)
def test_triangle_bound_covers_the_grid_scale_on_any_grid(dim, band, blades, seed):
    # |A* p(x)| / w = |sum_m p_m e^{im.x}| / (2 pi)**n is at most the bound
    # at every x: on the tightest grid, the default one and one 16 times finer.
    rng = np.random.default_rng(seed)
    shape = (blades, (2 * band + 1) ** dim)
    p = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * rng.uniform(0, 2, shape[1]) ** 4
    bound = _triangle_bound(p, dim)
    for points in (2 * band + 1, default_points(band), 16 * default_points(band)):
        _, adjoint = _coupling(dim, band, points, 1, blades)
        assert _grid_scales(adjoint(p[None]))[0] <= bound * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(**triangle_cases)
def test_a_flat_point_mass_at_a_node_attains_the_triangle_bound(dim, band, blades, seed):
    # p_m = c e^{-i m.x0} with x0 a grid node: every term of A* p(x0) is c / P**n.
    rng = np.random.default_rng(seed)
    points = default_points(band)
    node = rng.integers(0, points, dim)
    phase = (mode_matrix(dim, band) @ node) % points  # exact integer phases
    c = rng.normal(size=blades) + 1j * rng.normal(size=blades)
    p = c[:, None] * np.exp(phase * (-2j * math.pi / points))
    _, adjoint = _coupling(dim, band, points, 1, blades)
    bound = _triangle_bound(p, dim)
    assert abs(_grid_scales(adjoint(p[None]))[0] - bound) <= 1e-12 * bound


@PROPERTY_SETTINGS
@given(st.data())
def test_convolve_matches_per_mode_clifford_products(data):
    f = data.draw(clifford_fields())
    g = data.draw(clifford_fields(shape=(f.dim, f.band)))
    out = convolve(f, g)
    factor = (2.0 * math.pi) ** f.dim
    zero = CliffordElement.zero(f.dim)
    for m in band_indices(f.dim, f.band):
        expected = (f.coeffs.get(m, zero) * g.coeffs.get(m, zero)).scale(factor)
        assert (out.coeffs.get(m, zero) - expected).norm() <= 1e-12 * max(1.0, expected.norm())


@PROPERTY_SETTINGS
@given(clifford_fields(zero_mean=True))
def test_dirac_inverses(f):
    assert_close(dirac_D(invert_D(f)), f, 1e-12)
    assert_close(dirac_D(dirac_D(invert_D2(f))), f, 1e-12)


@PROPERTY_SETTINGS
@given(u=clifford_fields())
@example(u=SpectralField(1, 2, {(1,): complex(-0.0, 2.0), (2,): complex(1.5, -0.0)}))
def test_coefficient_json_round_trip_is_byte_exact(tmp_path_factory, u):
    path = tmp_path_factory.mktemp("coefficients") / "u.json"
    save_coefficients(u, path)
    text = path.read_text()
    back = load_coefficients(path)
    save_coefficients(back, path)
    assert path.read_text() == text
    assert back.masks == u.masks
    assert np.array_equal(back.data, u.data)


# Signed zeros, subnormals and the edges of the float range, besides any finite float.
grid_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]
)


@st.composite
def grid_fields(draw):
    dim = draw(st.integers(1, 2))
    points = draw(st.integers(2, 4))
    masks = draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=1, max_size=3, unique=True))
    size = 2 * points**dim
    planes = {
        mask: np.array(draw(st.lists(grid_values, min_size=size, max_size=size)))
        .view(complex)
        .reshape((points,) * dim)
        for mask in masks
    }
    return GridField(dim, points, planes)


@PROPERTY_SETTINGS
@given(grid=grid_fields())
@example(grid=GridField(1, 2, {0: np.array([complex(-0.0, -0.0), complex(5e-324, -1e308)])}))
def test_grid_csv_round_trip_is_byte_exact(tmp_path_factory, grid):
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    save_grid_csv(grid, path)
    text = path.read_bytes()
    save_grid_csv(load_grid_csv(path, grid.dim), path)
    assert path.read_bytes() == text


# -- the sum-space norm -------------------------------------------------------------

# Each example runs the solver a few times, some of them with Newton steps.
SOLVER_SETTINGS = settings(max_examples=10, deadline=None)
SOLVER_TOL = 1e-6
# The H^{-1/2} weights are scaled by up to 8.  Near 4.5 the integrable part
# starts to pay at these bands (the explicit examples iterate); beyond it
# h = 0 becomes optimal, which the interior-point method certifies in a few
# steps.
weight_scales = st.floats(0.5, 8.0)
BAND_3_FLAT = SpectralField(1, 3, {(n,): 1.0 for n in range(-3, 4) if n}, zero_mean=True)


def circle_fields(band):
    modes = [(n,) for n in range(-band, band + 1) if n]
    table = st.dictionaries(
        st.sampled_from(modes),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
        min_size=1,
    )
    return table.map(lambda c: SpectralField(1, band, c, zero_mean=True))


small_circle_fields = st.integers(1, 4).flatmap(circle_fields)
circle_field_pairs = st.integers(1, 4).flatmap(
    lambda band: st.tuples(circle_fields(band), circle_fields(band))
)


def solve(f, scale):
    """Sum-space split with the H^{-1/2} weights scaled by ``scale``."""
    freq = np.abs(mode_matrix(1, f.band)[:, 0]).astype(float)
    weights = np.where(freq > 0, scale * np.maximum(freq, 1.0) ** -0.5, 1.0)
    split = sum_space_norm(f, tol=SOLVER_TOL, weights=weights)
    assert 0.0 <= split.gap <= SOLVER_TOL
    return split


@SOLVER_SETTINGS
@given(pair=circle_field_pairs, scale=weight_scales)
@example(pair=(BAND_3_FLAT, BAND_3_FLAT.scale(0.5j)), scale=4.5)
def test_sum_space_triangle_inequality(pair, scale):
    f, g = pair
    total = solve(f + g, scale)
    # A reported value overestimates the optimum by at most its gap.
    assert total.value <= solve(f, scale).value + solve(g, scale).value + total.gap + 1e-12


@SOLVER_SETTINGS
@given(f=small_circle_fields, scale=weight_scales, lam=st.floats(0.1, 10.0))
@example(f=BAND_3_FLAT, scale=4.5, lam=3.0)
def test_sum_space_homogeneity(f, scale, lam):
    base = solve(f, scale)
    scaled = solve(f.scale(lam), scale)
    slack = scaled.gap + lam * base.gap + 1e-12 * (1.0 + scaled.value)
    assert abs(scaled.value - lam * base.value) <= slack


@SOLVER_SETTINGS
@given(f=small_circle_fields, scale=weight_scales)
@example(f=BAND_3_FLAT, scale=4.5)
def test_sum_space_below_pure_splits(f, scale):
    split = solve(f, scale)
    sobolev = scale * sobolev_norm(f, -0.5)
    l1 = l1_norm(inverse_transform(f, default_points(f.band)))
    assert split.value <= min(sobolev, l1) + SOLVER_TOL


# -- contraction by positive grid kernels ---------------------------------------

# A grid kernel K >= 0 of mass 1 maps a split g + h = f to the split K*g + K*h
# of K*f, with multiplier K_hat_m = sum_k K_k exp(-i m.x_k): the convolution
# does not raise the grid L1 norm, and |K_hat_m| <= 1 does not raise a
# weighted coefficient norm.  So the optimum for K*f is at most the one for
# f, and a whole-cell shift, whose inverse is a shift too, keeps it.  Solved
# at tol 1e-10, where the Newton steps leave gaps of about 1e-11.
CONTRACTION_TOL = 1e-10


def _weights(f, scale, power):
    """``scale * |m|**-power`` on the band cube of ``f``, 1 at the mean."""
    norm = np.sqrt((mode_matrix(f.dim, f.band) ** 2).sum(axis=1))
    return np.where(norm > 0, scale * np.maximum(norm, 1.0) ** -power, 1.0)


def _contraction_case(name):
    """``(field, weights, path)``: 1-D fields of one and two blades and a 2-D field, each in
    the iterating and the closed-form regime."""
    if name.startswith("1-D one blade"):
        f = SpectralField(1, 8, {(n,): 1.0 for n in range(-8, 9) if n}, zero_mean=True)
        scale, power = 5.0, 0.5  # the frozen mixed_flat_8 instance
    elif name.startswith("1-D two blades"):
        rows = np.random.default_rng(5).normal(size=(2, 9, 2)) @ np.array([1.0, 1j])
        rows[:, 4] = 0
        f = SpectralField.from_blade_vectors(1, 4, (0, 1), rows)
        scale, power = 12.0, 0.5
    else:
        modes = mode_matrix(2, 3).tolist()
        f = SpectralField(2, 3, {tuple(m): 1.0 for m in modes if any(m)}, zero_mean=True)
        scale, power = 20.0, 1.0
    if name.endswith("closed form"):
        return f, _weights(f, 1.0, power), "closed-form"
    return f, _weights(f, scale, power), "interior-point"


CONTRACTION_CASES = [f"{field}, {regime}" for field in ("1-D one blade", "1-D two blades", "2-D")
                     for regime in ("iterating", "closed form")]


def kernel_multiplier(kernel: np.ndarray, band: int) -> np.ndarray:
    """``K_hat_m = sum_k K_k exp(-i m.x_k)`` on the band cube, summed node by node."""
    points = kernel.shape[0]
    nodes = np.array(np.unravel_index(np.arange(kernel.size), kernel.shape))
    phase = (mode_matrix(kernel.ndim, band) @ nodes) % points  # exact integer phases
    return np.exp(phase * (-2j * math.pi / points)) @ kernel.ravel()


def convolved(f, kernel):
    return SpectralField.from_blade_vectors(
        f.dim, f.band, f.masks, f.data * kernel_multiplier(kernel, f.band)
    )


@pytest.mark.parametrize("case", CONTRACTION_CASES)
@SOLVER_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), eps=st.just(1.0) | st.floats(1e-3, 1.0))
def test_positive_grid_kernels_do_not_raise_the_sum_space_norm(case, seed, eps):
    f, weights, path = _contraction_case(case)
    base = sum_space_norm(f, tol=CONTRACTION_TOL, weights=weights)
    assert base.path == path
    # A random kernel of mass 1, or near the identity: (1 - eps) delta + eps K.
    kernel = np.random.default_rng(seed).random((default_points(f.band),) * f.dim)
    kernel *= eps / kernel.sum()
    kernel.flat[0] += 1.0 - eps
    split = sum_space_norm(convolved(f, kernel), tol=CONTRACTION_TOL, weights=weights)
    # The lower bound for K*f may not pass the value of f.
    assert split.value - split.gap <= base.value


@pytest.mark.parametrize("case", CONTRACTION_CASES)
def test_whole_cell_shifts_keep_the_sum_space_norm(case):
    f, weights, path = _contraction_case(case)
    shift = np.zeros((default_points(f.band),) * f.dim)
    shift[(3,) + (1,) * (f.dim - 1)] = 1.0
    base = sum_space_norm(f, tol=CONTRACTION_TOL, weights=weights)
    moved = sum_space_norm(convolved(f, shift), tol=CONTRACTION_TOL, weights=weights)
    assert base.path == moved.path == path
    # No slack here: the two optima are equal, so each value lies within its
    # gap of both.  The 16 units in the last place cover the closed-form
    # values, reported with gap 0, whose rotated coefficients round apart.
    assert abs(moved.value - base.value) <= base.gap + moved.gap + 16 * math.ulp(base.value)


# -- Clifford axioms ------------------------------------------------------------

blade_values = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def clifford_elements(n, min_size=0, max_size=None):
    masks = st.integers(0, (1 << n) - 1)
    return st.dictionaries(masks, blade_values, min_size=min_size, max_size=max_size).map(
        lambda comps: CliffordElement(n, comps)
    )


@st.composite
def clifford_triples(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return tuple(draw(clifford_elements(n)) for _ in range(3))


def assert_products_close(a: CliffordElement, b: CliffordElement, scale: float) -> None:
    # Each component sums at most 2**n terms of size at most scale per factor.
    assert (a - b).norm() <= 1e-13 * (1 << a.n) ** 2 * scale


@PROPERTY_SETTINGS
@given(clifford_triples())
def test_clifford_product_is_associative(xyz):
    x, y, z = xyz
    assert_products_close((x * y) * z, x * (y * z), x.norm() * y.norm() * z.norm())


@PROPERTY_SETTINGS
@given(clifford_triples())
def test_clifford_product_distributes_over_sums(xyz):
    x, y, z = xyz
    assert_products_close(x * (y + z), x * y + x * z, x.norm() * (y.norm() + z.norm()))
    assert_products_close((x + y) * z, x * z + y * z, (x.norm() + y.norm()) * z.norm())


@PROPERTY_SETTINGS
@given(clifford_triples())
def test_conjugation_is_an_involutive_anti_homomorphism(xyz):
    x, y, _ = xyz
    assert x.conjugate().conjugate() == x
    assert_products_close(
        (x * y).conjugate(), y.conjugate() * x.conjugate(), x.norm() * y.norm()
    )


@PROPERTY_SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))))
def test_generators_anticommute_and_square_to_one(njk):
    # e_j e_k + e_k e_j = 2 delta_jk exactly; a bivector squares to -1.
    n, j, k = njk
    ej, ek = CliffordElement(n, {1 << (j - 1): 1.0}), CliffordElement(n, {1 << (k - 1): 1.0})
    one = CliffordElement.scalar(n, 1.0)
    assert ej * ek + ek * ej == (one + one if j == k else CliffordElement.zero(n))
    if j != k:
        assert (ej * ek) * (ej * ek) == -one


def blade_sum_product(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """``x * y`` expanded blade by blade: bilinearity plus the blade table."""
    comps: dict[int, complex] = {}
    for a, va in x.comps.items():
        for b, vb in y.comps.items():
            sign, blade = _blade_product(a, b)
            comps[blade] = comps.get(blade, 0j) + sign * va * vb
    return CliffordElement(x.n, comps)


@st.composite
def product_pairs(draw, dense):
    # Below the threshold multiply takes the blade-pair loop, at or above it
    # the dense table; C_5's 32 blades reach either side.
    sizes = st.integers(12, 32) if dense else st.integers(1, 11)  # >= 144 or <= 121 pairs
    x_size, y_size = draw(sizes), draw(sizes)
    return (
        draw(clifford_elements(5, min_size=x_size, max_size=x_size)),
        draw(clifford_elements(5, min_size=y_size, max_size=y_size)),
    )


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda dense: st.tuples(st.just(dense), product_pairs(dense))))
def test_product_paths_agree_on_both_sides_of_the_threshold(case):
    dense, (x, y) = case
    assert (len(x.comps) * len(y.comps) >= _DENSE_PAIR_THRESHOLD) == dense
    scale = x.norm() * y.norm()
    assert_products_close(multiply(x, y), _dense_multiply(x, y), scale)
    assert_products_close(multiply(x, y), blade_sum_product(x, y), scale)
