import math
import tracemalloc

import numpy as np
import pytest

from fracbb.errors import InputError
from fracbb.kernels import (
    DIVERGENCE_RATIO,
    KernelSpec,
    dyadic_block_sum,
    dyadic_range,
    kernel_K_1d,
    kernel_K_nd,
    kernel_component_nd,
    kernel_point_eval_dyadic,
    sawtooth_eval,
    sawtooth_field,
    sup_norm_scan,
)
from fracbb.operators import _symbol_table, invert_D2
from fracbb.spectral import (
    _DENSE_MAX_ENTRIES,
    GridField,
    SpectralField,
    _dft_matrices,
    _mode_positions,
    _wrapped_index_arrays,
    band_indices,
    convolve,
    default_points,
    forward_transform,
    freq_norm,
    grid_coordinates,
    inverse_transform,
    mode_list,
    mode_matrix,
)
from fracbb.norms import l1_norm

TWO_PI = 2.0 * math.pi


# -- sawtooth ----------------------------------------------------------------


def test_sawtooth_values():
    assert sawtooth_eval(math.pi / 2) == pytest.approx(-math.pi / 2)
    assert sawtooth_eval(-math.pi / 2) == pytest.approx(math.pi / 2)
    assert sawtooth_eval(0.0) == 0.0
    assert sawtooth_eval(math.pi) == pytest.approx(0.0)


def test_sawtooth_periodicity_and_vectorization():
    x = np.linspace(-10, 10, 201)
    assert np.allclose(sawtooth_eval(x), sawtooth_eval(x + TWO_PI), atol=1e-12)
    assert np.allclose(sawtooth_eval(x), -sawtooth_eval(-x), atol=1e-12)


def test_sawtooth_quadrature_coefficient_matches_closed_form():
    P = 4096
    x = np.arange(P) * TWO_PI / P
    samples = sawtooth_eval(x)
    hat = np.fft.fft(samples) / P
    assert abs(hat[1] - 1j) < 1e-6
    for n in (2, 5, 17):
        assert abs(hat[n] - 1j / n) < 5.0 / P


def test_sawtooth_field_matches_sampled_sawtooth():
    band, P = 32, 512
    field = sawtooth_field(band)
    hat = np.fft.fft(sawtooth_eval(np.arange(P) * TWO_PI / P)) / P
    for n in range(1, band + 1):
        assert abs(field.coeffs[(n,)].p0() - hat[n]) < 5.0 / P


# -- 1-D K kernel ---------------------------------------------------------------


def test_kernel_K_1d_coefficients():
    K = kernel_K_1d(5)
    assert abs(K.coeffs[(1,)].p0() + 0.5j) < 1e-15
    assert abs(K.coeffs[(-3,)].p0() - 1j / 6) < 1e-15
    assert (0,) not in K.coeffs


def test_kernel_K_1d_sup_near_half_pi():
    K = kernel_K_1d(64)
    sup = inverse_transform(K, 512).magnitude().max()
    # Truncations overshoot the closed-form sup pi/2 by at most the Gibbs factor.
    assert sup <= (math.pi / 2) * 1.2
    assert sup >= (math.pi / 2) * 0.95


def test_kernel_K_1d_inverts_D2_by_convolution():
    rng = np.random.default_rng(0)
    g = SpectralField(
        1, 8, {(n,): complex(rng.normal(), rng.normal()) for n in range(-8, 9) if n},
        zero_mean=True,
    )
    via_conv = convolve(kernel_K_1d(8), g).scale(1.0 / TWO_PI)
    via_mult = invert_D2(g)
    err = max((v.norm() for v in (via_conv - via_mult).coeffs.values()), default=0.0)
    assert err < 1e-10


def test_1d_convolution_sup_bound():
    # ||w||_inf <= (1/4) ||g||_L1 for w built by the inverting convolution.
    rng = np.random.default_rng(1)
    for trial in range(20):
        base = SpectralField(
            1,
            4,
            {(n,): complex(rng.normal(), rng.normal()) for n in range(-4, 5)},
        )
        grid = inverse_transform(base, 32)
        assert grid.masks == (0,)
        values = grid.data[0]
        values = np.abs(values) ** 2  # nonnegative sample, band 8
        values -= values.mean()
        g = forward_transform(GridField.from_scalar(values), 8)
        g = SpectralField(1, 8, {m: v for m, v in g.coeffs.items() if m != (0,)}, zero_mean=True)
        w = invert_D2(g)
        sup_w = inverse_transform(w, 64).magnitude().max()
        l1_g = l1_norm(inverse_transform(g, 256))
        assert sup_w <= 0.25 * l1_g * (1.0 + 1e-6) + 1e-12


# -- n-D kernels ------------------------------------------------------------------


def test_directional_coefficients():
    k = kernel_component_nd(2, 1, 2)
    assert abs(k.coeffs[(1, 0)].p0() - 1.0) < 1e-15
    assert abs(k.coeffs[(-1, 0)].p0() + 1.0) < 1e-15
    assert abs(k.coeffs[(1, 1)].p0() - 2.0**-1.5) < 1e-15
    assert (0, 1) not in k.coeffs
    with pytest.raises(InputError):
        kernel_component_nd(1, 1, 4)


def test_directional_antisymmetry_exact():
    k = kernel_component_nd(2, 2, 3)
    p0 = {m: value.p0() for m, value in k.coeffs.items()}
    for m in band_indices(2, 3):
        flipped = (m[0], -m[1])
        assert p0.get(m, 0j) == -p0.get(flipped, 0j)


def test_kernel_K_nd_values():
    K = kernel_K_nd(2, 2)
    v = K.coeffs[(1, 0)]
    assert abs(v.component((1,)) + 0.5j) < 1e-15  # 1/(2i) = -i/2
    assert v.component((2,)) == 0j
    assert (0, 0) not in K.coeffs


def test_kernel_K_nd_inverts_D2_by_convolution():
    rng = np.random.default_rng(2)
    g = SpectralField(
        2,
        4,
        {
            m: complex(rng.normal(), rng.normal())
            for m in band_indices(2, 4)
            if any(m)
        },
        zero_mean=True,
    )
    via_conv = convolve(kernel_K_nd(2, 4), g).scale(1.0 / TWO_PI**2)
    via_mult = invert_D2(g)
    err = max((v.norm() for v in (via_conv - via_mult).coeffs.values()), default=0.0)
    assert err < 1e-10


def test_directional_grid_values_purely_imaginary():
    k = kernel_component_nd(2, 1, 6)
    grid = inverse_transform(k, 32)
    assert grid.masks == (0,)
    values = grid.data[0]
    assert np.abs(values.real).max() < 1e-12


# -- dyadic blocks -----------------------------------------------------------------


def test_dyadic_range_convention():
    assert dyadic_range(0) == (1, 0)  # empty
    assert dyadic_range(1) == (1, 1)
    assert dyadic_range(2) == (2, 3)
    assert dyadic_range(3) == (4, 7)


def test_dyadic_block_empty_and_zero_point():
    assert dyadic_block_sum(2, 1, 0, 1, (0.3, 0.7)) == 0j
    value = dyadic_block_sum(2, 1, 2, 1, (0.0, 0.7))
    assert abs(value) < 1e-15  # sine factors vanish at x1 = 0


def test_dyadic_block_matches_brute_force():
    x = (0.4, -1.1)
    k1, ktilde = 2, 1
    total = 0j
    for m1 in range(2, 4):
        for m2 in range(-2, 3):
            if not 1 <= abs(m2) < 2:
                continue
            norm = freq_norm((m1, m2))
            total += 2j * (m1 / norm**3) * math.sin(m1 * x[0]) * np.exp(1j * m2 * x[1])
    block = dyadic_block_sum(2, 1, k1, ktilde, x)
    assert abs(block - total) < 1e-13


def test_dyadic_assembly_matches_inverse_transform():
    band = 5
    k = kernel_component_nd(2, 1, band)
    P = 4 * band
    samples = inverse_transform(k, P)
    assert samples.masks == (0,)
    grid = samples.data[0]
    xs = grid_coordinates(2, P)
    for idx in [(1, 3), (7, 2), (11, 19)]:
        point = (xs[0][idx], xs[1][idx])
        via_blocks = kernel_point_eval_dyadic(2, 1, band, point)
        assert abs(via_blocks - grid[idx]) < 1e-10


# -- sup scans -----------------------------------------------------------------------


def test_sup_scan_1d_sawtooth_gibbs_ceiling():
    report = sup_norm_scan(KernelSpec(dim=1, band=8, kind="sawtooth"), [8, 16, 32, 64])
    assert not report.diverging
    for row in report.rows:
        assert row.sup <= math.pi * 1.2


def test_sup_scan_2d_bounded():
    report = sup_norm_scan(
        KernelSpec(dim=2, band=4, kind="direction", direction=1), [4, 8, 16, 32]
    )
    assert not report.diverging
    for row in report.rows:
        if row.ratio is not None:
            assert row.ratio <= DIVERGENCE_RATIO


def test_sup_of_zero_field_is_zero():
    zero = SpectralField(2, 3, {})
    assert inverse_transform(zero, 12).magnitude().max() == 0.0


def test_scan_requires_increasing_bands():
    with pytest.raises(InputError):
        sup_norm_scan(KernelSpec(dim=1, band=4, kind="sawtooth"), [8, 8])


def test_kernel_spec_validation():
    with pytest.raises(InputError):
        KernelSpec(dim=2, band=4, kind="sawtooth")
    with pytest.raises(InputError):
        KernelSpec(dim=2, band=4, kind="direction", direction=3)
    with pytest.raises(InputError):
        KernelSpec(dim=1, band=0, kind="K")
    with pytest.raises(InputError):
        KernelSpec(dim=3, band=1024)  # 4096**3 grid cells; validation builds nothing


def _direction_row_of_K(dim, axis, band):
    """The directional kernel as ``2i`` times the ``e_axis`` row of the grade-1 table."""
    K = kernel_K_nd(dim, band)
    row = 2j * K.data[K.masks.index(1 << (axis - 1))]
    return SpectralField.from_blade_vectors(dim, band, (0,), row[None], zero_mean=True)


@pytest.mark.parametrize("dim", [2, 3])
def test_directional_kernel_is_the_K_row_byte_for_byte(dim):
    for band in (1, 2, 5, 9):
        for axis in range(1, dim + 1):
            _symbol_table.cache_clear()
            direction = kernel_component_nd(dim, axis, band)
            assert _symbol_table.cache_info().currsize == 0  # no grade-1 table built or kept
            expected = _direction_row_of_K(dim, axis, band)
            assert (direction.masks, direction.zero_mean) == ((0,), True)
            assert direction.data.tobytes() == expected.data.tobytes()


# 1-D and 2-D bands on both sides of the dense/FFT rule (band 32 dense, 33 FFT).
@pytest.mark.parametrize(
    "spec, bands",
    [
        (KernelSpec(dim=1, band=8, kind="sawtooth"), [8, 32, 33, 64]),
        (KernelSpec(dim=2, band=4, kind="direction", direction=2), [4, 32, 33, 40]),
        (KernelSpec(dim=3, band=2, kind="direction", direction=3), [2, 5, 8]),
    ],
)
def test_scan_sups_are_the_synthesized_maxima_bit_for_bit(spec, bands):
    assert default_points(32) * 65 <= _DENSE_MAX_ENTRIES < default_points(33) * 67

    def reference(band):
        if spec.kind == "sawtooth":
            kernel = sawtooth_field(band)
        else:
            kernel = _direction_row_of_K(spec.dim, spec.direction, band)
        return float(inverse_transform(kernel).magnitude().max())

    report = sup_norm_scan(spec, bands)
    assert [row.sup.hex() for row in report.rows] == [reference(b).hex() for b in bands]


def test_two_dimensional_scan_holds_a_few_grid_planes():
    # Cold caches, so the tables the scan builds count.  The last band's grid
    # is 256**2 cells, 1 MiB a complex plane; per-mode tuple tables and the
    # full grade-1 table would take the peak to about 6.6 MiB.
    for cached in (mode_list, _mode_positions, mode_matrix, _symbol_table, _dft_matrices,
                   _wrapped_index_arrays):
        cached.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sup_norm_scan(KernelSpec(dim=2, band=4, kind="direction", direction=1), [4, 8, 16, 32, 64])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


@pytest.mark.parametrize("dim, bands", [(2, [4, 8, 12]), (3, [2, 3, 5])])
def test_K_scans_leave_the_symbol_table_cache_as_they_found_it(dim, bands):
    # A scan builds each band's grade-1 table outside the cache, which
    # kernel_K_nd keeps for callers that convolve with the kernel.
    _symbol_table.cache_clear()
    report = sup_norm_scan(KernelSpec(dim=dim, band=bands[0], kind="K"), bands)
    assert _symbol_table.cache_info().currsize == 0
    want = [float(inverse_transform(kernel_K_nd(dim, b)).magnitude().max()).hex() for b in bands]
    assert [row.sup.hex() for row in report.rows] == want
    assert _symbol_table.cache_info().currsize == len(bands)
