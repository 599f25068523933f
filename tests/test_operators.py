import math

import numpy as np
import pytest

from fracbb.clifford import CliffordElement
from fracbb.errors import InputError
from fracbb.norms import sobolev_norm
from fracbb.operators import (
    dirac_D,
    dirac_Dbar,
    fractional_laplacian,
    invert_D,
    invert_D2,
    riesz,
)
from fracbb.spectral import SpectralField, band_indices


def random_scalar_field(rng, dim, band, zero_mean=True):
    coeffs = {}
    for m in band_indices(dim, band):
        if zero_mean and not any(m):
            continue
        coeffs[m] = complex(rng.normal(), rng.normal())
    return SpectralField(dim, band, coeffs, zero_mean=zero_mean)


def random_clifford_field(rng, dim, band):
    coeffs = {}
    for m in band_indices(dim, band):
        if not any(m):
            continue
        comps = {
            int(mask): complex(rng.normal(), rng.normal())
            for mask in rng.choice(1 << dim, size=2, replace=False)
        }
        coeffs[m] = CliffordElement(dim, comps)
    return SpectralField(dim, band, coeffs, zero_mean=True)


def field_error(a, b):
    return max((v.norm() for v in (a - b).coeffs.values()), default=0.0)


# -- fractional Laplacian ----------------------------------------------------


def test_fraclap_single_mode():
    u = SpectralField(1, 4, {(3,): 1.0})
    out = fractional_laplacian(u, 0.25)
    assert abs(out.coeffs[(3,)].p0() - math.sqrt(3.0)) < 1e-14


def test_zero_mean_is_read_from_the_data():
    # A field holds its arrays and nothing else: every multiplier annihilates
    # the mean, so its output reports a zero mean whatever its input's, and
    # so does a field built without the flag whose mean entry is zero.
    assert SpectralField.__slots__ == ("dim", "band", "masks", "data")
    u = SpectralField(1, 2, {(0,): 3.0, (1,): 1.0, (-2,): 2j})
    assert not u.zero_mean
    assert riesz(u).zero_mean and fractional_laplacian(u, 0.5).zero_mean
    assert SpectralField(1, 2, {(1,): 1.0}).zero_mean
    # The constructors' flag is an input check.
    with pytest.raises(InputError, match="zero_mean"):
        SpectralField.from_blade_vectors(1, 2, (0,), u.data, zero_mean=True)


def test_fraclap_annihilates_constant():
    u = SpectralField(1, 2, {(0,): 7.0})
    assert not fractional_laplacian(u, 0.7).coeffs


def test_fraclap_symbol_composition():
    rng = np.random.default_rng(0)
    u = random_scalar_field(rng, 2, 3, zero_mean=False)
    twice = fractional_laplacian(fractional_laplacian(u, 0.5), 0.5)
    once = fractional_laplacian(u, 1.0)
    assert field_error(twice, once) < 1e-12


@pytest.mark.parametrize("dim, band, masks", [(1, 4, (0,)), (2, 3, (0, 3)), (3, 2, (1, 2, 6))])
def test_fraclap_is_the_per_mode_product_bit_for_bit(dim, band, masks):
    # Signed zeros, a subnormal and a nonzero mean: the row product keeps
    # the bits, masks and flag of the per-mode Clifford product of the symbol.
    from fracbb.operators import _symbol_table
    from fracbb.spectral import _field_product

    rng = np.random.default_rng(dim)
    data = rng.normal(size=(len(masks), (2 * band + 1) ** dim)) * (1 - 2j)
    data[:, ::3] = -0.0
    data[:, 1::5] = complex(-0.0, 5e-324)
    for zero_mean in (False, True):
        if zero_mean:
            data[:, data.shape[1] // 2] = 0
        u = SpectralField.from_blade_vectors(dim, band, masks, data, zero_mean)
        for s in (0.25, 0.5, 3):
            ours = fractional_laplacian(u, s)
            theirs = _field_product(_symbol_table(dim, band, "fraclap", float(s)), u)
            assert (ours.masks, ours.zero_mean) == (theirs.masks, theirs.zero_mean)
            assert ours.data.tobytes() == theirs.data.tobytes()


def test_fraclap_rejects_nonpositive_exponent():
    u = SpectralField(1, 2, {(1,): 1.0})
    with pytest.raises(InputError):
        fractional_laplacian(u, -0.5)


# -- Riesz transforms ----------------------------------------------------------


def test_riesz_circle_signs():
    plus = SpectralField(1, 2, {(1,): 1.0})
    minus = SpectralField(1, 2, {(-1,): 1.0})
    assert abs(riesz(plus, 1).coeffs[(1,)].p0() - 1j) < 1e-15
    assert abs(riesz(minus, 1).coeffs[(-1,)].p0() + 1j) < 1e-15


def test_riesz_torus_direction():
    u = SpectralField(2, 2, {(1, 1): 1.0})
    out = riesz(u, 1)
    assert abs(out.coeffs[(1, 1)].p0() - 1j / math.sqrt(2)) < 1e-14


def test_riesz_axis_validation():
    u = SpectralField(2, 2, {(1, 0): 1.0})
    with pytest.raises(InputError):
        riesz(u, 3)


def test_riesz_conjugated_is_negative():
    u = SpectralField(2, 2, {(1, 0): 1.0})
    a = riesz(u, 1).coeffs[(1, 0)].p0()
    b = riesz(u, 1, conjugated=True).coeffs[(1, 0)].p0()
    assert abs(a + b) < 1e-15


def test_riesz_squared_is_minus_identity_on_circle():
    rng = np.random.default_rng(1)
    u = random_scalar_field(rng, 1, 8)
    out = riesz(riesz(u, 1), 1)
    assert field_error(out, u.scale(-1.0)) < 1e-12


# -- Dirac operators -------------------------------------------------------------


def test_dirac_circle_single_mode():
    u = SpectralField(1, 2, {(1,): 1.0})
    assert abs(dirac_D(u).coeffs[(1,)].p0() - (1 + 1j)) < 1e-15


def test_dirac_torus_single_mode():
    u = SpectralField(2, 2, {(1, 0): 1.0})
    out = dirac_D(u).coeffs[(1, 0)]
    assert abs(out.p0() - 1.0) < 1e-14
    assert abs(out.component((1,)) - 1j) < 1e-14
    assert out.component((2,)) == 0j


@pytest.mark.parametrize("dim,band", [(1, 6), (2, 3)])
def test_D_plus_Dbar_is_twice_fraclap(dim, band):
    rng = np.random.default_rng(2 + dim)
    u = random_scalar_field(rng, dim, band)
    lhs = dirac_D(u) + dirac_Dbar(u)
    rhs = fractional_laplacian(u, dim / 4.0).scale(2.0)
    assert field_error(lhs, rhs) < 1e-12


# -- inverses ----------------------------------------------------------------------


def test_invert_D_circle_single_mode():
    f = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    F = invert_D(f)
    assert abs(F.coeffs[(1,)].p0() - (0.5 - 0.5j)) < 1e-15


def test_invert_D_zero_field():
    f = SpectralField(1, 2, {}, zero_mean=True)
    assert not invert_D(f).coeffs


@pytest.mark.parametrize("dim,band", [(1, 8), (2, 4)])
def test_invert_D_right_inverse(dim, band):
    rng = np.random.default_rng(5 + dim)
    f = random_scalar_field(rng, dim, band)
    residual = field_error(dirac_D(invert_D(f)), f)
    assert residual < 1e-12


def test_invert_D_clifford_valued():
    rng = np.random.default_rng(9)
    f = random_clifford_field(rng, 2, 3)
    assert field_error(dirac_D(invert_D(f)), f) < 1e-12


def test_invert_D_l2_bound():
    rng = np.random.default_rng(6)
    for dim, band in [(1, 8), (2, 3)]:
        f = random_scalar_field(rng, dim, band)
        F = invert_D(f)
        assert F.l2_coefficient_norm() <= sobolev_norm(f, -dim / 2.0) + 1e-12


def test_invert_D2_examples():
    g = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    assert abs(invert_D2(g).coeffs[(1,)].p0() + 0.5j) < 1e-15
    g2 = SpectralField(1, 2, {(-1,): 1.0}, zero_mean=True)
    assert abs(invert_D2(g2).coeffs[(-1,)].p0() - 0.5j) < 1e-15


@pytest.mark.parametrize("dim,band", [(1, 8), (2, 4), (3, 2)])
def test_invert_D2_round_trip(dim, band):
    rng = np.random.default_rng(7 + dim)
    g = random_scalar_field(rng, dim, band)
    residual = field_error(dirac_D(dirac_D(invert_D2(g))), g)
    assert residual < 1e-10


def test_invert_D2_clifford_valued_round_trip():
    rng = np.random.default_rng(11)
    g = random_clifford_field(rng, 2, 3)
    assert field_error(dirac_D(dirac_D(invert_D2(g))), g) < 1e-10


def test_inverses_reject_nonzero_mean():
    f = SpectralField(1, 2, {(0,): 1.0, (1,): 1.0})
    with pytest.raises(InputError):
        invert_D(f)
    with pytest.raises(InputError):
        invert_D2(f)


def test_multipliers_annihilate_mean():
    u = SpectralField(2, 2, {(0, 0): 4.0, (1, 0): 1.0})
    for out in (dirac_D(u), dirac_Dbar(u), riesz(u, 1), fractional_laplacian(u, 0.5)):
        assert (0, 0) not in out.coeffs
