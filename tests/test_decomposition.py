import math

import numpy as np
import pytest

from fracbb.decomposition import solve_decomposition
from fracbb.errors import InputError
from fracbb.norms import sobolev_norm
from fracbb.operators import _symbol_table, fractional_laplacian, riesz
from fracbb.spectral import (
    SpectralField,
    _field_product,
    band_indices,
    freq_norm,
    inverse_transform,
    mode_matrix,
)


def random_zero_mean(rng, dim, band):
    coeffs = {
        m: complex(rng.normal(), rng.normal())
        for m in band_indices(dim, band)
        if any(m)
    }
    return SpectralField(dim, band, coeffs, zero_mean=True)


def test_single_mode_circle_by_hand():
    g = SpectralField(1, 4, {(1,): 1.0}, zero_mean=True)
    result = solve_decomposition(g, conjugated_riesz=True)
    assert result.parts[0].coeffs[(1,)].p0() == pytest.approx(0.5)
    assert result.parts[1].coeffs[(1,)].p0() == pytest.approx(0.5j)
    # substitute into the constraint row: 1*(1/2) + (-i)(i/2) = 1
    reconstructed = 1.0 * 0.5 + (-1j) * 0.5j
    assert reconstructed == pytest.approx(1.0)
    assert result.residual <= 1e-15


def test_single_mode_torus_by_hand():
    g = SpectralField(2, 3, {(1, 0): 1.0}, zero_mean=True)
    result = solve_decomposition(g)
    assert result.parts[0].coeffs[(1, 0)].p0() == pytest.approx(0.5)
    assert result.parts[1].coeffs[(1, 0)].p0() == pytest.approx(0.5j)
    assert (1, 0) not in result.parts[2].coeffs


def test_zero_field():
    g = SpectralField(1, 2, {}, zero_mean=True)
    result = solve_decomposition(g)
    assert all(not part.coeffs for part in result.parts)
    assert result.residual == 0.0
    assert result.bound_ratio == 0.0


@pytest.mark.parametrize("dim,band", [(1, 8), (2, 4)])
@pytest.mark.parametrize("conjugated", [True, False])
def test_reconstruction_exact(dim, band, conjugated):
    rng = np.random.default_rng(10 * dim + conjugated)
    g = random_zero_mean(rng, dim, band)
    result = solve_decomposition(g, conjugated_riesz=conjugated)
    assert result.residual <= 1e-10
    # rebuild by hand through the public operators
    total = fractional_laplacian(result.parts[0], dim / 4.0)
    for j in range(1, dim + 1):
        total = total + fractional_laplacian(
            riesz(result.parts[j], j, conjugated=conjugated), dim / 4.0
        )
    err = max((v.norm() for v in (total - g).coeffs.values()), default=0.0)
    assert err <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_ratio_closed_constant(dim):
    rng = np.random.default_rng(20 + dim)
    g = random_zero_mean(rng, dim, 3 if dim < 3 else 2)
    result = solve_decomposition(g)
    assert result.bound_ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert result.sum_ratio <= math.sqrt(dim + 1) / math.sqrt(2.0) + 1e-12


def test_sum_ratio_closed_form_for_diagonal_mode():
    # A diagonal frequency splits the Riesz mass equally over the n parts,
    # giving sum_ratio (1 + sqrt(n))/2 (the n-part Cauchy-Schwarz case).
    g = SpectralField(2, 2, {(1, 1): 1.0}, zero_mean=True)
    result = solve_decomposition(g)
    assert result.sum_ratio == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0, abs=1e-12)
    assert result.sum_ratio <= math.sqrt(3.0) / math.sqrt(2.0)


def test_per_frequency_minimality():
    rng = np.random.default_rng(3)
    dim = 2
    g = SpectralField(dim, 3, {(1, 2): 1.0 + 0.5j}, zero_mean=True)
    result = solve_decomposition(g)
    m = (1, 2)
    norm = freq_norm(m)
    row = np.array(
        [norm ** (dim / 2.0)]
        + [-1j * mj * norm ** (dim / 2.0 - 1.0) for mj in m]
    )
    x = np.array([result.parts[j].coeffs[m].p0() for j in range(dim + 1)])
    target = g.coeffs[m].p0()
    assert abs(row @ x - target) < 1e-12
    # any null-space perturbation does not shrink the norm
    for _ in range(200):
        null_vec = rng.normal(size=dim + 1) + 1j * rng.normal(size=dim + 1)
        null_vec -= (row.conj() @ null_vec) / (row.conj() @ row) * row
        assert np.linalg.norm(x + null_vec) >= np.linalg.norm(x) - 1e-12


def reference_decomposition(g, conjugated):
    """The solve written out with the public operators, one part at a time."""
    dim = g.dim
    half_inverse = _symbol_table(dim, g.band, "fraclap", -dim / 4.0).scale(0.5)
    f0 = _field_product(half_inverse, g)
    parts = (f0,) + tuple(riesz(f0, j, conjugated=not conjugated) for j in range(1, dim + 1))
    total = fractional_laplacian(parts[0], dim / 4.0)
    for j in range(1, dim + 1):
        total = total + fractional_laplacian(riesz(parts[j], j, conjugated=conjugated), dim / 4.0)
    sob = [sobolev_norm(part, dim / 2.0, homogeneous=True) for part in parts]
    sups = [float(inverse_transform(part).magnitude().max()) for part in parts]
    return parts, (total - g).l2_coefficient_norm(), sob, sups


@pytest.mark.parametrize("conjugated", [True, False])
@pytest.mark.parametrize(
    "dim,band", [(1, 1), (1, 16), (1, 40), (2, 1), (2, 6), (2, 33), (3, 1), (3, 3)]
)
def test_stacked_solve_matches_the_public_operators_bit_for_bit(dim, band, conjugated):
    # (1, 40) and (2, 33) synthesize on FFTs, the others on dense matrices.
    rng = np.random.default_rng(100 * dim + band)
    modes = mode_matrix(dim, band)
    for kind in ("random", "signed zeros", "first axis only", "wide range"):
        parts = rng.normal(size=(len(modes), 2))
        if kind == "signed zeros":
            parts[rng.random(parts.shape) < 0.4] = -0.0
            parts[rng.random(parts.shape) < 0.2] = 0.0
        elif kind == "first axis only":  # the other Riesz parts vanish
            parts[(modes[:, 1:] != 0).any(axis=1)] = 0.0
        elif kind == "wide range":
            parts *= 10.0 ** rng.uniform(-150, 150, size=(len(modes), 1))
        parts[len(modes) // 2] = 0.0
        g = SpectralField.from_blade_vectors(dim, band, (0,), parts.view(complex).T, True)
        result = solve_decomposition(g, conjugated_riesz=conjugated)
        want_parts, residual, sob, sups = reference_decomposition(g, conjugated)
        for got, want in zip(result.parts, want_parts, strict=True):
            assert got.masks == want.masks and got.zero_mean and not got.data.flags.writeable
            assert got.data.tobytes() == want.data.tobytes()
        assert result.residual.hex() == residual.hex()
        assert [v.hex() for v in result.sobolev_norms] == [v.hex() for v in sob]
        assert [v.hex() for v in result.sup_norms] == [v.hex() for v in sups]
        g_norm = g.l2_coefficient_norm()
        assert result.bound_ratio == math.sqrt(sum(v * v for v in sob)) / g_norm
        assert result.sum_ratio == sum(sob) / g_norm


def test_decomposition_that_overflows_is_an_input_error():
    g = SpectralField.from_blade_vectors(2, 1, (0,), [[0, 0, 1, 2, 0, 3, np.inf, 1, 1]], True)
    with np.errstate(invalid="ignore"), pytest.raises(
        InputError, match="fractional Laplacian with exponent 0.5 overflows"
    ):
        solve_decomposition(g)
    g = SpectralField(1, 2, {1: 1e300}, zero_mean=True)
    with np.errstate(over="ignore"), pytest.raises(
        InputError, match="Sobolev norm with exponent 0.5 overflows"
    ):
        solve_decomposition(g)


def test_sup_norms_reported_finite():
    rng = np.random.default_rng(4)
    g = random_zero_mean(rng, 2, 3)
    result = solve_decomposition(g)
    assert len(result.sup_norms) == 3
    assert all(math.isfinite(v) and v >= 0 for v in result.sup_norms)


def test_decomposition_input_validation():
    not_zero_mean = SpectralField(1, 2, {(0,): 1.0, (1,): 1.0})
    with pytest.raises(InputError):
        solve_decomposition(not_zero_mean)
    from fracbb.clifford import CliffordElement

    clifford_valued = SpectralField(
        2, 2, {(1, 0): CliffordElement(2, {1: 1.0})}, zero_mean=True
    )
    with pytest.raises(InputError):
        solve_decomposition(clifford_valued)

