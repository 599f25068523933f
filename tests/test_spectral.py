import math

import numpy as np
import pytest

from fracbb.clifford import CliffordElement
from fracbb.errors import AliasingError, InputError
from fracbb.spectral import (
    GridField,
    SpectralField,
    band_indices,
    convolve,
    forward_transform,
    grid_coordinates,
    inverse_transform,
    project_zero_mean,
)
from fracbb.norms import l2_norm

from oracles import brute_convolution, quadrature_coefficient

TWO_PI = 2.0 * math.pi


def random_scalar_field(rng, dim, band, zero_mean=False):
    coeffs = {}
    for m in band_indices(dim, band):
        if zero_mean and not any(m):
            continue
        coeffs[m] = complex(rng.normal(), rng.normal())
    return SpectralField(dim, band, coeffs, zero_mean=zero_mean)


def max_coeff_error(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return max(((a.get(m) - b.get(m)).norm() for m in keys), default=0.0)


def test_forward_single_mode():
    grid = GridField.sample_scalar(lambda x: np.exp(1j * x), 1, 8)
    hat = forward_transform(grid, 3)
    assert abs(hat.get(1).p0() - 1.0) < 1e-12
    for n in range(-3, 4):
        if n != 1:
            assert hat.get(n).norm() < 1e-12


def test_forward_constant():
    grid = GridField.sample_scalar(lambda x: np.ones_like(x), 1, 8)
    hat = forward_transform(grid, 2)
    assert abs(hat.get(0).p0() - 1.0) < 1e-14
    assert hat.get(1).norm() < 1e-14


def test_forward_cosine_torus_vs_quadrature_oracle():
    grid = GridField.sample_scalar(lambda x, y: np.cos(2 * x), 2, 16)
    hat = forward_transform(grid, 4)
    assert abs(hat.get((2, 0)).p0() - 0.5) < 1e-12
    assert abs(hat.get((-2, 0)).p0() - 0.5) < 1e-12
    values = grid.scalar_values()
    for m in [(2, 0), (-2, 0), (1, 1), (0, 0)]:
        oracle = quadrature_coefficient(values, m)
        assert abs(hat.get(m).p0() - oracle) < 1e-12


def test_inverse_single_mode_and_empty():
    field = SpectralField(1, 3, {(1,): 1.0})
    grid = inverse_transform(field, 8)
    x = grid_coordinates(1, 8)[0]
    assert np.allclose(grid.scalar_values(), np.exp(1j * x), atol=1e-12)
    empty = SpectralField(1, 3, {})
    assert not np.any(inverse_transform(empty, 8).scalar_values())


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
    lhs = inverse_transform(f.scale(lam) + g, 16).scalar_values()
    rhs = lam * inverse_transform(f, 16).scalar_values() + inverse_transform(g, 16).scalar_values()
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_convolve_single_modes():
    f = SpectralField(1, 2, {(1,): 1.0})
    out = convolve(f, f)
    assert abs(out.get(1).p0() - TWO_PI) < 1e-12
    zero = convolve(f, SpectralField(1, 2, {}))
    assert not zero.coeffs
    f2 = SpectralField(2, 2, {(1, 0): 1.0})
    out2 = convolve(f2, f2)
    assert abs(out2.get((1, 0)).p0() - TWO_PI**2) < 1e-10


def test_convolve_matches_grid_quadrature_oracle():
    rng = np.random.default_rng(12)
    f = random_scalar_field(rng, 1, 3)
    g = random_scalar_field(rng, 1, 3)
    pointwise = brute_convolution(
        inverse_transform(f, 24).scalar_values(), inverse_transform(g, 24).scalar_values()
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
    e1 = CliffordElement.basis_vector(2, 1)
    e2 = CliffordElement.basis_vector(2, 2)
    f = SpectralField(2, 1, {(1, 0): e1})
    g = SpectralField(2, 1, {(1, 0): e2})
    fg = convolve(f, g).get((1, 0))
    gf = convolve(g, f).get((1, 0))
    assert (fg + gf).is_zero(1e-12)
    assert not (fg - gf).is_zero(1e-12)


def test_project_zero_mean():
    f = SpectralField(1, 2, {(0,): 5.0, (1,): 2.0})
    out = project_zero_mean(f)
    assert out.zero_mean
    assert out.get(0).is_zero()
    assert abs(out.get(1).p0() - 2.0) < 1e-15
    zero = project_zero_mean(SpectralField(1, 2, {}))
    assert not zero.coeffs


def test_projected_field_has_zero_grid_mean():
    rng = np.random.default_rng(5)
    f = random_scalar_field(rng, 2, 3)
    projected = project_zero_mean(f)
    values = inverse_transform(projected, 12).scalar_values()
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
    grid = GridField.sample_scalar(lambda x: np.exp(1j * x), 1, 8)
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
    value = f.get((1, 0))
    assert value.p0() == 2.5
    assert f.is_scalar()


def test_zero_mean_flag_survives_addition():
    a = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    b = SpectralField(1, 2, {(-1,): 2.0, (2,): 1j}, zero_mean=True)
    assert (a + b).zero_mean
    assert (a - b).zero_mean
    assert not (a + SpectralField(1, 2, {(0,): 1.0})).zero_mean
    assert not (a - SpectralField(1, 2, {(1,): 1.0})).zero_mean


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
        return SpectralField(1, 2, coeffs).get((1,)).p0()

    assert value_at_one({(1,): 2.0, (1.5,): 3.0}) == 3.0
    assert value_at_one({(1.5,): 3.0, (1,): 2.0}) == 2.0
    assert value_at_one({1: 3.0, (np.int64(1),): 2.0}) == 2.0
    assert value_at_one({(1,): 2.0, (1.5,): 0.0}) == 2.0  # a zero does not overwrite
    assert value_at_one({(1.5,): 0.0, (1,): 2.0}) == 2.0
    element = CliffordElement(1, {1: 4.0})
    assert SpectralField(1, 2, {(1,): element, 1: 5.0}).get((1,)) == CliffordElement(1, {0: 5.0})
    assert SpectralField(1, 2, {1: 5.0, (1,): element}).get((1,)) == element
