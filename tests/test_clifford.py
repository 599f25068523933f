import math

import numpy as np
import pytest

from fracbb.clifford import (
    CliffordElement,
    _blade_product,
    _scaled_norm,
    mask_to_subset,
    multiply,
    subset_to_mask,
)
from fracbb.errors import InputError

from oracles import blade_sign_bubble


def random_element(rng, n, density=None):
    dim = 1 << n
    count = dim if density is None else min(density, dim)
    masks = rng.choice(dim, size=count, replace=False)
    comps = {int(m): complex(rng.normal(), rng.normal()) for m in masks}
    x = CliffordElement(n, comps)
    nrm = x.norm()
    return x.scale(1.0 / nrm) if nrm > 0 else x


def test_anticommutation_generators():
    e1 = CliffordElement(2, {0b01: 1.0})
    e2 = CliffordElement(2, {0b10: 1.0})
    assert (e1 * e2 + e2 * e1).is_zero()
    assert (e1 * e1 - CliffordElement.scalar(2, 1.0)).is_zero()


def test_bivector_squares_to_minus_one():
    e1 = CliffordElement(2, {0b01: 1.0})
    e2 = CliffordElement(2, {0b10: 1.0})
    e12 = e1 * e2
    assert (e12 * e12 + CliffordElement.scalar(2, 1.0)).is_zero()


def test_conjugate_examples():
    e1 = CliffordElement(2, {0b01: 1.0})
    assert e1.conjugate() == e1
    i_unit = CliffordElement.scalar(1, 1j)
    assert i_unit.conjugate() == CliffordElement.scalar(1, -1j)
    e2 = CliffordElement(2, {0b10: 1.0})
    e12 = e1 * e2
    assert e12.conjugate() == -e12  # reversal sign for grade 2


def test_p0_examples():
    x = CliffordElement(2, {0: 3.0, 1: 2.0})
    assert x.p0() == 3.0
    y = CliffordElement(2, {0: 1.0, 1: 1.0})  # 1 + e1
    assert (y.conjugate() * y).p0() == pytest.approx(2.0)
    e12 = CliffordElement(2, {0b11: 1.0})
    assert e12.p0() == 0j


def test_complex_vectors_can_be_nilpotent():
    # (e1 + i*e2)**2 == 0: a nonzero complex vector need not be invertible,
    # unlike a real one, which squares to |v|**2 (test_grade_one_square_is_norm_squared).
    v = CliffordElement(2, {0b01: 1.0, 0b10: 1j})
    assert (v * v).is_zero(1e-15)


def test_blade_sign_matches_bubble_sort_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        dim = 1 << n
        for _ in range(200):
            a = int(rng.integers(dim))
            b = int(rng.integers(dim))
            sign, blade = _blade_product(a, b)
            o_sign, o_subset = blade_sign_bubble(mask_to_subset(a), mask_to_subset(b))
            assert sign == o_sign
            assert blade == subset_to_mask(o_subset, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_associativity_random(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        x, y, z = (random_element(rng, n) for _ in range(3))
        left = multiply(multiply(x, y), z)
        right = multiply(x, multiply(y, z))
        assert (left - right).norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conjugation_antihomomorphism(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(60):
        x, y = random_element(rng, n), random_element(rng, n)
        assert ((x * y).conjugate() - y.conjugate() * x.conjugate()).norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_p0_conj_product_is_norm_squared(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(100):
        x = random_element(rng, n)
        value = (x.conjugate() * x).p0()
        assert abs(value - x.norm() ** 2) < 1e-12
        assert abs(value.imag) < 1e-12


def test_grade_one_square_is_norm_squared():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        v = rng.normal(size=n)
        el = CliffordElement(n, {1 << j: v[j] for j in range(n)})
        sq = el * el
        assert (sq - CliffordElement.scalar(n, float(v @ v))).norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_submultiplicative_up_to_dimension_constant(n):
    rng = np.random.default_rng(400 + n)
    bound = 2 ** (n / 2.0)
    worst = 0.0
    for _ in range(200):
        x, y = random_element(rng, n), random_element(rng, n)
        denom = x.norm() * y.norm()
        if denom > 0:
            worst = max(worst, (x * y).norm() / denom)
    assert worst <= bound + 1e-9


def test_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(9)
    n = 5
    x = random_element(rng, n)  # dense
    y = random_element(rng, n, density=3)  # sparse
    full = multiply(x, y)
    manual = CliffordElement.zero(n)
    for mask, value in y.comps.items():
        manual = manual + multiply(x, CliffordElement(n, {mask: value}))
    assert (full - manual).norm() < 1e-12


def test_generator_count_validation():
    with pytest.raises(InputError):
        CliffordElement(9, {0: 1.0})
    with pytest.raises(InputError):
        CliffordElement(2, {4: 1.0})  # mask needs 3 generators
    x = CliffordElement.scalar(2, 1.0)
    y = CliffordElement.scalar(3, 1.0)
    with pytest.raises(InputError):
        multiply(x, y)


def test_basis_conjugate_times_self_is_one():
    for n in range(1, 6):
        for mask in range(1 << n):
            blade = CliffordElement(n, {mask: 1.0})
            prod = blade.conjugate() * blade
            assert (prod - CliffordElement.scalar(n, 1.0)).norm() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_falls_back_to_the_scaled_sum_where_a_square_overflows(n):
    rng = np.random.default_rng(50 + n)
    for count in range(1, (1 << n) + 1):
        parts = rng.normal(size=(count, 2)) * np.geomspace(1.0, 1e200, count)[:, None]
        parts[-1] = (1e200, -2e200)  # the last square always overflows
        comps = dict(zip(rng.permutation(1 << n).tolist(), (complex(*p) for p in parts.tolist())))
        element = CliffordElement(n, comps)
        values = list(element.comps.values())
        with pytest.raises(OverflowError):
            sum(abs(v) ** 2 for v in values)
        assert element.norm() == _scaled_norm(values)
        assert element.norm() == pytest.approx(
            2e200 * math.sqrt(sum(abs(v / 2e200) ** 2 for v in values)), rel=1e-15
        )


def test_norm_and_zero_test_of_parts_whose_squares_overflow_or_underflow():
    huge = CliffordElement(2, {0: 1e200, 3: -1e200j})
    assert huge.norm() == 1e200 * math.sqrt(2.0) and not huge.is_zero()
    assert (huge - huge).norm() <= 1e-12 and huge.is_zero(tol=1e201) and not huge.is_zero(tol=1e200)
    tiny = CliffordElement(1, {0: 1e-170})
    assert tiny.norm() == 0.0  # the square underflows
    assert not tiny.is_zero() and tiny.is_zero(tol=1e-300)
    assert CliffordElement.zero(3).is_zero() and CliffordElement(1, {1: 0.0}).is_zero()
