import hashlib
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest

from fracbb import norms
from fracbb.errors import ConvergenceError, InputError
from fracbb.norms import (
    SumSpaceSplit,
    l1_norm,
    l2_norm,
    sobolev_norm,
    sum_space_norm,
    sum_space_norms,
)
from fracbb.spectral import (
    GridField,
    SpectralField,
    band_indices,
    default_points,
    forward_transform,
    inverse_transform,
    mode_matrix,
)

from frozen_values import SUBGRADIENT_VALUES
from regen_oracle_values import (
    independent_weights,
    instance_field,
    instance_weight_array,
    oracle_instances,
)

TWO_PI = 2.0 * math.pi


def scaled_weights(band, scale):
    """1-D ``H^{-1/2}`` weights times ``scale``: ``scale * |m|**-1/2``, 1 at the mean."""
    freq = np.abs(mode_matrix(1, band)[:, 0]).astype(float)
    return np.where(freq > 0, scale * np.maximum(freq, 1.0) ** -0.5, 1.0)


def random_zero_mean(rng, dim, band, decay=1.0):
    coeffs = {}
    for m in band_indices(dim, band):
        if any(m):
            norm = math.sqrt(sum(x * x for x in m))
            coeffs[m] = complex(rng.normal(), rng.normal()) * norm**-decay
    return SpectralField(dim, band, coeffs, zero_mean=True)


# -- plain norms ------------------------------------------------------------------


def test_sobolev_norm_examples():
    u = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    assert sobolev_norm(u, -0.5) == pytest.approx(1.0)
    v = SpectralField(1, 3, {(2,): 1.0}, zero_mean=True)
    assert sobolev_norm(v, -0.5) == pytest.approx(2.0**-0.5)
    w = SpectralField(1, 2, {(0,): 1.0})
    assert sobolev_norm(w, 0.0, homogeneous=False) == pytest.approx(1.0)


def test_sobolev_norm_homogeneous_negative_needs_zero_mean():
    u = SpectralField(1, 2, {(0,): 1.0, (1,): 1.0})
    with pytest.raises(InputError):
        sobolev_norm(u, -0.5)
    # nonnegative exponents ignore the mean instead
    assert sobolev_norm(u, 0.5) == pytest.approx(1.0)


def test_l1_l2_norm_examples():
    ones = GridField.sample_scalar(lambda x: np.ones_like(x), 1, 16)
    assert l1_norm(ones) == pytest.approx(TWO_PI)
    mode = GridField.sample_scalar(lambda x: np.exp(1j * x), 1, 16)
    assert l1_norm(mode) == pytest.approx(TWO_PI)
    assert l2_norm(mode) == pytest.approx(math.sqrt(TWO_PI))


def test_l2_quadrature_matches_parseval():
    rng = np.random.default_rng(0)
    f = random_zero_mean(rng, 1, 6)
    grid = inverse_transform(f, 32)
    assert l2_norm(grid) == pytest.approx(
        math.sqrt(TWO_PI) * f.l2_coefficient_norm(), abs=1e-10
    )


# -- the sum-space optimizer -----------------------------------------------------


def test_zero_field_short_circuit():
    split = sum_space_norm(SpectralField(1, 4, {}, zero_mean=True))
    assert split.value == 0.0 and split.gap == 0.0 and split.iterations == 0


def test_feasibility_bounds():
    rng = np.random.default_rng(1)
    for dim, band in [(1, 8), (2, 4)]:
        f = random_zero_mean(rng, dim, band)
        tol = 1e-7
        split = sum_space_norm(f, tol=tol)
        assert split.value <= sobolev_norm(f, -dim / 2.0) + tol
        assert split.value <= l1_norm(inverse_transform(f)) + tol
        assert split.gap >= 0.0
        assert split.gap <= tol


def test_split_reconstructs_field():
    rng = np.random.default_rng(2)
    f = random_zero_mean(rng, 1, 6)
    split = sum_space_norm(f, tol=1e-8)
    g_hat = forward_transform(split.g, f.band)
    err = max(
        ((g_hat.get(m) + split.h.get(m)) - f.get(m)).norm()
        for m in band_indices(1, 6)
    )
    assert err < 1e-9
    # reported value is the cost of the returned split
    recomputed = l1_norm(split.g) + sobolev_norm(split.h, -0.5)
    assert split.value == pytest.approx(recomputed, abs=1e-12)


def test_three_mode_field_matches_inline_subgradient_oracle():
    # Small enough to run the independent oracle inside the test.
    from oracles import sum_space_subgradient
    from fracbb.spectral import mode_matrix

    f = SpectralField(1, 3, {(1,): 1.0, (2,): 0.5j, (-3,): 0.3}, zero_mean=True)
    masks, fvec = f.blade_vectors()
    mm = mode_matrix(1, 3)
    norms_ = np.abs(mm[:, 0]).astype(float)
    weight = np.where(norms_ > 0, np.maximum(norms_, 1.0) ** -0.5, 1.0)
    oracle = sum_space_subgradient(
        fvec[0], mm, weight, norms_ > 0, 12, 50_000
    )
    split = sum_space_norm(f, s=-0.5, homogeneous=True, tol=1e-8, points_per_axis=12)
    assert split.value == pytest.approx(oracle, abs=1e-4)


@lru_cache(maxsize=None)
def solved_oracle_instance(name: str) -> SumSpaceSplit:
    """The frozen oracle instance ``name`` solved at tol 1e-8, once per session."""
    inst = next(inst for inst in oracle_instances() if inst["name"] == name)
    return sum_space_norm(
        instance_field(inst),
        s=inst["s"],
        homogeneous=inst["homogeneous"],
        tol=1e-8,
        weights=instance_weight_array(inst),
        points_per_axis=inst["points"],
    )


def test_matches_frozen_subgradient_oracle():
    for inst in oracle_instances():
        split = solved_oracle_instance(inst["name"])
        assert split.value == pytest.approx(
            SUBGRADIENT_VALUES[inst["name"]], abs=1e-4
        ), inst["name"]


def test_mixed_instances_have_integrable_mass():
    mixed = [inst for inst in oracle_instances() if inst["name"].startswith("mixed")]
    assert len(mixed) == 3
    for inst in mixed:
        split = solved_oracle_instance(inst["name"])
        assert l1_norm(split.g) > 1.0


def test_sobolev_only_splits_certify_in_closed_form():
    from fracbb.disk import hminus_half_boundary_norm, mixed_boundary_norm, random_series
    from fracbb.experiments import ExperimentConfig, random_field
    from fracbb.operators import fractional_laplacian

    tol = 1e-6
    # A verify-bb sample: a normalized random field under (-Lap)^{1/4}.
    u = random_field(ExperimentConfig(dim=1, band=32, seed=3))
    v = fractional_laplacian(u.scale(1.0 / u.l2_coefficient_norm()), 0.25)
    split = sum_space_norm(v, s=-0.5, tol=tol)
    cases = [(split, sobolev_norm(v, -0.5))]
    # A disk trace next to the boundary, against the closed-form boundary norm.
    series = random_series(16, 1.0, np.random.default_rng(9))
    cases.append((mixed_boundary_norm(series, 0.9999, tol=tol),
                  hminus_half_boundary_norm(series, 0.9999)))
    # The frozen torus instance, against weights built independently.
    inst = next(i for i in oracle_instances() if i["name"] == "torus_hom")
    f = instance_field(inst)
    split = sum_space_norm(f, s=inst["s"], tol=tol, points_per_axis=inst["points"])
    weight, _ = independent_weights(mode_matrix(2, inst["band"]), inst["s"], True)
    sobolev = math.sqrt(float((weight**2 * np.abs(f.data[0]) ** 2).sum()))
    cases.append((split, sobolev))
    for split, sobolev in cases:
        assert split.iterations == 0
        assert 0.0 <= split.gap <= tol
        assert split.value == pytest.approx(sobolev, rel=1e-12)
        assert l1_norm(split.g) == 0.0


def test_mixed_instances_iterate_and_match_oracle():
    for inst in oracle_instances():
        if not inst["name"].startswith("mixed"):
            continue
        split = solved_oracle_instance(inst["name"])
        assert split.iterations > 0, inst["name"]
        assert 0.0 <= split.gap <= 1e-8
        assert split.value == pytest.approx(SUBGRADIENT_VALUES[inst["name"]], abs=1e-4)


def test_mixed_instance_iteration_counts_are_pinned():
    # A cheaper iteration must not cost iterations: at tol 1e-6 these ceilings
    # are loose bounds on the 8-9 Newton steps the solves take.
    ceilings = {"mixed_flat_8": 13_550, "mixed_jitter_8": 21_800, "mixed_flat_10": 23_550}
    for inst in oracle_instances():
        if inst["name"] not in ceilings:
            continue
        split = sum_space_norm(
            instance_field(inst),
            s=inst["s"],
            homogeneous=inst["homogeneous"],
            tol=1e-6,
            weights=instance_weight_array(inst),
            points_per_axis=inst["points"],
        )
        assert 0 < split.iterations <= ceilings[inst["name"]], inst["name"]


def test_mixed_instance_newton_step_counts_are_pinned():
    # The interior-point method's exact counts at tol 1e-6: a cheaper Newton
    # step must take the same steps.
    counts = {"mixed_flat_8": 8, "mixed_jitter_8": 9, "mixed_flat_10": 9}
    for inst in oracle_instances():
        if inst["name"] not in counts:
            continue
        split = sum_space_norm(
            instance_field(inst),
            s=inst["s"],
            homogeneous=inst["homogeneous"],
            tol=1e-6,
            weights=instance_weight_array(inst),
            points_per_axis=inst["points"],
        )
        assert split.path == "interior-point", inst["name"]
        assert split.iterations == counts[inst["name"]], inst["name"]


#: ``(value.hex(), gap.hex(), iterations, sha256(g.data), sha256(h.data))`` of
#: each dense-path input at tol 1e-6, recorded with one BLAS thread.
DENSE_PATH_PINS = {
    "mixed_flat_8": (
        "0x1.630b5238c153ap+3", "0x1.a508ae6000000p-22", 8,
        "e3eaf8fecc451a3faa15b1b7b8b7ad85881101c953ae17fa6dd2633dc967ae9b",
        "62c4cf6c3e9206a6539828395404b60da207d7c1c7d1a880495e3f11e934b59e",
    ),
    "mixed_jitter_8": (
        "0x1.73f0c9be861e6p+3", "0x1.2cfae30000000p-24", 9,
        "18c391e2779bf9601a9995b02cab22578a70e55273b91d6c672d37f706d92c05",
        "408ecd3c1dd8e6496d5cf1f4ebd3ac6a85c08722df035d965156f4d3345f89e4",
    ),
    "mixed_flat_10": (
        "0x1.6b695c41a7719p+3", "0x1.1a63de0000000p-25", 9,
        "61b14a79a2675a21809e846dbde5ecfe2cfaa69abf4b763178be7ccb1080b0a6",
        "268f90b64a55c5c5c6e183e9885d5619e4d7e7ff61f0984928f91f32b1570322",
    ),
    "seeded": (
        "0x1.79e9a6d33deb5p+3", "0x1.d66ed4e000000p-21", 9,
        "9c7b97ef333d32c530b182bbdced8f91227ac44b3f4ef9cfc07a31c98e905fed",
        "3cd014fc91da30b66566bf379405d9070c12e445cda6be379a73ecb5e74d59d4",
    ),
    "two_blades": (
        "0x1.728162260fd10p+4", "0x1.7213c46000000p-21", 12,
        "3b855549586ca5c96ce77c6d524ec121e3e3a757056cf1193ed1af6f2404e7e4",
        "812345b0c6684454112d32a9ea03a522a39ebefb9a971d08d743e5f6a41c39d3",
    ),
    "ones_2d": (
        "0x1.0b7f30499d96ep+6", "0x1.74fba68000000p-21", 10,
        "664fa9e7a280a07f41895c6d0cd006e832960c683f79b6ff15532492c4d201d6",
        "0b3496abbfb6f7188d6734955ee948a3ac7beab18c2e8d42cadb18b250c6fa6f",
    ),
}


def _dense_path_cases():
    cases = {
        inst["name"]: (instance_field(inst), dict(s=inst["s"], homogeneous=inst["homogeneous"],
                                                  weights=instance_weight_array(inst),
                                                  points_per_axis=inst["points"]))
        for inst in oracle_instances()
        if inst["name"].startswith("mixed")
    }
    # The benchmark's seeded mixed-solve recipe: band 8, P 32, 5 |m|^-1/2.
    rng = np.random.default_rng([1, 2])
    coeffs = {(n,): 1.0 + 0.2 * rng.normal() for n in range(-8, 9) if n}
    cases["seeded"] = (SpectralField(1, 8, coeffs, zero_mean=True),
                       dict(s=-0.5, weights=scaled_weights(8, 5.0), points_per_axis=32))
    cases["two_blades"] = (two_blade_field(4),
                           dict(weights=scaled_weights(4, 5.5), points_per_axis=32))
    cases["ones_2d"] = _start_cases()["2-D"]
    return cases


@pytest.mark.parametrize("name", sorted(DENSE_PATH_PINS))
def test_dense_path_splits_keep_their_bytes(name):
    # Bytes, not floats: a sign of zero that moves in g or h shows here.
    f, kwargs = _dense_path_cases()[name]
    split = sum_space_norm(f, tol=1e-6, **kwargs)
    assert split.path == "interior-point"
    got = (split.value.hex(), split.gap.hex(), split.iterations,
           hashlib.sha256(split.g.data.tobytes()).hexdigest(),
           hashlib.sha256(split.h.data.tobytes()).hexdigest())
    assert got == DENSE_PATH_PINS[name]


def all_ones(band):
    """The zero-mean 1-D field with every coefficient 1."""
    return SpectralField(1, band, {(n,): 1.0 for n in range(-band, band + 1) if n}, zero_mean=True)


def two_blade_field(band):
    """A seeded zero-mean 1-D field with scalar and vector parts at every mode."""
    from fracbb.clifford import CliffordElement

    rng = np.random.default_rng([77, 3])
    coeffs = {
        (n,): CliffordElement(
            1, {0: complex(*rng.normal(size=2)), 1: complex(*rng.normal(size=2))}
        )
        for n in range(-band, band + 1)
        if n
    }
    return SpectralField(1, band, coeffs, zero_mean=True)


def mixed_flat_8(**kwargs) -> SumSpaceSplit:
    """The frozen mixed_flat_8 instance: all-ones band 8, weights 5|m|^-1/2."""
    return sum_space_norm(all_ones(8), weights=scaled_weights(8, 5.0), **kwargs)


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_hard_mixed_inputs_certify_in_few_steps(tol):
    # Inputs on which a first-order method needed 13k-93k iterations or
    # stopped at a 100k cap: all-ones fields at positive exponents, an h = 0
    # optimum, a two-blade field whose count grew with the grid, a 2-D
    # all-ones field under weights 20 |m|^-1, and the frozen mixed instances.
    # At 1e-12 the Newton steps stall on roundoff and the polish certifies.
    cases = [
        (all_ones(16), dict(s=0.5)),
        (all_ones(24), dict(s=0.5)),
        (all_ones(32), dict(s=0.25)),
        (all_ones(32), dict(s=0.5)),
        (all_ones(64), dict(s=0.25)),
        (all_ones(4), dict(weights=scaled_weights(4, 6.0))),
        (all_ones(3), dict(weights=scaled_weights(3, 5.0))),
    ]
    cases += [
        (two_blade_field(4), dict(weights=scaled_weights(4, 5.5), points_per_axis=points))
        for points in (16, 32, 64, 128, 256)
    ]
    mm = mode_matrix(2, 3)
    norm = np.sqrt((mm**2).sum(axis=1))
    ones_2d = SpectralField(2, 3, {tuple(m): 1.0 for m in mm if any(m)}, zero_mean=True)
    cases.append((ones_2d, dict(weights=np.where(norm > 0, 20.0 / np.maximum(norm, 1.0), 1.0))))
    cases += [
        (instance_field(inst), dict(s=inst["s"], homogeneous=inst["homogeneous"],
                                    weights=instance_weight_array(inst),
                                    points_per_axis=inst["points"]))
        for inst in oracle_instances()
        if inst["name"].startswith("mixed")
    ]
    for f, kwargs in cases:
        split = sum_space_norm(f, tol=tol, **kwargs)
        assert split.path == "interior-point", (f.band, kwargs)
        assert 0.0 <= split.gap <= tol, (f.band, kwargs)
        assert 0 < split.iterations <= 30, (f.band, kwargs)


def test_nonconvergence_carries_the_best_certificate_seen():
    # Below the reach of roundoff the interior-point steps stall after 14
    # steps and the polish takes 8 + 8 more; caps on both sides are reached
    # exactly, and a larger cap never reports a worse split.
    gaps = []
    for cap in (10, 14, 20, 25, 29):
        with pytest.raises(ConvergenceError) as err:
            mixed_flat_8(tol=1e-15, max_iterations=cap)
        assert err.value.partial.iterations == cap
        gaps.append(err.value.partial.gap)
    # Without a cap the steps stop by themselves.
    with pytest.raises(ConvergenceError) as err:
        mixed_flat_8(tol=1e-15)
    assert err.value.partial.iterations == 30
    gaps.append(err.value.partial.gap)
    assert all(0.0 < later <= earlier for earlier, later in zip(gaps, gaps[1:])), gaps


def test_closed_form_path_is_named():
    # With the genuine weights the pure-Sobolev split is optimal.
    split = sum_space_norm(all_ones(8))
    assert split.path == "closed-form" and split.iterations == 0
    assert sum_space_norm(SpectralField(1, 4, {}, zero_mean=True)).path == "closed-form"


def test_interior_point_path_is_named():
    split = mixed_flat_8(tol=1e-6)
    assert split.path == "interior-point"
    assert 0 < split.iterations <= 50 and split.gap <= 1e-6


def test_interior_point_path_certifies_after_a_stall():
    # At 1e-12 the Newton steps stall on roundoff first; the polish on the
    # support of their best split certifies.
    split = mixed_flat_8(tol=1e-12)
    assert split.path == "interior-point"
    assert 12 <= split.iterations <= 30 and split.gap <= 1e-12


def test_conjugate_gradient_steps_above_the_dense_size(monkeypatch):
    # Past the dense size conjugate gradients solve the same Newton systems,
    # so the step count is the dense one; 34 unknowns is the instance's size.
    from fracbb import norms

    dense = mixed_flat_8(tol=1e-6)
    monkeypatch.setattr(norms, "_DENSE_NEWTON_MAX_UNKNOWNS", 33)
    with monkeypatch.context() as m:
        m.setattr(norms, "_newton_matrix", None)  # never built above the dense size
        split = mixed_flat_8(tol=1e-6)
    assert split.path == "interior-point" and split.iterations == dense.iterations == 8
    assert split.value == pytest.approx(SUBGRADIENT_VALUES["mixed_flat_8"], abs=1e-4)
    assert split.value == pytest.approx(dense.value, abs=1e-10)
    monkeypatch.setattr(norms, "_DENSE_NEWTON_MAX_UNKNOWNS", 34)
    again = mixed_flat_8(tol=1e-6)
    assert (again.value.hex(), again.gap.hex(), again.iterations) == (
        dense.value.hex(), dense.gap.hex(), dense.iterations)
    assert np.array_equal(again.g.data, dense.g.data) and np.array_equal(again.h.data, dense.h.data)


def _flat_point_mass(band):
    """The flat point mass at ``x0 = 0``, mean included: every coefficient 1."""
    return SpectralField.from_blade_vectors(1, band, (0,), np.ones((1, 2 * band + 1)))


@pytest.mark.parametrize("dim, band", [(1, 3), (2, 2), (3, 1)])
@pytest.mark.parametrize("blades", [1, 2])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_newton_matrix_at_the_identity_scaling_is_the_closed_form_diagonal(
    dim, band, blades, homogeneous
):
    # The interior-point start divides by diag(G^T G) = 1 / (w**2 P**n) +
    # W**-2 on the active modes, which is all of G^T G on any grid of at
    # least 2N + 1 points per axis.
    from fracbb.norms import _newton_matrix, _NTScaling, _stacked, _sum_space_cones, _weights_for

    rng = np.random.default_rng([dim, band, blades])
    modes = len(mode_matrix(dim, band))
    for points in (2 * band + 1, default_points(band)):
        cells, quad_w = points**dim, (TWO_PI / points) ** dim
        for weights in (None, rng.uniform(0.2, 5.0, modes)):
            h_mask, weight, _ = _weights_for(dim, band, -dim / 2.0, homogeneous, weights)
            cones = _sum_space_cones(blades, cells, int(h_mask.sum()))
            identity = (np.ones(cones.count), np.zeros(len(cones.ids)))
            build = _newton_matrix(dim, band, points, blades, weight, h_mask, quad_w)
            matrix = build(_NTScaling(cones, _stacked(identity, identity)))
            diagonal = 1.0 / (quad_w**2 * cells) + np.where(h_mask, weight**-2.0, 0.0)
            expected = np.diag(np.tile(np.repeat(diagonal, 2), blades))
            assert np.abs(matrix - expected).max() <= 1e-13 * diagonal.max(), (points, weights)


def _start_cases():
    mm = mode_matrix(2, 3)
    norm = np.sqrt((mm**2).sum(axis=1))
    ones_2d = SpectralField(2, 3, {tuple(m): 1.0 for m in mm if any(m)}, zero_mean=True)
    weights = 4.0 * (1.0 + np.abs(mode_matrix(1, 4)[:, 0])) ** -0.5
    return {
        "mixed_flat_8": (all_ones(8), dict(weights=scaled_weights(8, 5.0))),
        "two_blades": (two_blade_field(4), dict(weights=scaled_weights(4, 5.5), points_per_axis=16)),
        "inhomogeneous": (_flat_point_mass(4), dict(homogeneous=False, weights=weights)),
        "2-D": (ones_2d, dict(weights=np.where(norm > 0, 20.0 / np.maximum(norm, 1.0), 1.0))),
    }


@pytest.mark.parametrize("case", ["mixed_flat_8", "two_blades", "inhomogeneous", "2-D"])
def test_interior_point_starts_on_both_equality_constraints(monkeypatch, case):
    # p = 0 and s = (1, 0) solve G p + s = (1, 0); the start's multiplier z
    # solves G^T z = -f and lies strictly inside every cone.
    from fracbb import norms

    starts = []

    class Recording(norms._NTScaling):
        def __init__(self, cones, sz, lorentz=None):
            starts.append((cones, *cones.halves(sz)))
            super().__init__(cones, sz, lorentz)

    monkeypatch.setattr(norms, "_NTScaling", Recording)
    f, kwargs = _start_cases()[case]
    split = sum_space_norm(f, tol=1e-6, **kwargs)
    assert split.path == "interior-point" and 0.0 <= split.gap <= 1e-6
    cones, s, z = starts[0]
    assert np.array_equal(s[0], np.ones(cones.count)) and not s[1].any()
    assert np.all(z[0] > np.sqrt(cones.dot(z[1], z[1])))
    # G^T z + f from an explicit quadrature matrix, not the solver's transforms.
    blades, dim = len(f.masks), f.dim
    points = kwargs.get("points_per_axis", default_points(f.band))
    cells, quad_w = points**dim, (TWO_PI / points) ** dim
    mm = mode_matrix(dim, f.band)
    h_mask, weight, _ = norms._weights_for(
        dim, f.band, -dim / 2.0, kwargs.get("homogeneous", True), kwargs["weights"]
    )
    grid = np.array(np.unravel_index(np.arange(cells), (points,) * dim))
    analysis = np.exp(-2j * math.pi * ((mm @ grid) % points) / points) / cells
    u = z[1].view(complex)
    g_part, sobolev_part = u[: blades * cells], u[blades * cells :]
    r_x = f.data - (g_part.reshape(blades, cells) @ analysis.T) / quad_w
    r_x[:, h_mask] -= sobolev_part.reshape(blades, -1) / weight[h_mask]
    assert np.abs(r_x).max() <= 1e-12 * np.abs(f.data).max()


@pytest.mark.parametrize("scale", [1e-6, 1e100, 1e150])
def test_far_scaled_fields_iterate_from_a_start_inside_the_cones(scale):
    # |z_u| of the start scales with f; far beyond 1 / eps a margin of
    # 1 + |z_u| rounds onto the cone boundary, a relative one does not.
    tol = 1e-6 * scale
    split = sum_space_norm(all_ones(8).scale(scale), tol=tol, weights=scaled_weights(8, 5.0))
    assert split.path == "interior-point" and split.iterations > 0
    assert 0.0 <= split.gap <= tol
    assert split.value == pytest.approx(scale * SUBGRADIENT_VALUES["mixed_flat_8"], rel=1e-5)


@pytest.mark.parametrize("c, band", [(3.0, b) for b in range(1, 7)] + [(4.0, 1)])
def test_weights_below_the_threshold_certify_in_closed_form(c, band):
    # Under ||W||_2 <= 2 pi every field certifies in closed form, the flat
    # point mass, which attains the bound, included.
    weights = c * (1.0 + np.abs(mode_matrix(1, band)[:, 0])) ** -0.5
    split = sum_space_norm(_flat_point_mass(band), homogeneous=False, weights=weights, tol=1e-12)
    assert (split.path, split.iterations) == ("closed-form", 0)
    assert split.value == pytest.approx(math.sqrt((weights**2).sum()), rel=1e-12)


@pytest.mark.parametrize("band", range(2, 7))
def test_flat_point_mass_above_the_threshold_iterates_below_its_sobolev_norm(band):
    weights = 4.0 * (1.0 + np.abs(mode_matrix(1, band)[:, 0])) ** -0.5
    split = sum_space_norm(_flat_point_mass(band), homogeneous=False, weights=weights, tol=1e-12)
    assert split.path == "interior-point" and 0 < split.iterations <= 20
    assert 0.0 <= split.gap <= 1e-12
    ratio = split.value / math.sqrt((weights**2).sum())
    assert ratio < 1.0
    if band == 2:
        assert ratio == pytest.approx(0.961912, abs=5e-7)


def test_solve_above_the_old_size_cap(monkeypatch):
    # The 2-D all-ones field at band 12 has 1,250 real dual unknowns.
    from fracbb import norms

    monkeypatch.setattr(norms, "_newton_matrix", None)  # never built above the dense size
    mm = mode_matrix(2, 12)
    ones_2d = SpectralField(2, 12, {tuple(m): 1.0 for m in mm if any(m)}, zero_mean=True)
    split = sum_space_norm(ones_2d, s=0.5)
    assert 2 * ones_2d.data.size == 1250
    assert split.path == "interior-point" and 0 < split.iterations <= 30
    assert 0.0 <= split.gap <= 1e-6
    assert split.value < sobolev_norm(ones_2d, 0.5)


def test_cone_algebra_of_the_interior_point_method():
    from fracbb.norms import _LorentzCones, _moved, _NTScaling, _stacked

    rng = np.random.default_rng(11)
    ids = np.repeat(np.arange(4), [1, 2, 3, 5])
    cones = _LorentzCones(ids, 4)

    def interior():
        u = rng.normal(size=len(ids))
        return np.sqrt(cones.dot(u, u)) + rng.uniform(0.1, 2.0, 4), u

    s, z, x = interior(), interior(), interior()
    scaling = _NTScaling(cones, _stacked(s, z))
    # W z = W^-1 s = lam, and W undoes W^-1.
    for got, want in ((scaling.apply(z), scaling.lam), (scaling.inverse(s), scaling.lam),
                      (scaling.apply(scaling.inverse(x)), x)):
        assert np.allclose(got[0], want[0], atol=1e-12) and np.allclose(got[1], want[1], atol=1e-12)
    # On a stacked pair, W^-1 takes the first half and W the second, with the bits of each.
    both = cones.halves(scaling.apply(_stacked(x, s), None))
    for got, want in zip(both, (scaling.inverse(x), scaling.apply(s))):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # divide inverts the Jordan product with lam.
    t, u = cones.product(scaling.lam, scaling.divide(x))
    assert np.allclose(t, x[0]) and np.allclose(u, x[1])
    # The largest step of x ends on the boundary of one cone; a zero step
    # of the second point leaves it inside.
    d = (rng.normal(size=4), rng.normal(size=len(ids)))
    zero = (np.zeros(4), np.zeros(len(ids)))
    alpha = _NTScaling(cones, _stacked(x, z)).max_step(_stacked(d, zero))
    assert math.isfinite(alpha)
    edge = cones.lorentz(_moved(x, alpha, d))
    assert edge.min() == pytest.approx(0.0, abs=1e-9) and np.all(edge >= -1e-9)
    assert np.all(cones.lorentz(_moved(x, 0.99 * alpha, d)) > 0)


def _max_step_of_one_point(cones, x, d):
    """Largest ``alpha`` keeping ``x + alpha d`` in the cones, computed for ``x`` alone."""
    n = np.sqrt(cones.lorentz(x))
    xt, xu = x[0] / n, x[1] / n[cones.ids]
    c = xt * d[0] - cones.dot(xu, d[1])
    rho_u = (d[1] - ((c + d[0]) / (xt + 1.0))[cones.ids] * xu) / n[cones.ids]
    excess = float((np.sqrt(cones.dot(rho_u, rho_u)) - c / n).max())
    return 1.0 / excess if excess > 0 else math.inf


def test_stacked_step_length_is_the_smaller_of_the_two():
    # One maximum over both points' cones gives min(alpha_s, alpha_z) with
    # its bits, also where one or both points have no boundary ahead.
    from fracbb.norms import _NTScaling, _stacked, _sum_space_cones

    rng = np.random.default_rng(19)
    cones = _sum_space_cones(2, 12, 5)

    def interior():
        u = rng.normal(size=len(cones.ids))
        return np.sqrt(cones.dot(u, u)) + rng.uniform(0.1, 2.0, cones.count), u

    kinds = set()
    for _ in range(40):
        s, z = interior(), interior()
        scaling = _NTScaling(cones, _stacked(s, z))
        ahead = (rng.normal(size=cones.count), rng.normal(size=len(cones.ids)))
        behind = (rng.normal(size=cones.count), rng.normal(size=len(cones.ids)))
        # A step along the point itself never leaves the cones.
        for ds, dz in ((ahead, behind), (s, behind), (ahead, z), (s, z)):
            want = min(_max_step_of_one_point(cones, s, ds), _max_step_of_one_point(cones, z, dz))
            got = scaling.max_step(_stacked(ds, dz))
            assert got.hex() == want.hex()
            kinds.add(math.isinf(want))
    assert kinds == {True, False}


def test_a_nan_direction_ends_the_newton_steps(monkeypatch):
    # A NaN direction has no finite step length: the maximum of its cones'
    # excesses is NaN, so the step length is infinite, alpha is 1, and the
    # finiteness check is what ends the Newton steps before a NaN point.
    from fracbb.norms import _stacked

    scalings, points = [], []

    class Poisoned(norms._NTScaling):
        def __init__(self, *args):
            super().__init__(*args)
            scalings.append(self)

        def inverse_squared(self, u):
            t, v = super().inverse_squared(u)
            return (t, v * np.nan) if len(scalings) == 3 else (t, v)

    newton = norms._interior_point

    def recorded(*args):
        for point in newton(*args):
            points.append(point)
            yield point

    monkeypatch.setattr(norms, "_NTScaling", Poisoned)
    monkeypatch.setattr(norms, "_interior_point", recorded)
    try:
        mixed_flat_8(tol=1e-6)
    except ConvergenceError:
        pass
    assert len(scalings) == 3 and len(points) == 2
    assert all(np.isfinite(a).all() for point in points for a in point)
    last = scalings[-1]
    nan = (np.full(last.cones.count, np.nan), np.full(len(last.cones.ids), np.nan))
    assert last.max_step(_stacked(nan, nan)) == math.inf


def _index_block_newton_matrix(dim, band, points, blades, weight, h_mask, quad_w, scaling):
    """:func:`norms._newton_matrix` with its Sobolev block added through ``np.ix_``."""
    from fracbb.norms import _coupling, _newton_gathers

    cells = points**dim
    shape = (2 * blades * blades,) + (points,) * dim
    forward, _ = _coupling(dim, 2 * band, points, shape[0])
    toeplitz_at, hankel_at = _newton_gathers(dim, band, blades)
    cut = 2 * blades * cells
    active = np.flatnonzero(np.broadcast_to(h_mask[:, None], (blades, len(h_mask), 2)))
    inv_w_real = np.tile(np.repeat(1.0 / weight[h_mask], 2), blades)
    om = scaling.wu[:cut].view(complex)
    row, col = om.reshape(blades, 1, cells), om.reshape(1, blades, cells)
    pairs = np.concatenate((row * col.conj() + np.eye(blades)[:, :, None], row * col))
    d = (quad_w * scaling.beta[:cells]) ** -2.0 / cells
    spectra = forward((pairs * d).reshape(shape)).ravel().view(float)
    spectra = np.concatenate((spectra, -spectra))
    matrix = spectra[toeplitz_at] + spectra[hankel_at]
    scale = inv_w_real / scaling.beta[cells]
    u = scaling.wu[cut:] * scale
    matrix[active, active] += scale**2
    matrix[np.ix_(active, active)] += 2.0 * np.outer(u, u)
    return matrix


@pytest.mark.parametrize("dim, band, points", [(1, 4, 16), (2, 2, 8)])
@pytest.mark.parametrize("blades", [1, 2])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_padded_outer_newton_matrix_is_the_index_block_build(dim, band, points, blades, homogeneous):
    from fracbb.norms import _NTScaling, _newton_matrix, _stacked, _sum_space_cones

    rng = np.random.default_rng([dim, blades, homogeneous])
    modes, cells, quad_w = (2 * band + 1) ** dim, points**dim, (TWO_PI / points) ** dim
    h_mask = np.ones(modes, dtype=bool)
    if homogeneous:
        h_mask[modes // 2] = False
    weight = rng.uniform(0.5, 3.0, modes)
    cones = _sum_space_cones(blades, cells, int(h_mask.sum()))

    def interior():
        u = rng.normal(size=len(cones.ids))
        return np.sqrt(cones.dot(u, u)) + rng.uniform(0.1, 2.0, cones.count), u

    for _ in range(5):
        scaling = _NTScaling(cones, _stacked(interior(), interior()))
        got = _newton_matrix(dim, band, points, blades, weight, h_mask, quad_w)(scaling)
        want = _index_block_newton_matrix(
            dim, band, points, blades, weight, h_mask, quad_w, scaling
        )
        assert got.tobytes() == want.tobytes()


def _dense_newton_matrix(synthesis, scaling, quad_w, blades, active, inv_w_real):
    """The dense reference: ``G^T W^-2 G`` from the synthesis matrix ``A*``."""
    cells, modes = synthesis.shape
    d = (quad_w * scaling.beta[:cells]) ** -2.0
    conj_synthesis = synthesis.conj()
    c = conj_synthesis.T @ (d[:, None] * synthesis)
    block = np.empty((modes, 2, modes, 2))
    block[:, 0, :, 0] = block[:, 1, :, 1] = c.real
    block[:, 1, :, 0] = c.imag
    block[:, 0, :, 1] = -c.imag
    matrix = np.kron(np.eye(blades), block.reshape(2 * modes, 2 * modes))
    cut = 2 * blades * cells
    wu = scaling.wu[:cut].view(complex).reshape(blades, cells)
    v = (wu.T[:, :, None] * conj_synthesis[:, None, :]).copy().view(float)
    v = v.reshape(cells, -1)
    matrix += v.T @ (2.0 * d[:, None] * v)
    scale = inv_w_real / scaling.beta[cells]
    u = scaling.wu[cut:] * scale
    matrix[active, active] += scale**2
    matrix[np.ix_(active, active)] += 2.0 * np.outer(u, u)
    return matrix


@pytest.mark.parametrize(
    "dim, band, points, blades, homogeneous",
    [
        (1, 4, 16, 1, True),
        (1, 4, 9, 2, True),  # P < 4N + 1: the band-2N transform wraps
        (1, 24, 96, 1, False),  # band-2N transform by FFT
        (2, 2, 8, 1, False),
        (2, 2, 5, 2, True),
        (3, 1, 4, 2, True),
    ],
)
def test_structured_newton_matrix_matches_the_dense_reference(
    dim, band, points, blades, homogeneous
):
    from fracbb.norms import _NTScaling, _coupling, _newton_matrix, _stacked, _sum_space_cones

    rng = np.random.default_rng([dim, band, points, blades])
    modes = (2 * band + 1) ** dim
    cells = points**dim
    quad_w = (TWO_PI / points) ** dim
    h_mask = np.ones(modes, dtype=bool)
    if homogeneous:
        h_mask[modes // 2] = False
    weight = rng.uniform(0.5, 3.0, modes)
    inv_w = 1.0 / weight[h_mask]
    cones = _sum_space_cones(blades, cells, len(inv_w))

    def interior():
        u = rng.normal(size=len(cones.ids))
        return np.sqrt(cones.dot(u, u)) + rng.uniform(0.1, 2.0, cones.count), u

    scaling = _NTScaling(cones, _stacked(interior(), interior()))
    got = _newton_matrix(dim, band, points, blades, weight, h_mask, quad_w)(scaling)

    _, scalar_adjoint = _coupling(dim, band, points, modes)
    synthesis = scalar_adjoint(np.eye(modes)).reshape(modes, cells).T
    active = np.flatnonzero(np.broadcast_to(h_mask[:, None], (blades, modes, 2)))
    inv_w_real = np.tile(np.repeat(inv_w, 2), blades)
    want = _dense_newton_matrix(synthesis, scaling, quad_w, blades, active, inv_w_real)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # The same matrix from the operators themselves: columns G e_k, then W^-2
    # as W^-1 applied twice.
    _, adjoint = _coupling(dim, band, points, blades)
    unknowns = np.eye(2 * blades * modes).view(complex).reshape(-1, blades, modes)
    g_cols = np.array([
        np.concatenate([adjoint(p).ravel() / -quad_w, (p[:, h_mask] * -inv_w).ravel()])
        for p in unknowns
    ]).view(float)
    w2_cols = np.array([
        scaling.inverse(scaling.inverse((np.zeros(cones.count), col)))[1] for col in g_cols
    ])
    operator_form = g_cols @ w2_cols.T
    assert np.abs(got - operator_form).max() <= 1e-12 * np.abs(operator_form).max()


@pytest.mark.parametrize(
    "dim, band, points, masks, dense",
    [
        (1, 8, 32, (0, 1), True),
        (1, 64, 256, (0, 1), False),
        (2, 12, 48, (0, 1, 2, 3), True),
        (2, 33, 132, (0, 3), False),
        (3, 2, 8, (0, 3, 5, 6), True),
    ],
)
def test_solver_coupling_matches_the_transforms(dim, band, points, masks, dense):
    from fracbb.norms import _coupling
    from fracbb.spectral import _DENSE_MAX_ENTRIES

    rng = np.random.default_rng(dim * 1000 + points)
    forward, adjoint = _coupling(dim, band, points, len(masks))
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # The reference: fftn over the grid axes, with each band mode at its
    # wrapped position in the FFT cube.
    axes = tuple(range(1, dim + 1))
    wrapped = (slice(None),) + tuple(np.mod(mode_matrix(dim, band).T, points))
    planes = draw(len(masks), *(points,) * dim)
    expected = np.fft.fftn(planes, axes=axes)[wrapped] / points**dim
    assert np.abs(forward(planes) - expected).max() <= 1e-13
    grid = GridField(dim, points, dict(zip(masks, planes)))
    assert np.abs(forward_transform(grid, band).data - expected).max() <= 1e-13

    rows = draw(len(masks), (2 * band + 1) ** dim)
    cube = np.zeros_like(planes)
    cube[wrapped] = rows
    expected = np.fft.ifftn(cube, axes=axes) * points**dim
    # A* is P**-n times the synthesis.
    err = np.abs(adjoint(rows) * points**dim - expected).max()
    assert err <= 1e-13 * max(1.0, np.abs(expected).max())
    synthesis = inverse_transform(SpectralField.from_blade_vectors(dim, band, masks, rows), points)
    synthesis = np.array([synthesis.comps[mask] for mask in masks])
    assert np.abs(synthesis - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())
    # Dense DFT matrices on one side of the size rule, FFTs on the other.
    assert (points * (2 * band + 1) <= _DENSE_MAX_ENTRIES) == dense


def _closed_form_reference(f, s, homogeneous, weights, points):
    """The certificate of the split ``g = 0`` at ``p0 = -W**2 f / ||W f||``.

    Written out from the solver's formulas as they stand for any ``g``: the
    forward map of the zero grid, the mean repair, the grid's L1 term and
    both dual scalings.  Returns ``(value, gap, h)``.
    """
    from fracbb.norms import _coupling

    dim, band, fvec = f.dim, f.band, f.data
    mm = mode_matrix(dim, band)
    norm_sq = (mm.astype(float) ** 2).sum(axis=1)
    mask = norm_sq > 0 if homogeneous else np.ones(len(mm), dtype=bool)
    if weights is None:
        w = np.ones(len(mm))
        if homogeneous:
            w[mask] = norm_sq[mask] ** (s / 2.0)
        else:
            w = (1.0 + norm_sq) ** (s / 2.0)
    elif callable(weights):
        w = np.array([float(weights(tuple(row))) for row in mm])
    else:
        w = np.asarray(weights, dtype=float)
    masked = np.where(mask, w, 1.0)
    weighted = np.where(mask, masked * fvec, 0.0)
    p0 = -masked * weighted / math.sqrt(float((np.abs(weighted) ** 2).sum()))

    blades = len(fvec)
    quad_w = (TWO_PI / points) ** dim
    forward, adjoint = _coupling(dim, band, points, blades)
    g = np.zeros((blades,) + (points,) * dim, dtype=complex)
    Ag = forward(g)
    if homogeneous:
        rho = fvec[:, ~mask] - Ag[:, ~mask]
        if np.any(rho):
            g = g + rho.sum(axis=1).reshape((blades,) + (1,) * dim)
            Ag = forward(g)
    h = np.where(mask, fvec - Ag, 0.0)
    upper = quad_w * np.sqrt((np.abs(g) ** 2).sum(axis=0)).sum() + math.sqrt(
        ((masked**2) * (np.abs(h) ** 2)).sum()
    )
    s1 = float(np.sqrt((np.abs(adjoint(p0)) ** 2).sum(axis=0)).max()) / quad_w
    s2 = math.sqrt(((np.abs(p0) ** 2)[:, mask] / (w[mask] ** 2)).sum())
    lower = -float(np.real(np.conj(p0) * fvec).sum()) / max(s1, s2, 1.0)
    return float(upper), max(float(upper - lower), 0.0), h


@pytest.mark.parametrize(
    "dim, band, masks, homogeneous, weight_kind",
    [
        (1, 8, (0, 1), False, "callable"),
        (1, 32, (0,), True, "default"),  # the largest dense DFT matrix
        (1, 33, (0, 1), True, "default"),  # the smallest FFT grid
        (1, 64, (0,), False, "array"),
        (2, 6, (0,), True, "callable"),
        (2, 12, (0, 3), True, "array"),
        (2, 33, (0,), False, "default"),
        (3, 2, (0, 5), True, "default"),
        (3, 2, (0,), False, "array"),
    ],
)
def test_closed_form_split_matches_the_reference_bit_for_bit(
    dim, band, masks, homogeneous, weight_kind
):
    from fracbb.norms import _weights_for, _zero_image
    from fracbb.spectral import _DENSE_MAX_ENTRIES

    rng = np.random.default_rng([dim, band, len(masks)])
    s = -dim / 2.0
    mm = mode_matrix(dim, band)
    norm_sq = (mm.astype(float) ** 2).sum(axis=1)
    # Decaying coefficients, half of them imaginary with a real part of -0.0,
    # so the signs of zero in h count.
    data = rng.normal(size=(len(masks), len(mm))) + 1j * rng.normal(size=(len(masks), len(mm)))
    data /= np.maximum(norm_sq, 1.0)
    data[:, ::2] = -0.0 + 1j * data[:, ::2].imag
    if homogeneous:
        data[:, len(mm) // 2] = 0.0
    f = SpectralField.from_blade_vectors(dim, band, masks, data, zero_mean=homogeneous)
    weights = {
        "default": None,
        "array": 1.01 * np.where(norm_sq > 0, np.maximum(norm_sq, 1.0) ** (s / 2.0), 1.0),
        "callable": lambda m: (1.0 + sum(x * x for x in m)) ** (s / 2.0),
    }[weight_kind]
    points = 4 * band
    assert (points * (2 * band + 1) <= _DENSE_MAX_ENTRIES) == (band <= 32)

    split = sum_space_norm(f, s=s, homogeneous=homogeneous, weights=weights)
    value, gap, h = _closed_form_reference(f, s, homogeneous, weights, points)
    assert (split.path, split.iterations) == ("closed-form", 0)
    assert split.value.hex() == value.hex() and split.gap.hex() == gap.hex()
    assert split.h.masks == f.masks and split.h.zero_mean == homogeneous
    # Bit patterns, so signed zeros and last-place differences count.
    assert np.array_equal(split.h.data.view(np.uint64), h.view(np.uint64))
    assert sorted(split.g.comps) == list(masks)
    for plane in split.g.comps.values():
        assert plane.shape == (points,) * dim and not np.any(plane.view(np.uint64))

    # The cached tables: a repeat returns the same objects, and none can be
    # written.
    def cached():
        return [*_weights_for(dim, band, s, homogeneous, None),
                _zero_image(dim, band, points, len(masks))]

    tables = cached()
    assert all(a is b for a, b in zip(tables, cached()))
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 1
    # Array weights are checked on every call, not cached.
    if weight_kind == "array":
        weights[1] = -1.0
        with pytest.raises(InputError):
            sum_space_norm(f, s=s, homogeneous=homogeneous, weights=weights)


def _assert_same_split(split, expected):
    """Equal value and gap bits, path, iterations, and split planes bit for bit."""
    assert (split.value.hex(), split.gap.hex(), split.path, split.iterations) == (
        expected.value.hex(), expected.gap.hex(), expected.path, expected.iterations)
    assert (split.h.masks, split.h.zero_mean, split.g.masks) == (
        expected.h.masks, expected.h.zero_mean, expected.g.masks)
    for ours, theirs in ((split.h.data, expected.h.data), (split.g.data, expected.g.data)):
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def _stack_member(rng, dim, band, masks, homogeneous):
    """A decaying field with ``-0.0`` real parts at every other mode, or zero."""
    mm = mode_matrix(dim, band)
    if not masks:
        return SpectralField(dim, band, {}, zero_mean=homogeneous)
    norm_sq = np.maximum((mm.astype(float) ** 2).sum(axis=1), 1.0)
    data = rng.normal(size=(len(masks), len(mm))) + 1j * rng.normal(size=(len(masks), len(mm)))
    data /= norm_sq ** rng.uniform(0.5, 1.0)
    data[:, ::2] = -0.0 + 1j * data[:, ::2].imag
    if homogeneous:
        data[:, len(mm) // 2] = 0.0
    return SpectralField.from_blade_vectors(dim, band, masks, data, zero_mean=homogeneous)


@pytest.mark.parametrize(
    "dim, band, homogeneous, weight_kind, members, seed",
    [
        # 1-D dense side (P 64): one-blade rows take BLAS's matrix-vector kernel.
        (1, 16, True, "default", [(0,), (0, 1), (), (1,), (0, 1)], 22),
        # 1-D FFT side (P 256).
        (1, 64, False, "array", [(0,), (), (0, 1), (1,), (0, 1)], 3),
        (2, 6, True, "callable", [(0,), (0, 3), (1, 2, 3), (), (3,)], 27),
        (3, 2, False, "default", [(0,), (0, 5), tuple(range(8)), (3,), ()], 3),
    ],
)
def test_stacked_closed_form_matches_one_at_a_time(
    dim, band, homogeneous, weight_kind, members, seed
):
    # Each member of a stack gets, bit for bit, what the single-field
    # formulas give it: the written-out closed-form certificate, and the
    # zero split for a zero field.  The dual scales reach the gap only where
    # they exceed 1: the grid scale under 4 times the weights (at a loose
    # tolerance, so every member still certifies), and the Sobolev scale of
    # a multi-blade member where it rounds above 1.  Each seed gives a stack
    # where summing that scale blade by blade instead of mode by mode
    # changes a gap, and the 1-D dense one a stack where one matrix product
    # for all rows does.
    from fracbb.norms import _weights_for

    rng = np.random.default_rng([dim, band, seed])
    s = -dim / 2.0
    norm_sq = (mode_matrix(dim, band).astype(float) ** 2).sum(axis=1)
    weights = {
        "default": None,
        "array": 1.01 * np.where(norm_sq > 0, np.maximum(norm_sq, 1.0) ** (s / 2.0), 1.0),
        "callable": lambda m: (1.0 + sum(x * x for x in m)) ** (s / 2.0),
    }[weight_kind]
    fields = [_stack_member(rng, dim, band, masks, homogeneous) for masks in members]
    points = 4 * band
    loose = 4.0 * _weights_for(dim, band, s, homogeneous, weights)[1]
    for weights, tol in ((weights, 1e-6), (loose, 10.0)):
        splits = sum_space_norms(fields, s=s, homogeneous=homogeneous, tol=tol, weights=weights)
        assert len(splits) == len(fields)
        for f, split in zip(fields, splits):
            assert (split.path, split.iterations) == ("closed-form", 0)
            if f.data.any():
                value, gap, h = _closed_form_reference(f, s, homogeneous, weights, points)
            else:
                value, gap, h = 0.0, 0.0, np.zeros((1, len(norm_sq)), dtype=complex)
            assert split.value.hex() == value.hex() and split.gap.hex() == gap.hex()
            assert split.h.masks == f.masks and split.h.zero_mean == homogeneous
            assert np.array_equal(split.h.data.view(np.uint64), h.view(np.uint64))
            assert split.g.masks == f.masks and not np.any(split.g.data.view(np.uint64))
            assert split.g.data.shape == (len(f.masks),) + (points,) * dim


@pytest.mark.parametrize(
    "dim, band, blades, homogeneous, weight_kind",
    [
        (1, 16, 1, True, "default"),  # dense DFT side (P 64)
        (1, 64, 2, False, "array"),  # FFT side (P 256)
        (2, 6, 1, False, "callable"),
        (2, 6, 3, True, "array"),
        (3, 2, 8, True, "default"),
    ],
)
def test_stacked_certificates_match_one_field_at_a_time(
    dim, band, blades, homogeneous, weight_kind
):
    # Nonzero splits g and dual points p, as a Newton or polish step has
    # them: each field of a stack gets from _certificates, bit for bit, the
    # certificate it gets as a stack of one.
    from fracbb.norms import _certificates, _coupling, _weights_for

    rng = np.random.default_rng([dim, band, blades])
    s, points, count = -dim / 2.0, 4 * band, 8
    norm_sq = (mode_matrix(dim, band).astype(float) ** 2).sum(axis=1)
    weights = {
        "default": None,
        "array": 3.0 * np.where(norm_sq > 0, np.maximum(norm_sq, 1.0) ** (s / 2.0), 1.0),
        "callable": lambda m: (1.0 + sum(x * x for x in m)) ** (s / 2.0),
    }[weight_kind]
    mask, weight, weight_sq = _weights_for(dim, band, s, homogeneous, weights)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    fvecs = draw(count, blades, len(norm_sq)) / np.maximum(norm_sq, 1.0)
    grid_axes = tuple(range(2, 2 + dim))
    g = draw(count, blades, *(points,) * dim) * rng.uniform(1e-3, 1e-2, (count, 1) + (1,) * dim)
    if homogeneous:
        # Zero-mean fields and grid parts, as the mean repair leaves a split.
        fvecs[:, :, len(norm_sq) // 2] = 0.0
        g -= g.mean(axis=grid_axes, keepdims=True)
    # Near the dual point of g = 0 and scaled out of the Sobolev ball, so
    # the lower bound is as large as the cost and its last bits reach the gap.
    weighted = np.where(mask, weight * fvecs, 0.0)
    p = -weight * weighted / np.sqrt((np.abs(weighted) ** 2).sum(axis=(1, 2), keepdims=True))
    p = p * rng.uniform(1.0, 2.0, (count, 1, 1)) + 1e-3 * weight * draw(*p.shape)
    forward, adjoint = _coupling(dim, band, points, blades)
    Ag = np.stack([forward(plane) for plane in g])
    Ap = np.stack([adjoint(row) for row in p])

    stacked = _certificates(fvecs, g, Ag, p, Ap, mask, weight, weight_sq)
    assert len(stacked) == count
    quad_w = (TWO_PI / points) ** dim
    gaps = []
    for i, (upper, gap, g_i, h_i) in enumerate(stacked):
        rows = [x[i : i + 1] for x in (fvecs, g, Ag, p, Ap)]
        [alone] = _certificates(*rows, mask, weight, weight_sq)
        assert (upper.hex(), gap.hex()) == (alone[0].hex(), alone[1].hex())
        # The single-field formulas, written out in a single field's order.
        h = np.where(mask, fvecs[i] - Ag[i], 0.0)
        l1 = quad_w * np.sqrt((np.abs(g[i]) ** 2).sum(axis=0)).sum()
        expected = float(l1 + math.sqrt((weight_sq * (np.abs(h) ** 2)).sum()))
        s1 = float(np.sqrt((np.abs(Ap[i]) ** 2).sum(axis=0)).max()) / quad_w
        s2 = math.sqrt(((np.abs(p[i]) ** 2) / weight_sq)[:, mask].sum())
        lower = -float(np.real(np.conj(p[i]) * fvecs[i]).sum()) / max(s1, s2, 1.0)
        assert (upper.hex(), gap.hex()) == (expected.hex(), float(expected - lower).hex())
        # Bit patterns, so signed zeros and last-place differences count.
        for ours in (h_i, alone[3]):
            assert np.array_equal(ours.view(np.uint64), h.view(np.uint64))
        for ours in (g_i, alone[2]):
            assert np.array_equal(ours.view(np.uint64), g[i].view(np.uint64))
        assert upper > 0 and gap > 0
        gaps.append(gap)
    # Distinct gaps: each field's certificate is its own.
    assert len(set(gaps)) == count


def test_stacked_solve_iterates_its_uncertified_members_alone():
    # mixed_flat_8 between two fields that certify under its weights: the
    # stack iterates it alone and reports what its own call reports, and
    # when it cannot converge, the stack raises its error and partial split.
    weights = scaled_weights(8, 5.0)
    stack = [
        SpectralField(1, 8, {(1,): 1.0, (-2,): 0.5j}, zero_mean=True),
        all_ones(8),
        SpectralField(1, 8, {(3,): 0.7 - 0.1j, (-1,): 0.2}, zero_mean=True),
    ]
    splits = sum_space_norms(stack, weights=weights)
    assert [split.path for split in splits] == ["closed-form", "interior-point", "closed-form"]
    for f, split in zip(stack, splits):
        _assert_same_split(split, sum_space_norm(f, weights=weights))
    with pytest.raises(ConvergenceError) as stacked:
        sum_space_norms(stack, weights=weights, tol=1e-10, max_iterations=3)
    with pytest.raises(ConvergenceError) as alone:
        mixed_flat_8(tol=1e-10, max_iterations=3)
    assert str(stacked.value) == str(alone.value)
    _assert_same_split(stacked.value.partial, alone.value.partial)


def test_stacked_fields_share_dimension_and_band():
    assert sum_space_norms([]) == []
    for other in (all_ones(4), SpectralField(2, 8, {}, zero_mean=True)):
        with pytest.raises(InputError):
            sum_space_norms([all_ones(8), other])
    with pytest.raises(InputError):
        sum_space_norms([all_ones(8), SpectralField(1, 8, {(0,): 1.0})])


def test_iteration_cap_is_validated_and_kept():
    f = SpectralField(1, 8, {(n,): 1.0 for n in range(-8, 9) if n}, zero_mean=True)
    with pytest.raises(InputError):
        sum_space_norm(f, s=0.5, max_iterations=0)
    # The weights of mixed_flat_8 and a tolerance below the reach of
    # roundoff make the Newton steps run into the cap, once among the
    # interior-point steps and once in the polish.
    for cap in (7, 25):
        with pytest.raises(ConvergenceError) as err:
            sum_space_norm(f, tol=1e-15, weights=scaled_weights(8, 5.0), max_iterations=cap)
        assert err.value.partial.iterations == cap


def test_triangle_inequality_and_homogeneity():
    rng = np.random.default_rng(3)
    tol = 1e-7
    f = random_zero_mean(rng, 1, 5)
    g = random_zero_mean(rng, 1, 5)
    vf = sum_space_norm(f, tol=tol).value
    vg = sum_space_norm(g, tol=tol).value
    vsum = sum_space_norm(f + g, tol=tol).value
    assert vsum <= vf + vg + 2 * tol
    lam = 3.7
    vscaled = sum_space_norm(f.scale(lam), tol=tol).value
    assert vscaled == pytest.approx(lam * vf, abs=2 * tol * lam)


def test_grid_refinement_stability():
    rng = np.random.default_rng(4)
    f = random_zero_mean(rng, 1, 6, decay=1.5)
    coarse = sum_space_norm(f, tol=1e-8, points_per_axis=24).value
    fine = sum_space_norm(f, tol=1e-8, points_per_axis=48).value
    assert abs(coarse - fine) <= 1e-3 * max(1.0, coarse)


def test_homogeneous_vs_inhomogeneous_comparison_constant():
    # For zero-mean fields the homogeneous value dominates the inhomogeneous
    # one (larger weights plus the mean constraint) and is in turn bounded by
    # a constant multiple of it; the constant is measured, not asserted as
    # sharp.  Crude ceiling: weight ratio 2**(1/4) plus the mean repair.
    rng = np.random.default_rng(5)
    tol = 1e-8
    measured = []
    for _ in range(5):
        f = random_zero_mean(rng, 1, 6)
        hom = sum_space_norm(f, homogeneous=True, tol=tol).value
        inhom = sum_space_norm(f, homogeneous=False, tol=tol).value
        assert inhom <= hom + 2 * tol
        measured.append(hom / inhom)
    assert all(1.0 - 1e-6 <= c <= 2 * math.pi + 2.0 ** 0.25 for c in measured)


def test_tolerance_tightening_consistency():
    rng = np.random.default_rng(6)
    f = random_zero_mean(rng, 1, 6)
    loose = sum_space_norm(f, tol=1e-5)
    tight = sum_space_norm(f, tol=1e-6)
    assert abs(loose.value - tight.value) <= 10 * 1e-5


def test_value_unchanged_by_explicit_zero_modes():
    # Removing modes that are zero anyway cannot change the discretized norm.
    rng = np.random.default_rng(8)
    coeffs = {(1,): complex(rng.normal()), (3,): complex(rng.normal())}
    dense = dict(coeffs)
    dense[(2,)] = 0.0  # dropped by the constructor; same field
    a = sum_space_norm(SpectralField(1, 4, coeffs, zero_mean=True), tol=1e-8)
    b = sum_space_norm(SpectralField(1, 4, dense, zero_mean=True), tol=1e-8)
    assert a.value == b.value


def test_homogeneous_requires_zero_mean():
    f = SpectralField(1, 2, {(0,): 1.0, (1,): 1.0})
    with pytest.raises(InputError):
        sum_space_norm(f, homogeneous=True)


def test_nonconvergence_raises_with_partial():
    # Sobolev-only optima can certify with gap exactly zero, so force a
    # genuinely mixed instance (scaled weights) and a tiny iteration cap.
    f = SpectralField(1, 8, {(n,): 1.0 for n in range(-8, 9) if n}, zero_mean=True)
    with pytest.raises(ConvergenceError) as err:
        sum_space_norm(f, tol=1e-10, weights=scaled_weights(8, 5.0), max_iterations=3)
    partial = err.value.partial
    assert isinstance(partial, SumSpaceSplit)
    assert partial.gap > 0 and partial.iterations == 3


def test_custom_weight_validation():
    f = SpectralField(1, 2, {(1,): 1.0}, zero_mean=True)
    with pytest.raises(InputError):
        sum_space_norm(f, weights=np.ones(3))  # needs 5 modes
    with pytest.raises(InputError):
        sum_space_norm(f, weights=np.zeros(5))


def test_clifford_valued_field_supported():
    from fracbb.clifford import CliffordElement

    coeffs = {
        (1,): CliffordElement(1, {0: 1.0, 1: 0.5j}),
        (-2,): CliffordElement(1, {1: 1.0}),
    }
    f = SpectralField(1, 3, coeffs, zero_mean=True)
    split = sum_space_norm(f, tol=1e-7)
    assert split.value > 0
    assert split.value <= sobolev_norm(f, -0.5) + 1e-7


def test_a_pair_without_nesterov_todd_scaling_ends_the_newton_steps(monkeypatch):
    # With a start margin of 8 the Newton steps on this input reach a pair
    # inside the cones by the Lorentz test whose gamma rounds to 0.  The
    # steps end there, before anything divides by it, and the polish
    # certifies.
    raised = []

    class Recording(norms._NTScaling):
        def __init__(self, *args):
            try:
                super().__init__(*args)
            except ZeroDivisionError:
                raised.append(True)
                raise

    monkeypatch.setattr(norms, "_START_MARGIN", 8.0)
    monkeypatch.setattr(norms, "_NTScaling", Recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = sum_space_norm(
            two_blade_field(4), weights=scaled_weights(4, 5.5), points_per_axis=32, tol=1e-12
        )
    assert raised == [True]
    assert (split.path, split.iterations, split.gap) == ("interior-point", 23, 0.0)
    assert split.value.hex() == "0x1.7281618ca1191p+4"
