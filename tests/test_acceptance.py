"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from fracbb.clifford import CliffordElement
from fracbb.decomposition import solve_decomposition
from fracbb.disk import (
    PowerSeries,
    bbb_ratio,
    bergman_norm,
    dilate,
    hminus_half_boundary_norm,
    random_series,
)
from fracbb.experiments import ExperimentConfig, random_field, verify_bb
from fracbb.kernels import KernelSpec, sawtooth_eval, sup_norm_scan, kernel_K_1d, kernel_K_nd
from fracbb.norms import l1_norm, sobolev_norm, sum_space_norm
from fracbb.operators import dirac_D, fractional_laplacian, invert_D2, riesz
from fracbb.spectral import SpectralField, band_indices, convolve, inverse_transform

from frozen_values import SUBGRADIENT_VALUES
from regen_oracle_values import instance_field, instance_weight_array, oracle_instances

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)


def report(number: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {number}: {label}{timing}")
    assert ok, f"criterion {number} failed: {label}"


def random_zero_mean(rng, dim, band, real=False):
    coeffs = {}
    for m in band_indices(dim, band):
        if any(m):
            coeffs[m] = complex(rng.normal(), 0.0 if real else rng.normal())
    return SpectralField(dim, band, coeffs, zero_mean=True)


def test_criterion_01_sawtooth_coefficients():
    start = time.perf_counter()
    ok = True
    for log_p in (8, 10, 12, 14):
        P = 1 << log_p
        samples = sawtooth_eval(np.arange(P) * TWO_PI / P)
        hat = np.fft.fft(samples) / P
        for n in range(1, 65):
            if abs(hat[n] - 1j / n) > 5.0 / P or abs(hat[-n % P] + 1j / n) > 5.0 / P:
                ok = False
    elapsed = time.perf_counter() - start
    report(1, "sampled sawtooth coefficients match i/n within 5/P", ok and elapsed < 1.0, elapsed)


def _d2_corpus():
    rng = np.random.default_rng(101)
    fields = [random_zero_mean(rng, 1, 64) for _ in range(100)]
    fields += [random_zero_mean(rng, 2, 16) for _ in range(100)]
    return fields


def test_criterion_02_d2_inversion_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for g in _d2_corpus():
        w = invert_D2(g)
        residual = (dirac_D(dirac_D(w)) - g).l2_coefficient_norm()
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    report(
        2,
        f"D(D(invert_D2(g))) residual <= 1e-10 (worst {worst:.2e})",
        worst <= 1e-10 and elapsed < 10.0,
        elapsed,
    )


def test_criterion_03_kernel_vs_multiplier():
    start = time.perf_counter()
    worst = 0.0
    K1 = kernel_K_1d(64)
    K2 = kernel_K_nd(2, 16)
    for g in _d2_corpus():
        kernel = K1 if g.dim == 1 else K2
        via_conv = convolve(kernel, g).scale(TWO_PI**-g.dim)
        via_mult = invert_D2(g)
        err = max((v.norm() for v in (via_conv - via_mult).coeffs.values()), default=0.0)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        3,
        f"(2pi)^-n K*g equals invert_D2(g) within 1e-10 (worst {worst:.2e})",
        worst <= 1e-10,
        elapsed,
    )


def test_criterion_04_2d_kernel_boundedness():
    start = time.perf_counter()
    scan = sup_norm_scan(
        KernelSpec(dim=2, band=4, kind="direction", direction=1), [4, 8, 16, 32, 64]
    )
    ratios = [row.ratio for row in scan.rows if row.ratio is not None]
    ok = not scan.diverging and all(r <= 1.25 for r in ratios)
    elapsed = time.perf_counter() - start
    report(
        4,
        f"2-D kernel sup ratios <= 1.25 (max {max(ratios):.4f})",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_05_1d_convolution_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    worst_margin = 0.0
    for _ in range(100):
        g = random_zero_mean(rng, 1, 16, real=True)
        w = invert_D2(g)
        sup_w = float(inverse_transform(w, 128).magnitude().max())
        l1_g = l1_norm(inverse_transform(g, 256))
        bound = 0.25 * l1_g * (1.0 + 1e-6) + 1e-9
        worst_margin = max(worst_margin, sup_w / (0.25 * l1_g))
        if sup_w > bound:
            ok = False
    elapsed = time.perf_counter() - start
    report(
        5,
        f"sup|w| <= (1/4)||g||_L1 + quadrature slack (worst share {worst_margin:.3f})",
        ok,
        elapsed,
    )


def test_criterion_06_clifford_axiom_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    ok = True
    for n in range(1, 6):
        dim = 1 << n
        # generator relations, exactly
        for j in range(1, n + 1):
            ej = CliffordElement(n, {1 << (j - 1): 1.0})
            if not (ej * ej - CliffordElement.scalar(n, 1.0)).is_zero(1e-12):
                ok = False
            for k in range(j + 1, n + 1):
                ek = CliffordElement(n, {1 << (k - 1): 1.0})
                if not (ej * ek + ek * ej).is_zero(1e-12):
                    ok = False
        elements = []
        for _ in range(2000):
            comps = {
                m: complex(rng.normal(), rng.normal()) for m in range(dim)
            }
            x = CliffordElement(n, comps)
            elements.append(x.scale(1.0 / x.norm()))
        for x in elements:
            value = (x.conjugate() * x).p0()
            if abs(value - x.norm() ** 2) > 1e-12:
                ok = False
        for i in range(0, 2000 - 1, 2):
            x, y = elements[i], elements[i + 1]
            if ((x * y).conjugate() - y.conjugate() * x.conjugate()).norm() > 1e-12:
                ok = False
        for i in range(0, 2000 - 2, 3):
            x, y, z = elements[i], elements[i + 1], elements[i + 2]
            if ((x * y) * z - x * (y * z)).norm() > 1e-12:
                ok = False
    elapsed = time.perf_counter() - start
    report(6, "Clifford axiom suite exact to 1e-12 on 10^4 elements", ok and elapsed < 5.0, elapsed)


def test_criterion_07_dirac_pair_series():
    start = time.perf_counter()
    thetas = np.linspace(0.1, TWO_PI - 0.1, 100)
    top = 100_000
    chunk = 10_000
    running = np.zeros_like(thetas)
    sup_partial = np.zeros_like(thetas)
    n0 = 1
    while n0 <= top:
        n = np.arange(n0, min(n0 + chunk, top + 1), dtype=float)
        partials = running[:, None] + 2.0 * np.cumsum(
            np.sin(np.outer(thetas, n)) / n, axis=1
        )
        sup_partial = np.maximum(sup_partial, np.abs(partials).max(axis=1))
        running = partials[:, -1]
        n0 += chunk
    limits = math.pi - thetas
    converged = np.abs(running - limits).max() <= 1e-3
    bounded = sup_partial.max() <= math.pi + 0.6
    elapsed = time.perf_counter() - start
    report(
        7,
        f"partial sums reach pi - theta within 1e-3 (err {np.abs(running - limits).max():.1e}) "
        f"and stay below pi + 0.6 (sup {sup_partial.max():.4f})",
        converged and bounded and elapsed < 10.0,
        elapsed,
    )


def test_criterion_08_bergman_identities():
    start = time.perf_counter()
    ok = abs(bergman_norm(PowerSeries([1.0])) - SQRT_PI) < 1e-15
    rng = np.random.default_rng(88)
    for _ in range(1000):
        order = int(rng.integers(0, 24))
        coeffs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        f = PowerSeries(coeffs)
        r = float(rng.uniform(0.05, 1.0))
        lhs = bergman_norm(dilate(f, r)) ** 2
        rhs = math.pi * hminus_half_boundary_norm(f, r) ** 2
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            ok = False
    from oracles import bergman_norm_quadrature

    for _ in range(12):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = PowerSeries(coeffs)
        if abs(bergman_norm(f) - bergman_norm_quadrature(f.coeffs)) > 1e-6:
            ok = False
    elapsed = time.perf_counter() - start
    report(
        8,
        "Bergman closed forms: sqrt(pi), exact area/boundary identity, quadrature match",
        ok,
        elapsed,
    )


def _disk_corpus_max_ratio(seed: int, tol: float) -> float:
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    per_decay = 500 // 3 + 1
    count = 0
    for decay in (0.75, 1.0, 1.5):
        for _ in range(per_decay):
            if count >= 500:
                break
            f = random_series(24, decay, rng)
            rep = bbb_ratio(f, tol=tol)
            max_ratio = max(max_ratio, rep.max_ratio)
            count += 1
    return max_ratio


def test_criterion_09_bergman_empirical_constant():
    start = time.perf_counter()
    tol = 1e-6
    ratio_a = _disk_corpus_max_ratio(901, tol)
    ratio_b = _disk_corpus_max_ratio(902, tol)
    finite = math.isfinite(ratio_a) and math.isfinite(ratio_b)
    stable = abs(ratio_a - ratio_b) <= 0.1 * max(ratio_a, ratio_b)
    ceiling = max(ratio_a, ratio_b) <= SQRT_PI + 1e-3
    elapsed = time.perf_counter() - start
    report(
        9,
        f"disk ratio corpus: max {max(ratio_a, ratio_b):.6f} vs ceiling sqrt(pi)={SQRT_PI:.6f}, "
        f"seeds differ by {abs(ratio_a - ratio_b):.2e}",
        finite and stable and ceiling,
        elapsed,
    )


def _ratio_of_scaled_sample(cfg: ExperimentConfig, sample_id: int, scale: complex) -> float:
    u = random_field(cfg, sample_id).scale(scale)
    unit = u.scale(1.0 / u.l2_coefficient_norm())
    rhs = 0.0
    for j in range(cfg.dim + 1):
        v = unit if j == 0 else riesz(unit, j)
        v = fractional_laplacian(v, cfg.dim / 4.0)
        rhs += sum_space_norm(v, s=-cfg.dim / 2.0, homogeneous=True, tol=cfg.tol).value
    return 1.0 / rhs


def test_criterion_10_fractional_inequality_constants():
    start = time.perf_counter()
    cfg1 = ExperimentConfig(dim=1, band=64, samples=1000, seed=7, decay=1.0, tol=1e-6)
    report1 = verify_bb(cfg1)
    cfg2 = ExperimentConfig(dim=2, band=12, samples=200, seed=7, decay=1.0, tol=1e-6)
    report2 = verify_bb(cfg2)
    finite = math.isfinite(report1.max_ratio) and math.isfinite(report2.max_ratio)
    failures_ok = report1.failure_rate < 0.01 and report2.failure_rate < 0.01
    scale_ok = True
    for cfg in (cfg1, cfg2):
        for sample_id in (0, 1):
            base = _ratio_of_scaled_sample(cfg, sample_id, 1.0)
            scaled = _ratio_of_scaled_sample(cfg, sample_id, 37.5)
            if abs(base - scaled) > 1e-9:
                scale_ok = False
    elapsed = time.perf_counter() - start
    report(
        10,
        f"verify-bb: S1 max ratio {report1.max_ratio:.6f}, T2 max ratio {report2.max_ratio:.6f}, "
        f"failure rates {report1.failure_rate:.1%}/{report2.failure_rate:.1%}, scale-invariant",
        finite and failures_ok and scale_ok and elapsed < 600.0,
        elapsed,
    )


def test_criterion_11_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    ok = True
    for dim, band in ((1, 16), (2, 6)):
        for _ in range(200):
            g = random_zero_mean(rng, dim, band)
            result = solve_decomposition(g)
            if result.residual > 1e-10:
                ok = False
            if abs(result.bound_ratio - 1.0 / math.sqrt(2.0)) > 1e-9:
                ok = False
    # f = f_0 + sum R~_j f_j off the mean exactly when the decomposition of
    # g = (-Lap)^{n/4} f reconstructs g, as (-Lap)^{n/4} is injective off the mean.
    for dim in (1, 2):
        f = random_zero_mean(rng, dim, 4)
        for flavor in (True, False):
            g = fractional_laplacian(f, dim / 4.0)
            if solve_decomposition(g, conjugated_riesz=flavor).residual > 1e-10:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        11,
        "decomposition exact, bound ratio = 1/sqrt(2) to 1e-9, complements clean",
        ok,
        elapsed,
    )


def test_criterion_12_mixed_norm_optimizer():
    start = time.perf_counter()
    ok = True
    worst_gap = 0.0
    worst_oracle = 0.0
    for inst in oracle_instances():
        f = instance_field(inst)
        split = sum_space_norm(
            f,
            s=inst["s"],
            homogeneous=inst["homogeneous"],
            tol=1e-6,
            weights=instance_weight_array(inst),
            points_per_axis=inst["points"],
        )
        worst_gap = max(worst_gap, split.gap)
        deviation = abs(split.value - SUBGRADIENT_VALUES[inst["name"]])
        worst_oracle = max(worst_oracle, deviation)
        if split.gap > 1e-6 or deviation > 1e-4:
            ok = False
    rng = np.random.default_rng(120)
    for dim, band in ((1, 12), (2, 4)):
        for _ in range(5):
            f = random_zero_mean(rng, dim, band)
            tol = 1e-6
            split = sum_space_norm(f, tol=tol)
            worst_gap = max(worst_gap, split.gap)
            feasible_h = sobolev_norm(f, -dim / 2.0)
            feasible_g = l1_norm(inverse_transform(f))
            if split.value > min(feasible_h, feasible_g) + tol:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        12,
        f"optimizer certificates <= 1e-6 (worst {worst_gap:.1e}), oracle deviation "
        f"<= 1e-4 (worst {worst_oracle:.1e}), feasibility bounds hold",
        ok,
        elapsed,
    )
