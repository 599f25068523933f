"""Randomized verification harness for the main fractional inequalities.

Estimates empirical constants for the inequality

    ||u - mean(u)||_{L2} <= C * sum_{j=0..n} ||(-Lap)^{n/4} R_j u||_{L1 + H^{-n/2}-dot}

(with ``R_0 = Id``) over seeded random corpora, and exercises the bilinear
coefficient pairing, whose partial sums stay uniformly bounded on point-mass
pairs.  No reference value for C exists, so the harness reports ratio
statistics and never asserts a target.

Determinism contract: every sample draws from a substream derived from
``(seed, sample index)``, so results do not depend on execution order, and
reports are emitted sorted by sample id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, InputError, _count
from .norms import _default_weights, _sum_space_rows
from .operators import _fraclap_rows, _symbol_table
from .spectral import SpectralField, _check_shape, _mode_product, mode_matrix

@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible settings for a randomized verification run."""

    dim: int = 1
    band: int = 64
    samples: int = 100
    seed: int = 0
    decay: float = 1.0
    tol: float = 1e-6

    def __post_init__(self):
        dim, band = _check_shape(self.dim, self.band)
        counts = (("dim", dim), ("band", band), ("samples", _count(self.samples, "sample count", 1)),
                  ("seed", _count(self.seed, "seed", 0)))
        for name, value in counts:
            object.__setattr__(self, name, value)  # the checked ints; the config is frozen
        if not math.isfinite(self.decay):
            raise InputError(f"decay must be finite, got {self.decay!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InputError(f"tolerance must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True)
class SampleRow:
    sample_id: int
    lhs: float
    rhs: float
    ratio: float
    gaps: tuple[float, ...]


@dataclass(frozen=True)
class InequalityReport:
    """Per-sample ratios plus aggregates for one inequality experiment."""

    config: ExperimentConfig
    rows: tuple[SampleRow, ...]
    failures: tuple[int, ...] = field(default_factory=tuple)

    @property
    def max_ratio(self) -> float:
        return max((row.ratio for row in self.rows), default=0.0)

    @property
    def median_ratio(self) -> float:
        return float(np.median([row.ratio for row in self.rows])) if self.rows else 0.0

    def ratio_quantiles(self) -> dict[str, float]:
        values = [row.ratio for row in self.rows]
        return {
            f"q{int(100 * q)}": float(np.quantile(values, q)) if values else 0.0
            for q in (0.1, 0.5, 0.9)
        }

    @property
    def failure_rate(self) -> float:
        total = len(self.rows) + len(self.failures)
        return len(self.failures) / total if total else 0.0


def random_field(cfg: ExperimentConfig, sample_index: int = 0) -> SpectralField:
    """Zero-mean field with magnitudes ``|m|**(-decay)`` and uniform phases.

    Fully determined by ``(cfg.seed, sample_index)`` regardless of execution
    order.  Raises :class:`InputError` when the decay overflows a magnitude
    or the sum of their squares.
    """
    row = _random_row(cfg, sample_index)
    return SpectralField.from_blade_vectors(cfg.dim, cfg.band, (0,), row)


def _random_row(cfg: ExperimentConfig, sample_index: int) -> np.ndarray:
    """The ``(1, modes)`` coefficient row of :func:`random_field`."""
    active, magnitudes = _field_magnitudes(cfg.dim, cfg.band, cfg.decay)
    rng = np.random.default_rng([int(cfg.seed), int(sample_index)])
    phases = np.exp(2j * math.pi * rng.uniform(size=len(magnitudes)))
    row = np.zeros((1, len(active)), dtype=complex)
    row[0, active] = magnitudes * phases
    return row


# Typed: a numpy float decay takes numpy's power below, a float C's.
@lru_cache(maxsize=32, typed=True)
def _field_magnitudes(dim: int, band: int, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """The mask of nonzero modes and their magnitudes ``|m|**(-decay)``.

    Shared cached storage, read-only.
    """
    norm_sq = (mode_matrix(dim, band) ** 2).sum(axis=1)
    active = norm_sq > 0
    # Scalar C pow per mode: numpy's vectorized power can differ in the last
    # place, which would change every report built on these samples.
    try:
        magnitudes = np.array([math.sqrt(k) ** -decay for k in norm_sq[active].tolist()])
    except OverflowError:
        magnitudes = None
    # A unit sample divides by the square root of the sum of squares.
    with np.errstate(over="ignore"):
        if magnitudes is None or not np.isfinite((magnitudes**2).sum()):
            raise InputError(
                f"decay {decay!r} overflows the squared magnitudes of band {band}"
            )
    active.flags.writeable = magnitudes.flags.writeable = False
    return active, magnitudes


def _sample_row(cfg: ExperimentConfig, sample_id: int) -> SampleRow:
    """The inequality's two sides on sample ``sample_id``.

    Coefficient rows from the draw to the solve: the unit row of
    :func:`random_field` and the ``dim + 1`` rows ``(-Lap)^{n/4} R_j u``, with
    the bits the public operators give, go to one :func:`norms._sum_space_rows`
    call, so their closed-form checks run stacked and a settled row builds no split.
    """
    dim, band = cfg.dim, cfg.band
    row = _random_row(cfg, sample_id)
    scale = float(np.linalg.norm(row))
    images = np.empty((dim + 1,) + row.shape, dtype=complex)
    images[0] = complex(1.0 / scale) * row  # the unit sample, as SpectralField.scale forms it
    for j in range(1, dim + 1):
        riesz = _symbol_table(dim, band, "riesz", (j, False))
        images[j] = _mode_product(riesz.masks, riesz.data, (0,), images[0])[1]
    solves = _sum_space_rows(_fraclap_rows((0,), images, dim, band, dim / 4.0), (0,), dim, band,
                             _default_weights(dim, band, -dim / 2.0, True), cfg.tol)
    rhs_unit = 0.0
    for value, *_ in solves:  # left to right from 0.0, as the bits of the ratio require
        rhs_unit += value
    # lhs of the normalized sample is 1 by construction, so the ratio is
    # exactly scale-invariant; lhs/rhs are reported in the original scale.
    return SampleRow(
        sample_id=sample_id,
        lhs=scale,
        rhs=scale * rhs_unit,
        ratio=1.0 / rhs_unit,
        gaps=tuple(solve[1] for solve in solves),
    )


def verify_bb(cfg: ExperimentConfig) -> InequalityReport:
    """Ratio distribution of the fractional inequality over a random corpus.

    Samples whose optimizer run fails to converge are skipped and counted; a
    failure rate above 1% raises ``ConvergenceError`` carrying the partial
    report.
    """
    rows: list[SampleRow] = []
    failures: list[int] = []
    for sample_id in range(cfg.samples):
        try:
            rows.append(_sample_row(cfg, sample_id))
        except ConvergenceError:
            failures.append(sample_id)
    report = InequalityReport(config=cfg, rows=tuple(rows), failures=tuple(failures))
    if report.failure_rate > 0.01:
        raise ConvergenceError(
            f"optimizer failure rate {report.failure_rate:.1%} exceeds 1%",
            partial=report,
        )
    return report


# -- the bilinear coefficient pairing ---------------------------------------------


def bilinear_A(
    g1: Mapping[int, complex], g2: Mapping[int, complex], truncation: int
) -> complex:
    """Symmetric partial sum ``sum_{0 < |n| <= N} sign(n) g1_n g2_{-n} / (i|n|)``."""
    total = 0j
    for n in range(1, _count(truncation, "truncation", 1) + 1):
        plus = g1.get(n, 0j) * g2.get(-n, 0j)
        minus = g1.get(-n, 0j) * g2.get(n, 0j)
        total += (plus - minus) / (1j * n)
    return total


@dataclass(frozen=True)
class DiracSeriesTrace:
    """Partial sums of ``2 sum sin(n*theta)/n`` for a point-mass pair."""

    theta: float
    truncations: tuple[int, ...]
    partial_sums: tuple[float, ...]
    sup_partial: float
    limit: float


def dirac_pair_limit(theta: float) -> float:
    """Closed-form limit ``pi - theta_mod`` with ``theta_mod in (0, 2*pi)``."""
    theta_mod = math.fmod(theta, 2.0 * math.pi)
    if theta_mod < 0:
        theta_mod += 2.0 * math.pi
    if theta_mod == 0.0:
        return 0.0
    return math.pi - theta_mod


#: Terms per block of the partial-sum scan; fixes the summation order.
_DIRAC_BLOCK = 1 << 16


def bilinear_A_diracs(a: float, b: float, truncations: Sequence[int]) -> DiracSeriesTrace:
    """Partial-sum trace of the pairing on two point masses at angles a, b.

    Uses the raw point-mass coefficient convention ``g_n = exp(i n a)`` (no
    ``1/2pi`` factor), under which the pairing collapses to the sine series
    ``2 sum_{n > 0} sin(n (a - b)) / n``.  Tracks every partial sum up to the
    largest requested truncation so uniform-boundedness claims are checkable.
    """
    theta = a - b  # not finite when a or b is not, or when it overflows
    if not math.isfinite(theta):
        raise InputError(f"point-mass angles and a - b must be finite, got a={a!r}, b={b!r}")
    truncations = sorted({_count(t, "truncation", 1) for t in truncations})
    if not truncations:
        raise InputError("need at least one truncation")
    top = truncations[-1]
    wanted = dict.fromkeys(truncations, 0.0)
    running = 0.0
    sup_partial = 0.0
    start = 1
    while start <= top:
        stop = min(start + _DIRAC_BLOCK - 1, top)
        n = np.arange(start, stop + 1, dtype=float)
        partials = running + 2.0 * np.cumsum(np.sin(n * theta) / n)
        sup_partial = max(sup_partial, float(np.abs(partials).max()))
        for t in truncations:
            if start <= t <= stop:
                wanted[t] = float(partials[t - start])
        running = float(partials[-1])
        start = stop + 1
    return DiracSeriesTrace(
        theta=theta,
        truncations=tuple(truncations),
        partial_sums=tuple(wanted[t] for t in truncations),
        sup_partial=sup_partial,
        limit=dirac_pair_limit(theta),
    )

