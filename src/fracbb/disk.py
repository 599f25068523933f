"""Holomorphic power series on the unit disk and their boundary norms.

A series ``f(z) = sum a_n z**n`` has the exact area norm

    ||f||_{L2(D)}**2 = 2*pi * sum |a_n|**2 / (2n + 2),

and its dilations ``f_r(z) = f(r z)`` have boundary traces whose
area-matched H^{-1/2} norm uses the weight ``1/(1 + n)``:

    ||f_r||_{H^{-1/2}}**2 = sum |a_n|**2 r**(2n) / (1 + n).

With these conventions the two closed forms coincide up to the exact factor
pi: ``bergman(f_r)**2 == pi * hminus_half(f, r)**2``, which sharpens the
usual norm equivalence into an identity and anchors the ratio experiments.
The disk-side mixed boundary norm therefore uses the two-sided weight
``(1 + |n|)**(-1/2)`` rather than the general ``(1 + n**2)**(-1/4)`` torus
convention; the measured conversion ratio between the two is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError, _count
from .norms import (SumSpaceSplit, _l1_norms, _sobolev_norms, _sum_space_rows,
                    _weights_for, sum_space_norm)
from .spectral import (SpectralField, _check_size, _grid_shape, _synthesis, default_points,
                       mode_matrix)

#: Radius ladder approximating the r -> 1 boundary limit.
RADIUS_LADDER = (0.9, 0.99, 0.999, 0.9999)


class PowerSeries:
    """Finitely supported Taylor coefficients ``a_0, ..., a_M``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(coeffs, dtype=complex).reshape(-1)
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        self.coeffs = arr

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order})"


def bergman_norm(f: PowerSeries) -> float:
    """Exact disk L2 norm: ``sqrt(2*pi * sum |a_n|**2 / (2n + 2))``."""
    return float(_bergman_norms(f.coeffs))


def _bergman_norms(coeffs: np.ndarray) -> np.ndarray:
    """:func:`bergman_norm` of the Taylor coefficients in each row of ``coeffs``."""
    n = np.arange(coeffs.shape[-1])
    return np.sqrt(2.0 * math.pi * ((np.abs(coeffs) ** 2) / (2 * n + 2)).sum(axis=-1))


def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise InputError(f"radius must lie in (0, 1], got {r}")
    return r


def _radii(radii: Sequence[float]) -> np.ndarray:
    """The checked radii as one float array."""
    return np.array([_check_radius(r) for r in radii], dtype=float)


# The radius ladder's formulas.  Each takes the radii as one array and gives
# one row per radius, bit for bit what a single radius gives: the rows are
# elementwise results, so each reduction runs over one contiguous row.


def _dilations(f: PowerSeries, radii: np.ndarray) -> np.ndarray:
    """Coefficients ``a_n r**n`` of each ``f_r``, ``(radii, order + 1)``."""
    return f.coeffs * radii[:, None] ** np.arange(len(f.coeffs))


def _trace_rows(f: PowerSeries, radii: np.ndarray) -> np.ndarray:
    """Circle spectra of each ``f(r e^{i theta})``, ``(radii, 1, 2 * band + 1)``."""
    band = max(f.order, 1)
    rows = np.zeros((len(radii), 1, 2 * band + 1), dtype=complex)
    # One scalar pow per coefficient: numpy's vectorized power can differ in
    # the last place, which would change every trace-based report.
    powers = [[r**n for n in range(len(f.coeffs))] for r in radii.tolist()]
    rows[:, 0, band : band + len(f.coeffs)] = f.coeffs * np.array(powers)
    rows[rows == 0] = 0  # no negative zeros
    return rows


def _hminus_half_norms(f: PowerSeries, radii: np.ndarray) -> np.ndarray:
    """:func:`hminus_half_boundary_norm` at each radius."""
    n = np.arange(len(f.coeffs))
    weighted = (np.abs(f.coeffs) ** 2) * radii[:, None] ** (2 * n) / (1 + n)
    return np.sqrt(weighted.sum(axis=-1))


def dilate(f: PowerSeries, r: float) -> PowerSeries:
    """``f_r(z) = f(r*z)``: coefficients scaled by ``r**n``."""
    return PowerSeries(_dilations(f, _radii([r]))[0])


def boundary_trace(f: PowerSeries, r: float) -> SpectralField:
    """One-sided circle spectrum of ``f(r e^{i theta})``: ``a_n r**n`` at n >= 0."""
    rows = _trace_rows(f, _radii([r]))
    return SpectralField.from_blade_vectors(1, max(f.order, 1), (0,), rows[0])


def hminus_half_boundary_norm(f: PowerSeries, r: float) -> float:
    """Area-matched boundary norm ``sqrt(sum |a_n|**2 r**(2n) / (1 + n))``."""
    return float(_hminus_half_norms(f, _radii([r]))[0])


@lru_cache(maxsize=32)
def disk_boundary_weights(band: int) -> np.ndarray:
    """Two-sided area-matched H^{-1/2} weights ``(1 + |n|)**(-1/2)`` per mode.

    Shared cached storage, read-only.
    """
    mm = mode_matrix(1, band)
    weights = (1.0 + np.abs(mm[:, 0]).astype(float)) ** -0.5
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=32)
def _boundary_tables(band: int) -> tuple:
    """The checked ``(mask, W, W**2)`` of :func:`disk_boundary_weights`.  Shared, read-only."""
    return _weights_for(1, band, -0.5, False, disk_boundary_weights(band))


def mixed_boundary_norm(f: PowerSeries, r: float, tol: float = 1e-6) -> SumSpaceSplit:
    """Sum-space norm ``L1 + H^{-1/2}`` of the boundary trace at radius ``r``."""
    trace = boundary_trace(f, r)
    return sum_space_norm(trace, -0.5, False, tol, weights=disk_boundary_weights(trace.band))


@dataclass(frozen=True)
class RatioRow:
    r: float
    bergman: float
    l1: float
    hminushalf: float
    mixed: float
    ratio: float


@dataclass(frozen=True)
class RatioReport:
    rows: tuple[RatioRow, ...]
    max_ratio: float
    #: Measured area-matched vs inhomogeneous-convention boundary-norm ratio.
    weight_convention_ratio: float


def bbb_ratio(
    f: PowerSeries, radii: Sequence[float] = RADIUS_LADDER, tol: float = 1e-6
) -> RatioReport:
    """Per-radius ratio ``bergman(f_r) / mixed_boundary_norm(f, r)``.

    The radius ladder is one stack: the trace rows, the dilated Bergman
    norms, the ``H^{-1/2}`` norms, the traces' L1 norms and their Sobolev
    section norms are ``(radii, ...)`` arrays from one pass, and the mixed
    norms come from one :func:`norms._sum_space_rows` call on the trace rows,
    each row bit for bit the value of the single-radius functions; only a
    radius that iterates builds a trace field.  The running max over a corpus
    estimates the constant of the disk inequality; no reference value exists,
    so it is reported, not asserted.
    """
    radii = _radii(radii)
    if not len(radii):
        return RatioReport(rows=(), max_ratio=0.0, weight_convention_ratio=1.0)
    rows = _trace_rows(f, radii)
    band = (rows.shape[-1] - 1) // 2
    bergman = _bergman_norms(_dilations(f, radii)).tolist()
    l1 = _l1_norms(_synthesis(rows, 1, band, default_points(band)), 1)
    hminus = _hminus_half_norms(f, radii).tolist()
    solves = _sum_space_rows(rows, (0,), 1, band, _boundary_tables(band), tol)
    mixed = [value for value, *_ in solves]
    convention_ratios = []
    if not f.is_zero():
        sections = _sobolev_norms(rows, 1, band, -0.5, homogeneous=False)
        convention_ratios = [hm / sn for hm, sn in zip(hminus, sections) if sn > 0]
    report_rows = tuple(
        RatioRow(r=r, bergman=b, l1=g, hminushalf=hm, mixed=m, ratio=b / m if m > 0 else math.inf)
        for r, b, g, hm, m in zip(radii.tolist(), bergman, l1, hminus, mixed)
    )
    finite = [row.ratio for row in report_rows if math.isfinite(row.ratio)]
    return RatioReport(
        rows=report_rows,
        max_ratio=max(finite) if finite else 0.0,
        weight_convention_ratio=float(np.mean(convention_ratios)) if convention_ratios else 1.0,
    )


def random_series(order: int, decay: float, rng: np.random.Generator) -> PowerSeries:
    """Random series with ``|a_n| ~ n**(-decay)`` and uniform phases."""
    order = _count(order, "series order", 0)
    _check_size(order + 1, f"a series of order {order}")
    if not math.isfinite(decay):
        raise InputError(f"decay must be finite, got {decay!r}")
    n = np.arange(order + 1)
    with np.errstate(over="ignore"):
        magnitude = np.maximum(n, 1) ** (-float(decay))
        # The solver squares coefficients; a square that overflows has no norm.
        finite = np.isfinite(magnitude**2).all()
    if not finite:
        raise InputError(f"decay {decay!r} overflows the squared coefficients of order {order}")
    phase = np.exp(2j * math.pi * rng.uniform(size=order + 1))
    return PowerSeries(magnitude * phase)


@dataclass(frozen=True)
class CorpusReport:
    """Per-radius rows of every series in a random corpus, keyed by series id."""

    rows: tuple[tuple[int, RatioRow], ...]
    max_ratio: float
    mean_weight_convention_ratio: float


def verify_bergman(
    corpus_size: int, decay: float, order: int, radii: Sequence[float], tol: float, seed: int
) -> CorpusReport:
    """:func:`bbb_ratio` over ``corpus_size`` random series drawn from one seeded rng.

    Series ``k`` is the ``k``-th draw of ``random_series(order, decay, rng)``
    with ``rng = default_rng(seed)``, so a corpus is a prefix of any larger one.
    """
    corpus_size, order = _count(corpus_size, "corpus size", 1), _count(order, "series order", 0)
    if not radii:
        raise InputError("need at least one radius")
    _grid_shape(1, default_points(max(order, 1)))  # bbb_ratio's grid, refused before any draw
    rng = np.random.default_rng(_count(seed, "seed", 0))
    rows = []
    max_ratio = 0.0
    convention = []
    for series_id in range(corpus_size):
        report = bbb_ratio(random_series(order, decay, rng), radii, tol=tol)
        convention.append(report.weight_convention_ratio)
        for row in report.rows:
            rows.append((series_id, row))
            max_ratio = max(max_ratio, row.ratio)
    return CorpusReport(
        rows=tuple(rows),
        max_ratio=max_ratio,
        mean_weight_convention_ratio=float(np.mean(convention)),
    )
