"""Explicit convolution kernels that invert the squared Dirac operator.

In one dimension the kernel is the sawtooth ``k(x) = x -/+ pi`` with exact
coefficients ``i/n``; halving and negating it gives ``K`` with coefficients
``-i/(2n)``, which inverts ``D**2`` by convolution.  In dimension ``n >= 2``
no closed form is known; the kernel is assembled per direction from the
coefficients ``m_j / |m|**(n+1)`` and its boundedness is checked empirically
by scanning truncation sups over growing bands.

The full series for the directional kernel is only conditionally convergent;
partial evaluations therefore pair ``m_j`` with ``-m_j`` into sine terms and
sum dyadic blocks in increasing level order.  Under a hard cube truncation the
block order is irrelevant (finite sum), so truncated kernels may equally be
synthesized by the inverse transform.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError
from .operators import _symbol_table
from .spectral import (SpectralField, _check_shape, default_points, freq_norm,
                       inverse_transform, mode_matrix)

#: Sup-ratio threshold between consecutive bands above which a scan reports
#: divergence.  No reference constant exists for the sup growth; the
#: threshold is a toolkit convention.
DIVERGENCE_RATIO = 1.25

#: Most cells of a kernel's default grid; a complex plane of 2**26 cells is 1 GiB.
MAX_GRID_CELLS = 2**26

_KINDS = ("sawtooth", "K", "direction")


@dataclass(frozen=True)
class KernelSpec:
    """Descriptor of a truncated kernel: dimension, band, flavor, direction.

    ``kind`` is one of ``"sawtooth"`` (1-D, coefficients ``i/n``), ``"K"``
    (coefficients ``-i/(2n)`` in 1-D, grade-1 ``m/(2i*|m|**(n+1))`` in n-D)
    and ``"direction"`` (scalar ``m_j/|m|**(n+1)``, needs ``direction``).
    """

    dim: int
    band: int
    kind: str = "direction"
    direction: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}; expected {_KINDS}")
        if self.kind == "sawtooth" and self.dim != 1:
            raise InputError("the sawtooth kernel is one-dimensional")
        if self.kind == "direction":
            axis = self.direction if self.direction is not None else 1
            if not 1 <= axis <= self.dim:
                raise InputError(f"direction {axis} out of range 1..{self.dim}")
        _check_shape(self.dim, self.band)
        cells = default_points(self.band) ** self.dim
        if cells > MAX_GRID_CELLS:
            raise InputError(f"band {self.band} in dimension {self.dim} needs a grid of "
                             f"{cells} cells, more than {MAX_GRID_CELLS}")

    def build(self) -> SpectralField:
        """The kernel's coefficients; an n-D ``K`` table is built outside the symbol-table cache."""
        if self.kind == "sawtooth":
            return sawtooth_field(self.band)
        if self.kind == "K":
            if self.dim == 1:
                return kernel_K_1d(self.band)
            return _symbol_table.__wrapped__(self.dim, self.band, "invD2")
        axis = self.direction if self.direction is not None else 1
        if self.dim == 1:
            # 1-D direction form m/|m|**2 = 1/m = 2i * K; same magnitudes as the sawtooth.
            return kernel_K_1d(self.band).scale(2j)
        return kernel_component_nd(self.dim, axis, self.band)


# -- one dimension --------------------------------------------------------------


def sawtooth_eval(x):
    """Closed-form sawtooth: ``x + pi`` for ``x < 0``, ``x - pi`` for ``x > 0``.

    2*pi-periodic; the jump at ``x = 0`` takes the symmetric midpoint value 0.
    Accepts scalars or arrays.
    """
    theta = np.mod(np.asarray(x, dtype=float), 2.0 * np.pi)
    out = theta - np.pi
    out = np.where(theta == 0.0, 0.0, out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def sawtooth_field(band: int) -> SpectralField:
    """Band truncation of the sawtooth: coefficients ``i/n`` for ``0 < |n| <= N``."""
    return kernel_K_1d(band).scale(-2.0)


def kernel_K_1d(band: int) -> SpectralField:
    """The 1-D inverting kernel ``K = -k/2``: coefficients ``-i/(2n)``.

    This is the symbol of ``invert_D2`` on the circle.
    """
    if band < 1:
        raise InputError("band must be >= 1")
    return _symbol_table(1, band, "invD2")


# -- n dimensions ----------------------------------------------------------------


def kernel_component_nd(dim: int, axis: int, band: int) -> SpectralField:
    """Directional kernel coefficients ``m_j / |m|**(n+1)`` on the band cube.

    The bits of ``2i`` times the ``e_axis`` row of :func:`kernel_K_nd`, which is not built.
    """
    if dim < 2:
        raise InputError("directional kernel needs dim >= 2 (use the 1-D kernel)")
    if not 1 <= axis <= dim:
        raise InputError(f"axis {axis} out of range 1..{dim}")
    mm = mode_matrix(dim, band)
    norm = np.sqrt((mm**2).sum(axis=1))
    origin = norm == 0
    norm[origin] = 1.0  # any positive value; the origin is zeroed below
    row = 2j * (-0.5j * (mm[:, axis - 1] / norm ** (dim + 1)))
    row[origin] = 0
    return SpectralField.from_blade_vectors(dim, band, (0,), row[None], zero_mean=True)


def kernel_K_nd(dim: int, band: int) -> SpectralField:
    """Grade-1 kernel ``K_hat(m) = m / (2i * |m|**(n+1))`` inverting ``D**2``.

    This is the symbol of ``invert_D2``, so
    ``invert_D2(g) = (2*pi)**-n * convolve(K, g)`` on the band.
    """
    if dim < 2:
        raise InputError("use kernel_K_1d in one dimension")
    return _symbol_table(dim, band, "invD2")


# -- dyadic blocks -----------------------------------------------------------------


def dyadic_range(level: int) -> tuple[int, int]:
    """Integer endpoints of the half-open dyadic interval ``[2**(k-1), 2**k)``.

    Level 0 covers ``[1/2, 1)`` and contains no positive integer; for radial
    levels the value 0 is assigned to level 0 (``|m~| < 1``).
    """
    if level < 0:
        raise InputError("dyadic level must be >= 0")
    if level == 0:
        return 1, 0  # empty integer range
    return 2 ** (level - 1), 2**level - 1


def _radial_block(level: int, width: int) -> list[tuple[int, ...]]:
    """Lattice points of ``Z**width`` with ``|m~|`` in the dyadic level."""
    if width == 0:
        return [()] if level == 0 else []
    if level == 0:
        return [(0,) * width]
    lo, hi = 2 ** (level - 1), 2**level
    out = []
    for mt in itertools.product(range(-hi + 1, hi), repeat=width):
        norm = math.sqrt(sum(v * v for v in mt))
        if lo <= norm < hi:
            out.append(mt)
    return out


def dyadic_block_sum(
    dim: int,
    axis: int,
    k1: int,
    ktilde: int,
    x: Sequence[float],
    band: int | None = None,
) -> complex:
    """One dyadic block of the paired-sine kernel series at the point ``x``.

    Sums ``2i * m_j/|m|**(n+1) * sin(m_j x_j) * exp(i<m~, x~>)`` over
    ``m_j in [2**(k1-1), 2**k1)`` and ``|m~|`` in the ``ktilde`` level, where
    ``m~`` collects the remaining coordinates.  Diagnostic for the
    boundedness argument; blocks intersected with a cube reproduce the
    truncated kernel when summed in increasing level order.
    """
    if dim < 1:
        raise InputError("dim must be >= 1")
    if not 1 <= axis <= dim:
        raise InputError(f"axis {axis} out of range 1..{dim}")
    x = tuple(float(v) for v in x)
    if len(x) != dim:
        raise InputError(f"point has {len(x)} coordinates, expected {dim}")
    lo, hi = dyadic_range(k1)
    xj = x[axis - 1]
    others = tuple(i for i in range(dim) if i != axis - 1)
    x_tilde = tuple(x[i] for i in others)
    total = 0j
    for mj in range(lo, hi + 1):
        if band is not None and mj > band:
            continue
        for mt in _radial_block(ktilde, dim - 1):
            if band is not None and any(abs(v) > band for v in mt):
                continue
            m = [0] * dim
            m[axis - 1] = mj
            for i, v in zip(others, mt):
                m[i] = v
            norm = freq_norm(tuple(m))
            phase = sum(v * xv for v, xv in zip(mt, x_tilde))
            total += (
                2j
                * (mj / norm ** (dim + 1))
                * math.sin(mj * xj)
                * complex(math.cos(phase), math.sin(phase))
            )
    return total


def kernel_point_eval_dyadic(
    dim: int, axis: int, band: int, x: Sequence[float]
) -> complex:
    """Truncated directional kernel at one point via ordered dyadic blocks."""
    max_level = band.bit_length() + 1
    total = 0j
    for k1 in range(max_level + 1):
        lo, _ = dyadic_range(k1)
        if k1 > 0 and lo > band:
            break
        for ktilde in range(max_level + 1):
            total += dyadic_block_sum(dim, axis, k1, ktilde, x, band=band)
    return total


# -- boundedness scans ---------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    band: int
    sup: float
    ratio: float | None


@dataclass(frozen=True)
class ScanReport:
    spec: KernelSpec
    rows: tuple[ScanRow, ...]
    diverging: bool


def sup_norm_scan(spec: KernelSpec, bands: Sequence[int]) -> ScanReport:
    """Empirical sup of truncated kernels on the default grid of each band.

    Flags divergence when the sup grows by more than ``DIVERGENCE_RATIO``
    between consecutive bands.  Every band is validated before the first is
    built, and only one band's coefficients, grid and magnitude are held:
    n-D ``K`` tables are built outside the symbol-table cache.
    """
    bands = [int(b) for b in bands]
    if any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
        raise InputError("bands must be strictly increasing")
    specs = [replace(spec, band=band) for band in bands]
    rows: list[ScanRow] = []
    previous: float | None = None
    diverging = False
    for kernel in specs:
        sup = float(inverse_transform(kernel.build()).magnitude().max())
        ratio = None
        if previous is not None and previous > 0:
            ratio = sup / previous
            if ratio > DIVERGENCE_RATIO:
                diverging = True
        rows.append(ScanRow(band=kernel.band, sup=sup, ratio=ratio))
        previous = sup
    return ScanReport(spec=spec, rows=tuple(rows), diverging=diverging)
