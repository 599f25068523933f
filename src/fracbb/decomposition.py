"""Constructive decomposition of zero-mean fields through the Riesz system.

Given zero-mean ``g`` on the n-torus, produces ``f_0, ..., f_n`` with

    g = (-Lap)^{n/4} f_0 + sum_{j=1..n} (-Lap)^{n/4} R~_j f_j,

where ``R~_j`` is the conjugated Riesz transform by default (plain Riesz
behind the flag).  Each frequency solves its 1 x (n+1) linear constraint by
the minimum-norm right inverse, which is linear, exact on the band, and
realizes the norm bound with an explicit constant:

    sum_j ||f_j||_{H^{n/2}-dot}**2 == ||g||**2 / 2   (coefficient norms),

so the aggregate ratio is exactly ``1/sqrt(2)``; the summed ratio is bounded
by ``sqrt(n+1)/sqrt(2)`` via Cauchy-Schwarz (diagonal single modes attain
``(1 + sqrt(n))/2``).

The solve works on the ``(n + 1, 1, modes)`` stack of the parts' coefficient
rows, through the per-mode product of the public operators and in their order,
so every number keeps their bits; the sup norms synthesize one part's grid at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .norms import _sobolev_norms
from .operators import _fraclap_rows, _symbol_table
from .spectral import (SpectralField, _mode_product, _require_zero_mean, _synthesis,
                       default_points)

@dataclass(frozen=True)
class DecompositionResult:
    """Parts, reconstruction residual, and norm report of one solve."""

    parts: tuple[SpectralField, ...]
    residual: float
    sobolev_norms: tuple[float, ...]
    sup_norms: tuple[float, ...]
    #: sqrt(sum of squared part norms) / ||g||; exactly 1/sqrt(2) for the
    #: minimum-norm solve.
    bound_ratio: float
    #: (sum of part norms) / ||g||; bounded by sqrt(n+1)/sqrt(2).
    sum_ratio: float
    conjugated_riesz: bool

    @property
    def dim(self) -> int:
        return self.parts[0].dim


def solve_decomposition(
    g: SpectralField, conjugated_riesz: bool = True
) -> DecompositionResult:
    """Minimum-norm per-frequency solve of the (n+1)-part decomposition.

    With the conjugated flavor the coefficients are
    ``f0_hat = g_hat / (2 |m|**(n/2))`` and
    ``fj_hat = (i m_j / |m|) * g_hat / (2 |m|**(n/2))``; the plain flavor
    flips the sign of the Riesz parts.  Reconstruction is exact on the band.
    """
    _require_zero_mean(g.data, "decomposition")
    if not g.is_scalar():
        raise InputError("decomposition expects a complex scalar field")
    dim, band, s = g.dim, g.band, g.dim / 4.0
    riesz = partial(_symbol_table, dim, band, "riesz")  # scalar symbols: one row, blade 0
    half_inverse = 0.5 * _symbol_table(dim, band, "fraclap", -s).data
    rows = np.empty((dim + 1,) + g.data.shape, dtype=complex)
    rows[0] = _mode_product((0,), half_inverse, (0,), g.data)[1]
    images = rows.copy()  # f_0 and R~_j f_j, the inputs of (-Lap)^{n/4}
    for j in range(1, dim + 1):
        rows[j] = _mode_product((0,), riesz((j, not conjugated_riesz)).data, (0,), rows[0])[1]
        images[j] = _mode_product((0,), riesz((j, conjugated_riesz)).data, (0,), rows[j])[1]
    terms = _fraclap_rows((0,), images, dim, band, s)
    residual = float(np.linalg.norm(sum(terms[1:], terms[0]) - g.data))
    sob = tuple(_sobolev_norms(rows, dim, band, dim / 2.0, True))
    points = default_points(band)  # one part's grid at a time; sqrt commutes with max
    sups = tuple(
        math.sqrt((np.abs(_synthesis(row, dim, band, points)) ** 2).max()) for row in rows
    )
    g_norm = g.l2_coefficient_norm()
    if g_norm > 0:
        bound_ratio = math.sqrt(sum(v * v for v in sob)) / g_norm
        sum_ratio = sum(sob) / g_norm
    else:
        bound_ratio = 0.0
        sum_ratio = 0.0
    return DecompositionResult(
        parts=tuple(g._with((0,), row) for row in rows),
        residual=residual,
        sobolev_norms=sob,
        sup_norms=sups,
        bound_ratio=bound_ratio,
        sum_ratio=sum_ratio,
        conjugated_riesz=conjugated_riesz,
    )

