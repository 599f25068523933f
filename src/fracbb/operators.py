"""Fourier multiplier operators on band-limited torus fields.

Covers the fractional Laplacian ``|m|**(2s)``, the Riesz transforms
``+/- i*m_j/|m|``, and the Dirac-type operators

    D    : symbol |m|**(n/2) * (1 + sum_j e_j * i*m_j/|m|)
    Dbar : symbol |m|**(n/2) * (1 - sum_j e_j * i*m_j/|m|)

together with closed-form inverses of ``D`` and ``D**2``.  In one dimension
the Dirac symbols reduce to the scalar form ``|m|**(1/2) * (1 +/- i*sign(m))``
and no Clifford generators appear.

Every symbol has grade at most 1.  It is tabulated once per
``(dim, band, operator)`` as a zero-mean field and applied by the one
per-mode product of blade rows, :func:`spectral._mode_product`, to a field
or, in the experiments and the decomposition, to a stack of rows.  So every
multiplier sends the ``m = 0`` mode to zero (the calculus works modulo means
throughout); symbols left-multiply the coefficients, which matters for
Clifford-valued fields.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InputError, _count
from .spectral import (SpectralField, _field_product, _mode_product, _require_zero_mean,
                       mode_matrix)


@lru_cache(maxsize=64, typed=True)  # typed: a band of 4.0 or True reaches the shape check
def _symbol_table(dim: int, band: int, op: str, param=None) -> SpectralField:
    """Symbol of one multiplier on the band cube, as a read-only zero-mean field.

    ``op`` is ``"fraclap"`` (``param`` = s), ``"riesz"`` (``param`` =
    (axis, conjugated)), ``"D"``, ``"Dbar"``, ``"invD"`` or ``"invD2"``.
    Each symbol is ``scalar + sum_j e_j * vector_j``; in one dimension ``e_1``
    acts as the unit, so the two parts add.  The ``m = 0`` entry is zero.
    """
    mm = mode_matrix(dim, band)
    norm = np.sqrt((mm**2).sum(axis=1))
    origin = norm == 0
    norm[origin] = 1.0  # any positive value; the origin column is zeroed below
    unit = mm / norm[:, None]
    scalar, vector = 0.0, np.zeros(mm.shape)
    if op == "fraclap":
        with np.errstate(over="ignore"):
            scalar = norm ** (2.0 * param)
    elif op == "riesz":
        axis, conjugated = param
        scalar = (-1j if conjugated else 1j) * unit[:, axis - 1]
    elif op in ("D", "Dbar"):
        scalar = norm ** (dim / 2.0)
        vector = (1j if op == "D" else -1j) * scalar[:, None] * unit
    elif op == "invD":
        # (1 + v)*(1 - v) = 1 - v**2 = 2 for the unit v in the D symbol.
        scalar = 0.5 / norm ** (dim / 2.0)
        vector = -1j * scalar[:, None] * unit
    elif op == "invD2":
        # D(D(.)) has symbol 2i*|m|**(n-1)*m; its inverse is m/(2i*|m|**(n+1)).
        vector = -0.5j * (mm / (norm ** (dim + 1))[:, None])
    else:
        raise InputError(f"unknown multiplier {op!r}")
    if dim == 1:
        masks, rows = (0,), [scalar + vector[:, 0]]
    else:
        masks = (0,) + tuple(1 << j for j in range(dim))
        rows = [np.broadcast_to(scalar, norm.shape), *vector.T]
    data = np.array(rows, dtype=complex)
    data[:, origin] = 0
    return SpectralField.from_blade_vectors(dim, band, masks, data)


def _apply(u: SpectralField, op: str, param=None) -> SpectralField:
    return _field_product(_symbol_table(u.dim, u.band, op, param), u)


def _fraclap_rows(masks, rows: np.ndarray, dim: int, band: int, s: float) -> np.ndarray:
    """``|m|**(2s)`` times rows ``(..., blades, modes)`` of ``masks``; overflow is an InputError."""
    symbol = _symbol_table(dim, band, "fraclap", float(s))
    with np.errstate(over="ignore", invalid="ignore"):
        _, out = _mode_product(symbol.masks, symbol.data, masks, rows)
    if not np.isfinite(out).all():
        raise InputError(f"fractional Laplacian with exponent {s} overflows on band {band}")
    return out


def fractional_laplacian(u: SpectralField, s: float) -> SpectralField:
    """Coefficientwise multiplication by ``|m|**(2s)``; the mean is annihilated.

    A non-finite ``s``, or a result that overflows, is an input error.
    """
    if not (math.isfinite(s) and s > 0):
        raise InputError(f"fractional exponent must be positive and finite, got {s}")
    return u._with(u.masks, _fraclap_rows(u.masks, u.data, u.dim, u.band, s))


def riesz(u: SpectralField, axis: int = 1, conjugated: bool = False) -> SpectralField:
    """Riesz transform along ``axis``: multiplier ``+/- i*m_j/|m|``."""
    return _apply(u, "riesz", (_count(axis, "axis", 1, u.dim), bool(conjugated)))


def dirac_D(u: SpectralField) -> SpectralField:
    """Dirac operator: coefficients left-multiplied by the D symbol."""
    return _apply(u, "D")


def dirac_Dbar(u: SpectralField) -> SpectralField:
    """Conjugate Dirac operator (Riesz part entering with a minus sign)."""
    return _apply(u, "Dbar")


def invert_D(f: SpectralField) -> SpectralField:
    """Solve ``D F = f`` exactly on the band for zero-mean ``f``.

    Uses ``(1 + v)*(1 - v) = 1 - v**2 = 2`` for the unit ``v`` in the symbol,
    so the inverse symbol is ``(1 - v) / (2*|m|**(n/2))``.  The solution
    satisfies ``||F||_{L2} <= ||f||_{H^{-n/2}-dot}`` coefficientwise.
    """
    _require_zero_mean(f.data, "invert_D")
    return _apply(f, "invD")


def invert_D2(g: SpectralField) -> SpectralField:
    """Solve ``D(D(w)) = g`` on the band for zero-mean ``g``.

    The squared-Dirac symbol collapses to the grade-1 form ``2i*|m|**(n-1)*m``,
    whose inverse is the bounded-kernel multiplier ``m / (2i*|m|**(n+1))``
    (``-i/(2m)`` in one dimension).
    """
    _require_zero_mean(g.data, "invert_D2")
    return _apply(g, "invD2")
