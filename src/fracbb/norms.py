"""Norms: quadrature L1/L2, coefficient Sobolev norms, and sum-space norms.

The sum-space norm of a band-limited field is the infimal convolution

    ||f|| = inf { ||g||_L1 + ||h||_{H^s} : g + h = f },

discretized with ``g`` living on the quadrature grid (where L1 is local) and
``h`` on the coefficient table (where the Sobolev norm is diagonal).  With
``A`` the band-limited forward transform, ``W`` the Sobolev weights
(``W**2`` is the weight of the norm) and ``w`` the quadrature weight, a dual
point ``p`` on the coefficients bounds the optimum from below by
``-Re<p, f_hat>`` once it is feasible: ``|A* p|(x) <= w`` at every grid
point and ``||p / W|| <= 1``.  Every answer carries this duality-gap
certificate: the reported value is the cost of a feasible split, a dual point
scaled into feasibility gives the lower bound, and ``gap >= 0`` is their
difference.  One routine computes it for every split, the closed-form one
and each Newton step's undamped point, so one certificate judges them all.

The pure-Sobolev split ``g = 0, h = f`` is checked first, in closed form.
The only dual point that can certify it maximizes the Sobolev dual term:
``p0 = -W**2 f_hat / ||W f_hat||``, zero on a mean mode that ``h`` may not
occupy.  The split is proven optimal when ``max_x |A* p0|(x) <= w``, the KKT
condition of the infimal convolution.  (With the mean mode excluded the dual
entry there is free, so fixing it at zero makes the check sufficient rather
than necessary.)  As ``|A* p0|(x) / w <= sum_m |p0_m| / (2 pi)**n`` at every
``x``, a triangle bound below 1 settles the check with no transform, for the
continuum problem as well as the grid's; otherwise one adjoint checks the grid
nodes.  With the genuine ``H^{-n/2}`` weights every field at desk-scale bands
passes.  The split's ``h`` is ``f`` on the modes ``h`` may occupy, signs of
zero included, so no forward map or mean repair runs.  The default weights'
tables are cached.

The array core :func:`_sum_space_rows` runs this check for a stack of
coefficient rows ``(fields, blades, modes)`` on one set of blades and checked
weight tables, with at most one adjoint and one certificate call; a Newton
step is a stack of one.  :func:`sum_space_norm` builds the tables and
makes its one row a split; the experiment loops pass cached tables and read
the rows as they are.  Each field keeps the bits of its own check: every
per-field sum runs over one C-contiguous row, in the order a single field's
sum takes (its masked columns mode by mode, as numpy lays them out), and the
transform pair applies one matrix product per field, because BLAS rounds a
one-row product (its matrix-vector kernel) differently from a many-row one.

Otherwise a primal-dual interior-point method solves the dual as a
second-order-cone program: minimize ``Re<p, f_hat>`` subject to ``(1, A*
p(x) / w)`` in a Lorentz cone at every grid point (dividing by ``w`` keeps
each cone of order one) and ``(1, p / W)``, over the active modes, in one
more.  Its Mehrotra predictor-corrector steps with Nesterov-Todd scaling
follow the embedded conic solvers ECOS (Domahidi, Chu and Boyd, ECC 2013)
and CVXOPT's ``coneqp`` (Andersen, Dahl and Vandenberghe), in numpy, with
the cones' vector parts stored as real arrays.  The slack ``s`` and the
multiplier ``z``, like their steps, are stacked end to end as one point of
a doubled cone product, so the interior test, the scaling, both step
lengths (one maximum) and each move are one pass; each per-cone sum adds
the same entries in the same order as for one point, so the bits are those
of two passes.  The Newton matrix ``G^T W^-2 G`` comes from the transform's
structure: its grid block depends on the modes only through ``m - n`` and
``m + n``, so one forward transform at band ``2N`` of per-cell arrays gives
every entry, placed by cached gather tables.  The Sobolev cone adds its
dense block, and a Cholesky factorization checks the matrix.  A dense step
and its certificate take about 0.43 ms at 34-42 real unknowns (one BLAS
thread, shared 2-CPU host), mostly the fixed cost of small numpy calls;
the two LU solves and the Cholesky check are about 0.07 ms of it.
The cones, their pair and the weight-free Newton tables are built once per
shape, and each scaling binds its tables once, so its methods only do
arithmetic.  Above ``_DENSE_NEWTON_MAX_UNKNOWNS`` real dual unknowns (``2 *
blades * modes``) conjugate gradients solve the Newton systems instead, as
in Gondzio's matrix-free interior-point method (Comput. Optim. Appl. 51,
2012); a product is one adjoint and one forward transform.  The primal
split is an output: the vector part of grid cone ``x``'s multiplier,
divided by ``w``, is ``g(x)``.  The steps start, as CVXOPT's and ECOS's do,
from a point that meets both equality constraints, here in closed form
because ``G^T G`` is diagonal, so only complementarity is left to close:
the multiplier lies halfway between the least-norm one and the closed-form
split's.  Each step moves to the damped point but is judged at the undamped
one, which near the optimum lies about one step further along.  The frozen
mixed instances certify at tol 1e-6 in 7-8 steps.

Near tight tolerances roundoff puts a damped point on a cone's boundary or
takes the Cholesky factor from the Newton matrix.  Two end-game repairs in
the manner of ECOS's keep the steps going to gaps of 1e-12: the point is
lifted back inside, and the matrix gets a small diagonal shift.  Neither
touches a step that needs neither, and the certificate prices every
undamped point by itself, so neither can make a reported bound wrong.

The coupling pair ``A``/``A*`` is :func:`spectral._coupling`, the package's
one transform pair, built once per stack and once per field that iterates.
Each Newton step costs two adjoints: ``A* p`` of the damped point, for the
next step's residual, and ``A* (p + dp)`` for its certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import ConvergenceError, InputError, InvariantViolation, _count
from .spectral import (
    GridField,
    SpectralField,
    TWO_PI,
    _coupling,
    _grid_shape,
    _mean_column,
    _mode_columns,
    _require_zero_mean,
    default_points,
    mode_matrix,
)


def l1_norm(u: GridField) -> float:
    """Uniform-grid quadrature of ``integral ||u(x)|| dx``."""
    return _l1_norms(u.data[None], u.dim)[0]


def _l1_norms(planes: np.ndarray, dim: int) -> list[float]:
    """:func:`l1_norm` of each field of grid planes ``(fields, blades) + (P,)*dim``."""
    magnitude = np.sqrt(np.add.reduce(np.abs(planes) ** 2, axis=1))
    return (((TWO_PI / planes.shape[-1]) ** dim) * _row_sums(magnitude)).tolist()


def l2_norm(u: GridField) -> float:
    """Uniform-grid quadrature of ``(integral ||u(x)||**2 dx)**(1/2)``."""
    return float(math.sqrt(u.quadrature_weight() * (u.magnitude() ** 2).sum()))


def sobolev_norm(u: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Weighted coefficient norm: ``|m|**(2s)`` or ``(1 + |m|**2)**s`` weights.

    The homogeneous variant always excludes the mean; for ``s < 0`` it
    rejects fields with a nonzero mean coefficient (undefined weight at 0).
    A non-finite ``s``, or one whose weights or weighted sum overflow on the
    band, is an input error.
    """
    return _sobolev_norms(u.data[None], u.dim, u.band, s, homogeneous)[0]


def _sobolev_norms(
    rows: np.ndarray, dim: int, band: int, s: float, homogeneous: bool
) -> list[float]:
    """:func:`sobolev_norm` of each field of coefficient rows ``(fields, blades, modes)``."""
    if not math.isfinite(s):
        raise InputError(f"Sobolev exponent must be finite, got {s!r}")
    if homogeneous and s < 0:
        _require_zero_mean(rows, "a homogeneous norm with negative exponent")
    power = (np.abs(rows) ** 2).sum(axis=1)
    weights, active = _sobolev_weights(dim, band, s, homogeneous)
    if homogeneous:
        power = np.compress(active, power, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = _row_sums(weights * power).tolist()
    if not all(map(math.isfinite, totals)):
        raise InputError(f"Sobolev norm with exponent {s!r} overflows on band {band}")
    return [math.sqrt(total) for total in totals]


@lru_cache(maxsize=32, typed=True)  # numpy's ``x ** s`` shortcuts depend on type(s)
def _sobolev_weights(dim: int, band: int, s: float, homogeneous: bool) -> tuple:
    """``(|m|**(2s) or (1 + |m|**2)**s on the active modes, active)``; read-only.

    ``active`` masks the modes other than a homogeneous norm's mean.
    """
    norm_sq = (mode_matrix(dim, band) ** 2).sum(axis=1).astype(float)
    base = norm_sq if homogeneous else 1.0 + norm_sq
    active = base > 0
    with np.errstate(over="ignore", invalid="ignore"):
        weights = base[active] ** s
    for table in (weights, active):
        table.flags.writeable = False
    return weights, active


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each ``x[i]`` over one C-contiguous row, as ``x[i].sum()`` adds it.

    numpy sums a contiguous row pairwise; a strided or transposed layout can
    add in another order and move the last bit.
    """
    return np.add.reduce(np.ascontiguousarray(x).reshape(len(x), -1), axis=1)


@dataclass
class SumSpaceSplit:
    """A feasible split ``f = g + h`` with its cost and optimality certificate.

    ``value`` is the achieved ``||g||_L1 + ||h||_{H^s}``; ``gap`` the
    duality-gap certificate (0 means proven optimal on the discretization).
    ``iterations`` counts Newton steps, and ``path`` names the method that
    produced the split: ``"closed-form"`` or ``"interior-point"``.
    """

    g: GridField
    h: SpectralField
    value: float
    gap: float
    iterations: int
    path: str


def _weights_for(
    dim: int,
    band: int,
    s: float,
    homogeneous: bool,
    weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight tables of a solve: ``(mask, W, W**2)``.

    ``mask`` marks the modes ``h`` may occupy, where the Sobolev weights
    ``W`` are checked, and so is ``W**2``, as normal floats; ``W`` is 1 off
    it.  The tables are read-only.  The default weights' tables are cached;
    array weights are checked on every call.
    """
    if weights is None:
        return _default_weights(dim, band, float(s), homogeneous)
    w = np.asarray(weights, dtype=float)
    modes = (2 * band + 1) ** dim
    if w.shape != (modes,):
        raise InputError(f"weights must have one entry per mode ({modes}), got {w.shape}")
    mask = np.ones(len(w), dtype=bool)
    if homogeneous:
        _mean_column(mask)[...] = False
    active = w[mask]
    if not ((active > 0).all() and np.isfinite(active).all()):  # a NaN fails both
        raise InputError("Sobolev weights must be positive and finite on active modes")
    masked = np.where(mask, w, 1.0)
    with np.errstate(over="ignore"):
        squares = masked**2
    if not (np.isfinite(squares).all() and squares.min() >= np.finfo(float).tiny):
        raise InputError("sum-space norm: the squared weights W**2 overflow or underflow")
    tables = mask, masked, squares
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=32)
def _default_weights(dim: int, band: int, s: float, homogeneous: bool) -> tuple:
    """:func:`_weights_for` of the ``H^s`` weights.  Shared cached storage, read-only."""
    # W multiplies h_hat inside an l2 norm, so W**2 must be the Sobolev
    # weight |m|**(2s), resp. (1 + |m|**2)**s: W is the weight of H^(s/2).
    half, active = _sobolev_weights(dim, band, s / 2.0, homogeneous)
    w = np.ones(len(active))
    w[active] = half
    return _weights_for(dim, band, s, homogeneous, w)


#: Largest number of real dual unknowns, ``2 * blades * modes``, for which
#: the Newton matrix is formed and factored; above it conjugate gradients
#: solve the Newton systems, which need no shift.  The crossover, on
#: 1-D all-ones fields at ``s = 0.25`` and tol 1e-6 (2-CPU machine, one BLAS
#: thread): 156 ms dense vs 203 ms CG at 322 unknowns, 227 vs 191 at 386.
_DENSE_NEWTON_MAX_UNKNOWNS = 352
#: Lifts per solve of a point off the cones' interior, or of a pair without a
#: Nesterov-Todd scaling: each cone's scalar part becomes at least ``1 +
#: _LIFT_MARGIN`` times the length of its vector part.  Caps of 1-4 all
#: certify the hard corpus at tol 1e-12.
_MAX_LIFTS = 3
_LIFT_MARGIN = 1e-10
#: Diagonal shifts, as fractions of the mean diagonal entry, tried in turn on
#: a dense Newton matrix until one has a Cholesky factor; roundoff near the
#: optimum can leave the unshifted matrix (0) without one.
_NEWTON_SHIFTS = (0.0, 1e-12, 1e-10, 1e-8)
#: Fraction of the distance to the cone boundary that a Newton step covers.
_STEP_FRACTION = 0.99
#: Relative margin of the starting multiplier: each cone's scalar part is
#: ``max(1, margin * |z_u|)``.  Chosen by step counts: margins 2-6 all beat
#: the identity start, and 6 took the fewest steps, or tied for them, on the
#: mixed instances, the hard corpus at tol 1e-9 and the conjugate-gradient
#: inputs.
_START_MARGIN = 6.0
#: How far the starting multiplier's vector part lies from the least-norm
#: solution of ``G^T z = -f`` (0) towards the closed-form split's multiplier
#: (1).  Of 0, 1/4, 1/2, 3/4 and 1, halfway took the fewest Newton steps in
#: all, at tol 1e-6, 1e-9 and 1e-12, over 51 iterating inputs: the mixed
#: instances, seeded mixed fields, the hard corpus and flat point masses.
_START_BLEND = 0.5


class _LorentzCones:
    """A product of second-order cones ``{(t, u) : |u| <= t}``.

    A point is a pair ``(t, u)``: ``t`` holds one real per cone, and the real
    array ``u`` holds the vector parts of all cones end to end, entry ``k``
    belonging to cone ``ids[k]``.  Two points end to end are one point of :attr:`pair`.
    """

    def __init__(self, ids: np.ndarray, count: int):
        self.ids, self.count, self.size = ids, count, len(ids)

    @cached_property
    def pair(self) -> "_LorentzCones":
        """Two copies of these cones end to end."""
        return _LorentzCones(np.concatenate((self.ids, self.ids + self.count)), 2 * self.count)

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Inner product of two vector parts, one per cone."""
        return np.bincount(self.ids, u * v, self.count)

    def lorentz(self, x, norm_sq=None) -> np.ndarray:
        """``t**2 - |u|**2`` per cone, factored to stay accurate near the boundary;
        ``norm_sq``, if given, is ``|u|**2`` as :meth:`dot` has it."""
        r = np.sqrt(self.dot(x[1], x[1]) if norm_sq is None else norm_sq)
        return (x[0] - r) * (x[0] + r)

    def product(self, x, y):
        """Jordan product ``x o y = (t_x t_y + u_x.u_y, t_x u_y + t_y u_x)``."""
        return (
            x[0] * y[0] + self.dot(x[1], y[1]),
            x[0][self.ids] * y[1] + y[0][self.ids] * x[1],
        )


@lru_cache(maxsize=8)
def _sum_space_cones(blades: int, cells: int, active: int) -> _LorentzCones:
    """The cones of the dual program: one per grid cell, then the Sobolev cone.

    The vector parts are the real views of the complex arrays ``(blades,
    cells)`` (grid cone ``x`` holds column ``x``) and ``(blades, active)``.
    Shared cached storage, :attr:`~_LorentzCones.pair` included; read-only.
    """
    grid = np.repeat(np.tile(np.arange(cells), blades), 2)
    cones = _LorentzCones(np.concatenate([grid, np.full(2 * blades * active, cells)]), cells + 1)
    for ids in (cones.ids, cones.pair.ids):
        ids.flags.writeable = False
    return cones


def _stacked(x, y):
    """The points ``x`` and ``y`` end to end, one point of ``cones.pair``."""
    return np.concatenate((x[0], y[0])), np.concatenate((x[1], y[1]))


class _NTScaling:
    """Nesterov-Todd scaling ``W`` of two points ``s``, ``z`` inside the cones.

    Per cone ``W = beta * L(w)``, with ``L(w)`` the hyperbolic rotation of a
    point ``w = (wt, wu)`` of unit Lorentz norm, chosen so that ``W z`` and
    ``W^-1 s`` are one point ``lam``.  The vector block of ``W^-2`` is
    ``(I + 2 wu wu^T) / beta**2``.  ``s`` and ``z``, like the steps ``ds``
    and ``dz``, come stacked as one point of ``cones.pair``.  Every table the
    methods read is built here, once a step, so that they only do arithmetic.
    """

    def __init__(self, cones: _LorentzCones, sz):
        """Raise :class:`ZeroDivisionError` if ``s`` or ``z`` is not inside the
        cones, or if the pair has no scaling in floating point.
        """
        ids, pair_ids, count, size = cones.ids, cones.pair.ids, cones.count, cones.size
        t, u = sz
        lorentz = cones.pair.lorentz(sz)
        if not np.minimum.reduce(lorentz) > 0:  # also false on a NaN
            raise ZeroDivisionError("a point is not inside the cones")
        n = np.sqrt(lorentz)
        n_at = n[pair_ids]
        unit_t, unit_u = t / n, u / n_at
        st, zt, su, zu = unit_t[:count], unit_t[count:], unit_u[:size], unit_u[size:]
        ns, nz = n[:count], n[count:]
        gamma_sq = (1.0 + st * zt + np.bincount(ids, su * zu, count)) / 2.0
        if not np.minimum.reduce(gamma_sq) > 0:  # also false on a NaN
            raise ZeroDivisionError("Nesterov-Todd gamma, at least 1 exactly, rounded to 0")
        gamma = np.sqrt(gamma_sq)
        two_gamma, root, sum_t = 2.0 * gamma, np.sqrt(ns * nz), st + zt
        scale = root / (sum_t + two_gamma)
        self.cones, self._ids, self._pair_ids, self._count = cones, ids, pair_ids, count
        self.beta = beta = np.sqrt(ns / nz)
        self.wt = wt = sum_t / two_gamma
        self.wu = (su - zu) / two_gamma[ids]
        lam_u = (scale * (gamma + zt))[ids] * su + (scale * (gamma + st))[ids] * zu
        self.lam = lam_t, lam_u = gamma * root, lam_u
        # |lam_u|**2 serves both lam's Lorentz form and lam o lam.
        self._lam_sq = np.bincount(ids, lam_u * lam_u, count)
        self._lam_lorentz, self._lam_at = cones.lorentz(self.lam, self._lam_sq), lam_t[ids]
        self._squared = beta**-2.0
        self._squared_at, self._neg_wt, self._wt1 = self._squared[ids], -wt, 1.0 + wt
        self._inv_beta = beta**-1.0
        self._beta_at, self._inv_beta_at = beta[ids], self._inv_beta[ids]
        # max_step's tables.
        self._n, self._n_at, self._unit, self._unit_t1 = n, n_at, (unit_t, unit_u), unit_t + 1.0

    def apply(self, x):
        """``W x``."""
        t, u = x
        d = np.bincount(self._ids, self.wu * u, self._count)
        coef = (t + d / self._wt1) * self.beta
        return (self.wt * t + d) * self.beta, self._beta_at * u + coef[self._ids] * self.wu

    def inverse(self, x):
        """``W^-1 x``."""
        t, u = x
        d = np.bincount(self._ids, self.wu * u, self._count)
        inv_beta = self._inv_beta
        coef = (d / self._wt1 - t) * inv_beta
        return (self.wt * t - d) * inv_beta, self._inv_beta_at * u + coef[self._ids] * self.wu

    def lam_squared(self):
        """``lam o lam``, the Jordan product of ``lam`` with itself."""
        lam_t, lam_u = self.lam
        half = self._lam_at * lam_u
        return lam_t * lam_t + self._lam_sq, half + half

    def divide(self, r):
        """The ``y`` with ``lam o y = r``."""
        lam_t, lam_u = self.lam
        t = (lam_t * r[0] - np.bincount(self._ids, lam_u * r[1], self._count)) / self._lam_lorentz
        return t, (r[1] - t[self._ids] * lam_u) / self._lam_at

    def inverse_squared(self, u):
        """``W^-2 (0, u)``: ``(-2 wt wu.u, u + 2 wu (wu.u)) / beta**2``."""
        d = 2.0 * np.bincount(self._ids, self.wu * u, self._count)
        return self._neg_wt * d * self._squared, (u + d[self._ids] * self.wu) * self._squared_at

    def max_step(self, d) -> float:
        """Largest ``alpha`` keeping ``s + alpha ds`` and ``z + alpha dz`` in the cones; ``d``
        stacks ``ds`` and ``dz``, and one maximum over both is the smaller step, bit for bit."""
        (xt, xu), n, pair_ids = self._unit, self._n, self._pair_ids
        c = xt * d[0] - np.bincount(pair_ids, xu * d[1], 2 * self._count)
        # The hyperbolic rotation taking x to n * (1, 0) takes d to
        # n * (c / n, rho_u); the step ends where |rho_u| = 1/alpha + c/n.
        rho_u = (d[1] - ((c + d[0]) / self._unit_t1)[pair_ids] * xu) / self._n_at
        rho = np.sqrt(np.bincount(pair_ids, rho_u * rho_u, 2 * self._count))
        excess = float(np.maximum.reduce(rho - c / n))
        return 1.0 / excess if excess > 0 else math.inf


@lru_cache(maxsize=4)
def _newton_gathers(dim: int, band: int, blades: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables placing band-2N spectra in the grid block of ``G^T W^-2 G``.

    On the real unknowns the 2x2 block of blades ``b, c`` at modes ``m, n``
    is ``(Re, -Im; Im, Re)`` of ``T_bc[m - n]`` plus ``(Re, Im; Im, -Re)`` of
    ``H_bc[m + n]`` (see :func:`_newton_matrix`).  Both tables index one flat
    real array: the real views of the ``2 * blades**2`` spectra (``T`` then
    ``H``, pair ``(b, c)`` at ``b * blades + c``), then the same entries
    negated, so a sign is an offset.  Shared cached storage; treat as
    read-only.
    """
    mm = mode_matrix(dim, band)
    modes, spectrum = len(mm), (4 * band + 1) ** dim
    negated = 2 * blades * blades * spectrum * 2
    pair = blades * np.arange(blades)[:, None] + np.arange(blades)
    pair = pair.reshape(blades, 1, 1, blades, 1, 1)
    part = np.array([[0, 1], [1, 0]]).reshape(1, 1, 2, 1, 1, 2)
    size = 2 * blades * modes

    def table(offset: int, modes_at: np.ndarray, sign: list) -> np.ndarray:
        at = _mode_columns(modes_at, 2 * band).reshape(1, modes, 1, 1, modes, 1)
        flip = negated * np.array(sign).reshape(1, 1, 2, 1, 1, 2)
        index = ((offset + pair) * spectrum + at) * 2 + part + flip
        index = np.ascontiguousarray(index.reshape(size, size), dtype=np.intp)
        index.flags.writeable = False
        return index

    return (
        table(0, mm[:, None, :] - mm[None, :, :], [[0, 1], [0, 0]]),
        table(blades * blades, mm[:, None, :] + mm[None, :, :], [[0, 0], [0, 1]]),
    )


@lru_cache(maxsize=8)
def _active_tables(blades: int, mask: bytes) -> tuple[np.ndarray, ...]:
    """Where the active modes sit in coefficient rows ``(blades, modes)``.

    ``mask`` is ``h_mask.tobytes()``.  Returns ``(entries, reals, diagonal,
    delta)``: ``entries`` indexes the flattened complex rows, ``reals`` their
    real view ``p.view(float)``, ``diagonal`` the flat positions of the
    active unknowns' diagonal entries in the Newton matrix, and ``delta`` the
    identity on blades, ``(blades, blades, 1)``.  Shared cached storage,
    read-only.
    """
    h_mask = np.frombuffer(mask, dtype=bool)
    entries = np.flatnonzero(np.broadcast_to(h_mask, (blades, len(h_mask))))
    reals = np.flatnonzero(np.broadcast_to(h_mask[:, None], (blades, len(h_mask), 2)))
    tables = entries, reals, reals * (2 * blades * len(h_mask) + 1), np.eye(blades)[:, :, None]
    for table in tables:
        table.flags.writeable = False
    return tables


def _newton_matrix(
    dim: int,
    band: int,
    points: int,
    blades: int,
    weight: np.ndarray,
    h_mask: np.ndarray,
    quad_w: float,
) -> Callable[["_NTScaling"], np.ndarray]:
    """``newton_matrix(scaling)``: ``G^T W^-2 G`` on the real unknowns ``p.view(float)``.

    ``G`` takes ``p`` to the vector parts ``-A* p(x) / w`` of the grid cones
    and ``-p / W`` of the Sobolev cone (see :func:`_interior_point`), and
    ``W^-2`` has the vector block ``d (I + 2 wu wu^T)`` at a cone, with
    ``d = beta**-2``.  As ``A* p(x) = sum_m p_m e^{i m.x} / P**n``, grid cone
    ``x`` adds ``d (delta_bc + om_b conj(om_c)) e^{-i (m - n).x}`` to the
    complex-linear entry of blades ``b, c`` at modes ``m, n``, and ``d om_b
    om_c e^{-i (m + n).x}`` to the conjugate-linear one, both over ``P**(2n)
    w**2``, where ``om`` is the complex view of ``wu`` at ``x``.  Summed over
    the grid, each is a forward transform at band ``2N`` of a per-cell array,
    read at ``m - n`` (the Toeplitz part ``T``) or ``m + n`` (the Hankel part
    ``H``): one transform of ``2 * blades**2`` planes per step, placed by
    :func:`_newton_gathers`, instead of dense products with the synthesis
    matrix.  The Sobolev cone adds its diagonal plus rank-one block on the
    active modes.
    """
    cells = points**dim
    shape = (2 * blades * blades,) + (points,) * dim
    forward, _ = _coupling(dim, 2 * band, points, shape[0])
    toeplitz_at, hankel_at = _newton_gathers(dim, band, blades)
    _, active, diagonal, delta = _active_tables(blades, h_mask.tobytes())
    cut = 2 * blades * cells
    size = 2 * blades * len(h_mask)
    inv_w_real = np.tile(np.repeat(1.0 / weight[h_mask], 2), blades)

    def newton_matrix(scaling: "_NTScaling") -> np.ndarray:
        om = scaling.wu[:cut].view(complex)
        row, col = om.reshape(blades, 1, cells), om.reshape(1, blades, cells)
        pairs = np.concatenate((row * col.conj() + delta, row * col))
        d = (quad_w * scaling.beta[:cells]) ** -2.0 / cells
        spectra = forward((pairs * d).reshape(shape)).ravel().view(float)
        spectra = np.concatenate((spectra, -spectra))
        matrix = spectra[toeplitz_at] + spectra[hankel_at]
        scale = inv_w_real / scaling.beta[cells]
        flat = matrix.reshape(-1)
        flat.put(diagonal, flat.take(diagonal) + scale**2)
        # Zero off the active unknowns; 2 u_i u_j has the same bits either way round.
        u = np.zeros(size)
        u.put(active, scaling.wu[cut:] * scale)
        matrix += np.multiply.outer(u, 2.0 * u)
        return matrix

    return newton_matrix


def _interior_point(
    fvec: np.ndarray,
    band: int,
    weight: np.ndarray,
    h_mask: np.ndarray,
    quad_w: float,
    shape: tuple[int, ...],
    forward,
    adjoint,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the undamped point's ``g``, dual point ``p`` and ``A* p`` at each Newton step.

    The dual problem as a second-order-cone program: minimize
    ``Re<p, f_hat>`` subject to ``(1, A* p(x) / w)`` in a Lorentz cone at
    every grid point ``x`` and ``(1, p / W)``, over the active modes, in one
    more.  In conic form ``G p + s = (1, 0)`` with the slack ``s`` in the
    cones; the multiplier ``z`` of that constraint is the primal split, ``g(x)``
    the vector part of grid cone ``x``'s multiplier divided by ``w``.  Each
    step is a Mehrotra predictor-corrector step with Nesterov-Todd scaling;
    it moves to the damped point, ``_STEP_FRACTION`` of the way to the cone
    boundary, and yields the undamped one, ``p + dp`` with ``g`` from ``z +
    dz``, whose certificate near the optimum is about one step ahead.  The
    first starts where both equality constraints hold: ``p = 0``, ``s = (1,
    0)``, and ``z`` whose vector part, a solution of ``G^T z = -f``, lies
    ``_START_BLEND`` of the way from the least-norm one to the closed-form
    split's (``W f`` on the Sobolev cone, 0 on the grid cones), and whose
    scalar part is ``max(1, _START_MARGIN |z_u|)`` per cone.
    Cone vector parts are real; the complex views meet the transforms, and
    above ``_DENSE_NEWTON_MAX_UNKNOWNS`` real unknowns conjugate gradients
    solve the Newton systems.  A point without a Nesterov-Todd scaling is
    lifted (see ``_MAX_LIFTS``), and a dense Newton matrix without a
    Cholesky factor shifted (see ``_NEWTON_SHIFTS``).  The caller caps the
    steps; the generator returns when a step fails: a point past its lifts,
    a matrix past its shifts, a non-finite direction or a zero step.
    """
    nblades = len(fvec)
    dim, points = len(shape), shape[0]
    cells = points**dim
    planes = (nblades,) + shape
    cut = nblades * cells
    inv_w = 1.0 / weight[h_mask]
    cones = _sum_space_cones(nblades, cells, len(inv_w))
    count, size = cones.count, cones.size
    # The active entries of the flattened rows, and 1 / W at each one.
    entries = _active_tables(nblades, h_mask.tobytes())[0]
    inv_w = np.tile(inv_w, nblades)
    neg_inv_w = -inv_w
    dense = 2 * fvec.size <= _DENSE_NEWTON_MAX_UNKNOWNS
    if dense:
        newton_matrix = _newton_matrix(dim, band, points, nblades, weight, h_mask, quad_w)

    def couple(p, Ap=None):
        """Vector parts of ``G p``, from ``Ap = adjoint(p)`` if given; scalar parts are zero."""
        Ap = adjoint(p) if Ap is None else Ap
        return np.concatenate((Ap.ravel() / -quad_w, p.take(entries) * neg_inv_w)).view(float)

    def couple_t(u):
        """``G^T`` of a point with vector parts ``u``."""
        u = u.view(complex)
        out = forward(u[:cut].reshape(planes)) / -quad_w
        out.put(entries, out.take(entries) - u[cut:] * inv_w)
        return out

    # G^T G = I / (w**2 P**n) + W**-2 on the active modes is diagonal for
    # P >= 2N + 1, so G y with y = -f / diag(G^T G) is the least-norm
    # solution of G^T z_u = -f.  The closed-form split's multiplier, 0 on the
    # grid cones and W f on the Sobolev cone, solves it too, and so does
    # every blend of the two.  A relative margin on each scalar part keeps z
    # inside the cones even where |z_u| is beyond 1 / eps.
    diagonal = 1.0 / (quad_w**2 * cells) + np.where(h_mask, 1.0 / weight**2, 0.0)
    z_u = (1.0 - _START_BLEND) * couple(-fvec / diagonal)
    z_u[2 * cut:] += _START_BLEND * (fvec[:, h_mask] * weight[h_mask]).ravel().view(float)
    z_t = np.maximum(1.0, _START_MARGIN * np.sqrt(cones.dot(z_u, z_u)))
    # s and z end to end, one point of the pair of cones held as one array
    # x = [s_t, z_t, s_u, z_u], so that a move is one pass; so are ds and dz.
    x = np.concatenate(_stacked((np.ones(count), np.zeros(size)), (z_t, z_u)))
    tz, uz = 2 * count, 2 * count + size  # where the vector parts, and z's, start
    p = np.zeros_like(fvec)
    Ap = adjoint(p)
    lifts = 0
    while True:
        sz = x[:tz], x[tz:]
        try:
            scaling = _NTScaling(cones, sz)
        except ZeroDivisionError:  # a lift takes a pass of the loop, not a step
            if lifts == _MAX_LIFTS:
                return
            lifts += 1
            t, u = sz
            t = np.maximum(t, (1.0 + _LIFT_MARGIN) * np.sqrt(cones.pair.dot(u, u)))
            x = np.concatenate((t, u))
            continue
        if dense:
            base = newton_matrix(scaling)
            order = len(base)
            for shift in _NEWTON_SHIFTS:
                matrix = base + shift * np.trace(base) / order * np.eye(order) if shift else base
                try:
                    np.linalg.cholesky(matrix)
                    break
                except np.linalg.LinAlgError:
                    pass
            else:
                return
        s_t, z_t, s_u, z_u = x[:count], x[count:tz], x[tz:uz], x[uz:]
        # The residuals r_x = G^T z + f and r_z = G p + s - (1, 0); ds = -r_z - G dp.
        r_t, r_u = s_t - 1.0, couple(p, Ap) + s_u
        neg_r_x, neg_r_t, neg_r_u = -(couple_t(z_u) + fvec), -r_t, -r_u
        scaled_r_t, scaled_r_u = scaling.inverse((r_t, r_u))

        def direction(c_t, c_u):
            """Newton direction ``(dp, d)`` with ``lam o (W^-1 ds + W dz) = (c_t, c_u)``;
            ``d`` holds ``ds`` and ``dz`` as ``x`` holds ``s`` and ``z``."""
            t, u = scaling.divide((c_t, c_u))
            v_t, v_u = scaling.inverse((scaled_r_t + t, scaled_r_u + u))
            rhs = neg_r_x - couple_t(v_u)
            if dense:
                dp = np.linalg.solve(matrix, rhs.view(float).ravel()).view(complex)
            else:
                dp = _conjugate_gradients(
                    lambda d: couple_t(scaling.inverse_squared(couple(d))[1]), rhs
                )
            dp = dp.reshape(fvec.shape)
            gdp = couple(dp)
            # dz = W^-1 v + W^-2 G dp, with W^-1 r_z inside v once a step.
            rt, ru = scaling.inverse_squared(gdp)
            d = np.empty_like(x)
            d[:count] = neg_r_t
            np.add(v_t, rt, out=d[count:tz])
            np.subtract(neg_r_u, gdp, out=d[tz:uz])
            np.add(v_u, ru, out=d[uz:])
            return dp, d

        # Predictor: the affine direction, r_c = -lam o lam.
        gap = float(s_t @ z_t + s_u @ z_u)
        lt, lu = scaling.lam_squared()
        neg_lt, neg_lu = -lt, -lu
        _, d = direction(neg_lt, neg_lu)
        alpha = min(1.0, scaling.max_step((d[:tz], d[tz:])))
        moved = x + alpha * d
        ratio = float(moved[:count] @ moved[count:tz] + moved[tz:uz] @ moved[uz:]) / gap
        sigma = min(1.0, max(0.0, ratio)) ** 3
        # Corrector: centring at sigma * mu plus the second-order term.
        ds, dz = (d[:count], d[tz:uz]), (d[count:tz], d[uz:])
        ct, cu = cones.product(scaling.inverse(ds), scaling.apply(dz))
        dp, d = direction(sigma * gap / count + neg_lt - ct, neg_lu - cu)
        alpha = min(1.0, _STEP_FRACTION * scaling.max_step((d[:tz], d[tz:])))
        if not (alpha > 0 and np.isfinite(dp).all() and np.isfinite(d).all()):
            return
        # Yield the undamped point: the certificate prices any g and scales
        # any p into feasibility.
        full_p, full_g = p + dp, x[uz:uz + 2 * cut] + d[uz:uz + 2 * cut]
        p, x = p + alpha * dp, x + alpha * d
        Ap = adjoint(p)
        yield full_g.view(complex).reshape(planes) / quad_w, full_p, adjoint(full_p)


#: Relative residual at which conjugate gradients accept a Newton direction.
_CG_TOLERANCE = 1e-10


def _conjugate_gradients(product: Callable, rhs: np.ndarray) -> np.ndarray:
    """Unpreconditioned conjugate gradients from 0 on ``product(x) = rhs``.

    ``product`` is symmetric positive definite in ``Re<u, v>``.  The iteration
    stops at relative residual ``_CG_TOLERANCE``, on non-positive curvature,
    or after ten iterations per real unknown.
    """
    x, r, d = np.zeros_like(rhs), rhs, rhs
    rr = np.vdot(r, r).real
    stop = _CG_TOLERANCE**2 * rr
    for _ in range(20 * rhs.size):
        if rr <= stop:
            break
        q = product(d)
        curvature = np.vdot(d, q).real
        if not curvature > 0:
            break
        x, r = x + (rr / curvature) * d, r - (rr / curvature) * q
        rr, rr_old = np.vdot(r, r).real, rr
        d = r + (rr / rr_old) * d
    return x


#: How far, in units in the last place of the split cost, the lower bound
#: may exceed it through roundoff before the certificate counts as broken,
#: and how large a closed-form gap may be and still count as roundoff.
_GAP_ROUNDOFF_ULPS = 16


def _duality_gap(upper, s1: float, s2: float, dot: float) -> float:
    """The gap between a split's cost ``upper`` and a dual point's lower bound.

    ``s1`` and ``s2`` are the dual point's grid and Sobolev scales and ``dot``
    is ``Re<p, f_hat>``.  Bounds that cross by roundoff give 0; a larger
    crossing, or a NaN scale or ``dot``, raises :class:`InvariantViolation`.
    """
    if math.isnan(s1) or math.isnan(s2) or math.isnan(dot):
        raise InvariantViolation(f"sum-space dual point has a NaN scale or dot: {s1}, {s2}, {dot}")
    # Dual feasibility also needs p = -W*q on active modes, so the scaled
    # dual objective is -<p, f_hat>; weak duality gives the lower bound.
    lower = -dot / max(s1, s2, 1.0)
    gap = float(upper - lower)
    if gap < 0:
        # Bounds that meet can cross by roundoff; more means a broken bound.
        if gap < -_GAP_ROUNDOFF_ULPS * math.ulp(upper):
            raise InvariantViolation(
                f"sum-space lower bound {lower!r} exceeds the split cost {upper!r}"
            )
        gap = 0.0
    return gap


def _grid_scales(Ap: np.ndarray) -> np.ndarray:
    """The grid scale ``max_x |A* p|(x) / w`` of each dual point from its adjoint ``Ap``."""
    point_norms = np.sqrt(np.add.reduce(np.abs(Ap) ** 2, axis=1))
    scales = np.maximum.reduce(point_norms.reshape(len(Ap), -1), axis=1)
    return scales / (TWO_PI / Ap.shape[-1]) ** (Ap.ndim - 2)


def _certificates(fvecs, l1, Ag, p, s1, h_mask, weight, weight_sq) -> list[tuple]:
    """The certificate ``(upper, gap, h)`` of each split of a stack of fields.

    ``fvecs`` holds coefficient rows ``(fields, blades, modes)``, ``l1`` the
    L1 norms of the splits' mean-repaired grid parts (None for zero grids),
    ``Ag`` their forward maps (0.0 for zero grids), ``p`` dual points shaped
    as ``fvecs`` and ``s1`` their :func:`_grid_scales`, or upper bounds of
    them below 1.
    Each field's sums run over one row, in a single field's order.
    """
    h = np.where(h_mask, fvecs - Ag, 0.0)
    uppers = np.sqrt(_row_sums(weight_sq * (np.abs(h) ** 2)))
    if l1 is not None:  # the L1 term of a zero grid is 0.0, and 0.0 + x == x
        uppers = np.add(l1, uppers)
    # numpy lays a single field's masked columns (blades, active) out mode
    # by mode, and sums them in that order; so does each row here.
    scaled = ((np.abs(p) ** 2) / weight_sq).compress(h_mask, axis=2)
    s2 = np.sqrt(_row_sums(scaled.swapaxes(1, 2)))
    dots = _row_sums((np.conj(p) * fvecs).real)
    uppers = uppers.tolist()
    gaps = map(_duality_gap, uppers, s1.tolist(), s2.tolist(), dots.tolist())
    return list(zip(uppers, gaps, h))


#: Margin below 1 under which a closed-form dual point's triangle bound ``U`` stands
#: in for its grid scale: ``U`` and the adjoint each add ``K`` terms (modes) of total
#: size ``U``, so each rounds by at most about ``K * 2**-53 * U``, under 1e-6 for ``K < 1e9``.
_TRIANGLE_MARGIN = 1e-6


def _closed_form(fvecs, dim, band, points, tol, h_mask, weight, weight_sq):
    """The certificates of the splits ``g = 0`` of stacked fields, in one check.

    ``fvecs`` holds the coefficient rows ``(fields, blades, modes)``.  Only
    ``p0 = -W**2 f / ||W f||`` can certify ``g = 0`` (zero when ``||W f||``
    is not positive, say by underflow), so each field gets one certificate
    there, ``(upper, gap, g, h)``, and whether it settles the split.  No
    adjoint runs if every row's triangle bound is below ``1 - _TRIANGLE_MARGIN``;
    else it runs per field, so each field keeps the bits of its own check.
    """
    count, nblades = fvecs.shape[:2]
    with np.errstate(over="ignore"):
        weighted = np.where(h_mask, weight * fvecs, 0.0)
        weighted_norms = np.sqrt(_row_sums(np.abs(weighted) ** 2))
    if not np.isfinite(weighted_norms).all():
        raise InputError("sum-space norm: the weighted norm ||W f|| of a field overflows")
    positive = weighted_norms > 0
    p0 = -weight * weighted / np.where(positive, weighted_norms, 1.0)[:, None, None]
    p0[~positive] = 0.0
    s1 = np.sqrt((np.abs(p0) ** 2).sum(axis=1)).sum(axis=1) / TWO_PI**dim  # triangle bounds
    if not (s1 <= 1.0 - _TRIANGLE_MARGIN).all():  # also true on a NaN
        s1 = _grid_scales(_coupling(dim, band, points, count, nblades)[1](p0))
    # g = 0 maps to 0, and h = f - 0 keeps f's signs of zero.
    found = _certificates(fvecs, None, 0.0, p0, s1, h_mask, weight, weight_sq)
    g = np.zeros((count, nblades) + (points,) * dim, dtype=complex)
    checks = []
    for norm, g_i, (upper, gap, h_i) in zip(weighted_norms.tolist(), g, found):
        roundoff = _GAP_ROUNDOFF_ULPS * math.ulp(upper) if math.isfinite(upper) else 0.0
        checks.append((norm > 0 and gap <= max(tol, roundoff), (upper, gap, g_i, h_i)))
    return checks


def _split(dim, band, masks, upper, gap, g, h, iterations, path):
    """The :class:`SumSpaceSplit` of a row of :func:`_sum_space_rows` on the ``masks``."""
    return SumSpaceSplit(
        # g and h are the split's own arrays; h drops its zero blades as a field does.
        g=GridField._of(dim, g.shape[-1], masks, g),
        h=SpectralField._of(dim, band, masks, h),
        value=upper,
        gap=gap,
        iterations=iterations,
        path=path,
    )


def sum_space_norm(
    f: SpectralField,
    s: float | None = None,
    homogeneous: bool = True,
    tol: float = 1e-6,
    *,
    weights: np.ndarray | None = None,
    points_per_axis: int | None = None,
    max_iterations: int = 100,
) -> SumSpaceSplit:
    """Minimizer of ``||g||_L1 + ||h||_{H^s}`` over ``g + h = f``, certified.

    ``weights`` holds one ``W`` per mode, in :func:`spectral.mode_matrix` row order,
    with ``W**2`` as the weight; ``None`` gives the ``H^s`` weights,
    ``|m|**(2s)`` or ``(1 + |m|**2)**s``, ``s`` defaulting to ``-dim/2``.  A
    ``W`` that is not positive and finite, or whose square is not a normal
    float, on a mode ``h`` may occupy is an input error, and so is a field
    whose ``||W f||`` overflows; the homogeneous variant leaves out the mean
    and requires a zero-mean field.  The pure-Sobolev split ``g = 0, h = f``
    is checked in closed form first (see the module docstring) and returned
    with ``iterations == 0`` when its gap is within ``tol``, or within
    ``_GAP_ROUNDOFF_ULPS`` units in the last place of its value, since
    roundoff alone leaves such a gap on large fields whatever ``tol`` is; the
    gap is reported as computed.  Otherwise interior-point Newton steps run,
    each step certified, until the gap drops below ``tol``; a point that
    rounds onto a cone's boundary is lifted back inside, and a dense Newton
    matrix without a Cholesky factor is shifted (see :func:`_interior_point`).
    ``max_iterations`` caps the Newton steps, lifts not counted, at the ECOS
    and CVXOPT limit of 100 by default (the steps converge in 5-19 on every
    input measured, and stall on roundoff within about 30).  When it runs out
    or the steps stall, :class:`ConvergenceError` carries the best certified
    split seen, the closed-form one included.  The reported gap is never
    negative: bounds that cross by roundoff report 0, and a larger crossing
    raises :class:`InvariantViolation`.
    """
    tables = _weights_for(f.dim, f.band, -f.dim / 2.0 if s is None else s, homogeneous, weights)
    [row] = _sum_space_rows(f.data[None], f.masks, f.dim, f.band, tables, tol,
                            points_per_axis=points_per_axis, max_iterations=max_iterations)
    return _split(f.dim, f.band, f.masks, *row)


def _sum_space_rows(rows: np.ndarray, masks: tuple[int, ...], dim: int, band: int, tables,
                    tol: float, *, points_per_axis=None, max_iterations=100) -> list[tuple]:
    """``(value, gap, g, h, iterations, path)`` of each row of ``rows``.

    ``rows`` is a stack ``(fields, blades, modes)`` of fields on the
    increasing blades ``masks``, and ``tables`` the checked ``(mask, W,
    W**2)`` of :func:`_weights_for`; the norm is homogeneous when ``mask``
    leaves out the mean.  The rows' closed-form checks run stacked.  A row
    they do not settle iterates as it is, on all of ``masks``: such rows
    iterate one after another, in order, each seeded with its own closed-form
    certificate as the best one seen, and the first that fails raises its
    :class:`ConvergenceError`, whose partial split is on ``masks`` too.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")
    _count(max_iterations, "iteration cap", 1)
    h_mask, weight, _ = tables
    homogeneous = not _mean_column(h_mask)
    if homogeneous:
        _require_zero_mean(rows, "the homogeneous sum-space norm")
    P = (default_points(band) if points_per_axis is None
         else _count(points_per_axis, "points per axis", 2 * band + 1))
    shape = _grid_shape(dim, P)
    quad_w = (TWO_PI / P) ** dim
    checks = _closed_form(rows, dim, band, P, tol, *tables)

    def iterate(fvec: np.ndarray, seed) -> tuple:
        """Newton steps on ``fvec`` from the closed-form certificate ``seed``."""
        nblades = len(fvec)
        forward, adjoint = _coupling(dim, band, P, nblades)
        fvecs, mean, constant = fvec[None], _mean_column(fvec), (nblades,) + (1,) * dim

        def certificate(gq, pq, Ap):
            """The certificate of ``gq``'s split, mean repaired; ``Ap`` is ``adjoint(pq)``."""
            Ag = forward(gq)
            if homogeneous:
                # Repair the mean constraint by adding a constant per blade.
                # A constant moves only the mean column of Ag, which h_mask
                # excludes, so Ag serves the repaired split as it is.
                rho = mean - _mean_column(Ag)
                if rho.any():
                    gq = gq + rho.reshape(constant)
            [(upper, gap, h)] = _certificates(fvecs, _l1_norms(gq[None], dim), Ag[None],
                                              pq[None], _grid_scales(Ap[None]), *tables)
            return upper, gap, gq, h

        best, best_path = seed, "closed-form"  # the best certificate seen and its path
        newton = _interior_point(fvec, band, weight, h_mask, quad_w, shape, forward, adjoint)
        iterations = 0
        for iterations, (gq, pq, Ap) in enumerate(itertools.islice(newton, max_iterations), 1):
            found = certificate(gq, pq, Ap)
            if found[1] <= tol:
                return (*found, iterations, "interior-point")
            if found[1] < best[1]:
                best, best_path = found, "interior-point"
        raise ConvergenceError(
            f"sum-space optimizer stopped at gap {best[1]:.3e} after "
            f"{iterations} iterations (tol {tol:g})",
            partial=_split(dim, band, masks, *best, iterations, best_path),
        )

    results = []
    for row, (certified, certificate) in zip(rows, checks):
        # A zero field's split g = h = 0 is optimal with gap 0.
        if certified or not row.any():
            results.append((*certificate, 0, "closed-form"))
        else:
            results.append(iterate(row, certificate))
    return results
