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
and each Newton or polish step's, so one certificate judges them all.

The pure-Sobolev split ``g = 0, h = f`` is checked first, in closed form.
The only dual point that can certify it maximizes the Sobolev dual term:
``p0 = -W**2 f_hat / ||W f_hat||``, zero on a mean mode that ``h`` may not
occupy.  The split is proven optimal when ``max_x |A* p0|(x) <= w``, the KKT
condition of the infimal convolution, which costs one adjoint transform.
(With the mean mode excluded the dual entry there is free, so fixing it at
zero makes the check sufficient rather than necessary.)  With the genuine
``H^{-n/2}`` weights every field at desk-scale bands passes.  The check
transforms nothing else and reads cached tables: ``A 0`` is zero up to signs
of zero, kept once per shape, so no forward map and no mean repair run, and
the default weights, their mask and their square are kept once per ``(dim,
band, s, homogeneous)``.

:func:`sum_space_norms` runs this check for many fields at once: fields that
share ``dim``, band, grid, weights and blade count stack into one ``p0``
table ``(fields, blades, modes)``, with one adjoint and one certificate call;
a Newton or polish step is a stack of one.  Each field keeps the bits of its
own check: every per-field sum runs over one C-contiguous row, in the order a
single field's sum takes (its masked columns mode by mode, as numpy lays them
out), and the transform pair applies one matrix product per field, because
BLAS rounds a one-row product (its matrix-vector kernel) differently from a
many-row one.

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
and its certificate take about 0.4 ms at 34-42 real unknowns (one BLAS
thread), mostly the fixed cost of small numpy calls, two LU solves among
them.  Above ``_DENSE_NEWTON_MAX_UNKNOWNS`` real dual unknowns (``2 *
blades * modes``) conjugate gradients solve the Newton systems instead, as
in Gondzio's matrix-free interior-point method (Comput. Optim. Appl. 51,
2012); a product is one adjoint and one forward transform.  The primal
split is an output: the vector part of grid cone ``x``'s multiplier,
divided by ``w``, is ``g(x)``.  The steps start, as CVXOPT's and ECOS's do,
from a point that meets both equality constraints, here in closed form
because ``G^T G`` is diagonal, so only complementarity is left to close.
The frozen mixed instances certify at tol 1e-6 in 8-9 steps.

When the Newton steps stall before the gap reaches ``tol`` (on roundoff,
typically at an absolute gap of 1e-11 to 1e-8), a polish in the manner of
OSQP's (Stellato et al., Math. Prog. Comp. 12, 2020) fixes the support
``S`` of the best split's ``g`` and takes Newton steps on ``g`` over ``S``:
first on ``w sum_S |g(x)| + ||W (f - A_S g)||``, with the dual point ``-W**2
h / ||W h||``, then, for an ``h = 0`` optimum, on ``w sum_S |g(x)|`` under
``W A_S g = W f``, with the dual point ``W nu`` from its multipliers.
Without the mean mode both keep ``(A_S g)_0 = 0``.  ``iterations`` counts
every Newton step against one cap.

The coupling pair ``A``/``A*`` is :func:`spectral._coupling`, the package's
one transform pair, built once per stack and once per field that iterates.
Each Newton step's certificate and the next step's residual share one
``A* p``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, InputError, InvariantViolation
from .spectral import (
    GridField,
    SpectralField,
    TWO_PI,
    _coupling,
    _mean_column,
    default_points,
    mode_matrix,
)


def l1_norm(u: GridField) -> float:
    """Uniform-grid quadrature of ``integral ||u(x)|| dx``."""
    return _l1_norms(u.data[None], u.dim)[0]


def _l1_norms(planes: np.ndarray, dim: int) -> list[float]:
    """:func:`l1_norm` of each field of grid planes ``(fields, blades) + (P,)*dim``."""
    magnitude = np.sqrt((np.abs(planes) ** 2).sum(axis=1))
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
    if homogeneous and s < 0 and _mean_column(rows).any():
        raise InputError(
            "homogeneous norm with negative exponent needs a zero-mean field"
        )
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
    return np.ascontiguousarray(x).reshape(len(x), -1).sum(axis=1)


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
    weights: np.ndarray | Callable | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight tables of a solve: ``(mask, W, W**2)``.

    ``mask`` marks the modes ``h`` may occupy, where the Sobolev weights
    ``W`` are checked; ``W`` is 1 off it.  The default weights' tables are
    cached; array and callable weights are checked on every call.
    """
    if weights is None:
        return _default_weights(dim, band, float(s), homogeneous)
    mm = mode_matrix(dim, band)
    if callable(weights):
        w = np.array([float(weights(tuple(row))) for row in mm])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(mm),):
            raise InputError(
                f"weights must have one entry per mode ({len(mm)}), got {w.shape}"
            )
    mask = np.ones(len(w), dtype=bool)
    if homogeneous:
        _mean_column(mask)[...] = False
    if np.any(w[mask] <= 0) or not np.all(np.isfinite(w[mask])):
        raise InputError("Sobolev weights must be positive and finite on active modes")
    masked = np.where(mask, w, 1.0)
    return mask, masked, masked**2


@lru_cache(maxsize=32)
def _default_weights(dim: int, band: int, s: float, homogeneous: bool) -> tuple:
    """:func:`_weights_for` of the ``H^s`` weights.  Shared cached storage, read-only."""
    # W multiplies h_hat inside an l2 norm, so W**2 must be the Sobolev
    # weight |m|**(2s), resp. (1 + |m|**2)**s: W is the weight of H^(s/2).
    half, active = _sobolev_weights(dim, band, s / 2.0, homogeneous)
    w = np.ones(len(active))
    w[active] = half
    tables = _weights_for(dim, band, s, homogeneous, w)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=32)
def _zero_image(dim: int, band: int, points: int, blades: int) -> np.ndarray:
    """``A 0``, the coupling's forward map of the zero grid.

    Its entries are zeros, but BLAS can give some of them the sign of -0.0;
    ``f - A 0`` passes those signs on to ``h`` as a transform would.  Shared
    cached storage, read-only.
    """
    forward, _ = _coupling(dim, band, points, blades)
    image = forward(np.zeros((blades,) + (points,) * dim, dtype=complex))
    image.flags.writeable = False
    return image


#: Largest number of real dual unknowns, ``2 * blades * modes``, for which
#: the Newton matrix is formed and factored; above it conjugate gradients
#: solve the Newton systems, and no polish runs on more.  The crossover, on
#: 1-D all-ones fields at ``s = 0.25`` and tol 1e-6 (2-CPU machine, one BLAS
#: thread): 156 ms dense vs 203 ms CG at 322 unknowns, 227 vs 191 at 386.
_DENSE_NEWTON_MAX_UNKNOWNS = 352
#: Newton steps after which the interior-point method hands over to the
#: polish, the default iteration limit of the ECOS and CVXOPT conic solvers.
#: It converges in 6-16 steps on every input measured, and stalls on
#: roundoff within about 20 when the tolerance is out of its reach.
_INTERIOR_POINT_MAX_STEPS = 100
#: Fraction of the distance to the cone boundary that a Newton step covers.
_STEP_FRACTION = 0.99
#: Relative margin of the starting multiplier: each cone's scalar part is
#: ``max(1, margin * |z_u|)``.  Chosen by step counts: margins 2-6 all beat
#: the identity start, and 6 took the fewest steps, or tied for them, on the
#: mixed instances, the hard corpus at tol 1e-9 and the conjugate-gradient
#: inputs.
_START_MARGIN = 6.0


class _LorentzCones:
    """A product of second-order cones ``{(t, u) : |u| <= t}``.

    A point is a pair ``(t, u)``: ``t`` holds one real per cone, and the real
    array ``u`` holds the vector parts of all cones end to end, entry ``k``
    belonging to cone ``ids[k]``.  Two points end to end are one point of :attr:`pair`.
    """

    def __init__(self, ids: np.ndarray, count: int):
        self.ids, self.count = ids, count

    @cached_property
    def pair(self) -> "_LorentzCones":
        """Two copies of these cones end to end, ``signs`` -1 on the first and 1 on the second."""
        pair = _LorentzCones(np.concatenate((self.ids, self.ids + self.count)), 2 * self.count)
        pair.signs = np.repeat((-1.0, 1.0), self.count)
        return pair

    def halves(self, x):
        """The two points of these cones stacked in ``x``, a point of :attr:`pair`."""
        count, size = self.count, len(self.ids)
        return (x[0][:count], x[1][:size]), (x[0][count:], x[1][size:])

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Inner product of two vector parts, one per cone."""
        return np.bincount(self.ids, u * v, self.count)

    def inner(self, x, y) -> float:
        """Inner product of two points over all cones."""
        return float(x[0] @ y[0] + x[1] @ y[1])

    def lorentz(self, x) -> np.ndarray:
        """``t**2 - |u|**2`` per cone, factored to stay accurate near the boundary."""
        r = np.sqrt(self.dot(x[1], x[1]))
        return (x[0] - r) * (x[0] + r)

    def product(self, x, y):
        """Jordan product ``x o y = (t_x t_y + u_x.u_y, t_x u_y + t_y u_x)``."""
        return (
            x[0] * y[0] + self.dot(x[1], y[1]),
            x[0][self.ids] * y[1] + y[0][self.ids] * x[1],
        )


def _sum_space_cones(blades: int, cells: int, active: int) -> _LorentzCones:
    """The cones of the dual program: one per grid cell, then the Sobolev cone.

    The vector parts are the real views of the complex arrays ``(blades,
    cells)`` (grid cone ``x`` holds column ``x``) and ``(blades, active)``.
    """
    grid = np.repeat(np.tile(np.arange(cells), blades), 2)
    return _LorentzCones(np.concatenate([grid, np.full(2 * blades * active, cells)]), cells + 1)


def _stacked(x, y):
    """The points ``x`` and ``y`` end to end, one point of ``cones.pair``."""
    return np.concatenate((x[0], y[0])), np.concatenate((x[1], y[1]))


def _moved(x, alpha: float, d):
    """The cone point ``x + alpha d``."""
    return x[0] + alpha * d[0], x[1] + alpha * d[1]


class _NTScaling:
    """Nesterov-Todd scaling ``W`` of two points ``s``, ``z`` inside the cones.

    Per cone ``W = beta * L(w)``, with ``L(w)`` the hyperbolic rotation of a
    point ``w = (wt, wu)`` of unit Lorentz norm, chosen so that ``W z`` and
    ``W^-1 s`` are one point ``lam``.  The vector block of ``W^-2`` is
    ``(I + 2 wu wu^T) / beta**2``.  ``s`` and ``z``, like the steps ``ds``
    and ``dz``, come stacked as one point of ``cones.pair``.
    """

    def __init__(self, cones: _LorentzCones, sz, lorentz=None):
        """``lorentz``, if given, is ``cones.pair.lorentz(sz)``."""
        pair, ids, count, size = cones.pair, cones.ids, cones.count, len(cones.ids)
        n = np.sqrt(pair.lorentz(sz) if lorentz is None else lorentz)
        self._n, self._n_at = n, n[pair.ids]
        self._unit = sz[0] / n, sz[1] / self._n_at
        (st, su), (zt, zu) = cones.halves(self._unit)
        ns, nz = n[:count], n[count:]
        gamma_sq = (1.0 + st * zt + cones.dot(su, zu)) / 2.0
        if not gamma_sq.min() > 0:  # also false on a NaN
            raise ZeroDivisionError("Nesterov-Todd gamma, at least 1 exactly, rounded to 0")
        gamma = np.sqrt(gamma_sq)
        two_gamma, root, sum_t = 2.0 * gamma, np.sqrt(ns * nz), st + zt
        scale = root / (sum_t + two_gamma)
        self.cones = cones
        self.beta = np.sqrt(ns / nz)
        self.wt = sum_t / two_gamma
        self.wu = (su - zu) / two_gamma[ids]
        lam_u = (scale * (gamma + zt))[ids] * su + (scale * (gamma + st))[ids] * zu
        self.lam = gamma * root, lam_u
        self._lam_lorentz, self._lam_at = cones.lorentz(self.lam), self.lam[0][ids]
        self._squared = self.beta**-2.0
        self._squared_at = self._squared[ids]
        # apply's tables: W^-1 takes beta**-1, W beta, and a stacked pair both in turn.
        beta = np.concatenate((self.beta**-1.0, self.beta))
        beta_at, w = beta[pair.ids], (self.wt, self.wu, 1.0 + self.wt)
        self._tables = {
            -1.0: (cones, -1.0, beta[:count], beta_at[:size], *w),
            1.0: (cones, 1.0, beta[count:], beta_at[size:], *w),
            None: (pair, pair.signs, beta, beta_at, *(np.concatenate((x, x)) for x in w)),
        }

    def apply(self, x, sign: float | None = 1.0):
        """``W x``, ``W^-1 x`` with ``sign = -1``, or stacked ``W^-1 ds, W dz`` with ``None``."""
        cones, sign, beta, beta_at, wt, wu, wt1 = self._tables[sign]
        d = cones.dot(wu, x[1])
        t = (wt * x[0] + sign * d) * beta
        coef = (sign * x[0] + d / wt1) * beta
        return t, beta_at * x[1] + coef[cones.ids] * wu

    def inverse(self, x):
        """``W^-1 x``."""
        return self.apply(x, -1.0)

    def divide(self, r):
        """The ``y`` with ``lam o y = r``."""
        lam, ids = self.lam, self.cones.ids
        t = (lam[0] * r[0] - self.cones.dot(lam[1], r[1])) / self._lam_lorentz
        return t, (r[1] - t[ids] * lam[1]) / self._lam_at

    def inverse_squared(self, u):
        """``W^-2 (0, u)``: ``(-2 wt wu.u, u + 2 wu (wu.u)) / beta**2``."""
        d = 2.0 * self.cones.dot(self.wu, u)
        return -self.wt * d * self._squared, (u + d[self.cones.ids] * self.wu) * self._squared_at

    def max_step(self, d) -> float:
        """Largest ``alpha`` keeping ``s + alpha ds`` and ``z + alpha dz`` in the cones; ``d``
        stacks ``ds`` and ``dz``, and one maximum over both is the smaller step, bit for bit."""
        pair, (xt, xu), n = self.cones.pair, self._unit, self._n
        c = xt * d[0] - pair.dot(xu, d[1])
        # The hyperbolic rotation taking x to n * (1, 0) takes d to
        # n * (c / n, rho_u); the step ends where |rho_u| = 1/alpha + c/n.
        rho_u = (d[1] - ((c + d[0]) / (xt + 1.0))[pair.ids] * xu) / self._n_at
        excess = float((np.sqrt(pair.dot(rho_u, rho_u)) - c / n).max())
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
    width = 4 * band + 1
    place = width ** np.arange(dim - 1, -1, -1)
    modes, spectrum = len(mm), width**dim
    negated = 2 * blades * blades * spectrum * 2
    pair = blades * np.arange(blades)[:, None] + np.arange(blades)
    pair = pair.reshape(blades, 1, 1, blades, 1, 1)
    part = np.array([[0, 1], [1, 0]]).reshape(1, 1, 2, 1, 1, 2)
    size = 2 * blades * modes

    def table(offset: int, modes_at: np.ndarray, sign: list) -> np.ndarray:
        at = ((modes_at + 2 * band) @ place).reshape(1, modes, 1, 1, modes, 1)
        flip = negated * np.array(sign).reshape(1, 1, 2, 1, 1, 2)
        index = ((offset + pair) * spectrum + at) * 2 + part + flip
        index = np.ascontiguousarray(index.reshape(size, size), dtype=np.intp)
        index.flags.writeable = False
        return index

    return (
        table(0, mm[:, None, :] - mm[None, :, :], [[0, 1], [0, 0]]),
        table(blades * blades, mm[:, None, :] + mm[None, :, :], [[0, 0], [0, 1]]),
    )


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
    delta = np.eye(blades)[:, :, None]
    cut = 2 * blades * cells
    # The Sobolev cone's entries in the real unknowns.
    size = 2 * blades * len(h_mask)
    active = np.flatnonzero(np.broadcast_to(h_mask[:, None], (blades, len(h_mask), 2)))
    diagonal = active * (size + 1)  # flat indices of the active diagonal entries
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
        matrix.reshape(-1)[diagonal] += scale**2
        # Zero off the active unknowns; 2 u_i u_j has the same bits either way round.
        u = np.zeros(size)
        u[active] = scaling.wu[cut:] * scale
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
    """Yield the split's ``g``, the dual point ``p`` and ``A* p`` after each Newton step.

    The dual problem as a second-order-cone program: minimize
    ``Re<p, f_hat>`` subject to ``(1, A* p(x) / w)`` in a Lorentz cone at
    every grid point ``x`` and ``(1, p / W)``, over the active modes, in one
    more.  In conic form ``G p + s = (1, 0)`` with the slack ``s`` in the
    cones; the multiplier ``z`` of that constraint is the primal split, ``g(x)``
    the vector part of grid cone ``x``'s multiplier divided by ``w``.  Each
    step is a Mehrotra predictor-corrector step with Nesterov-Todd scaling.
    The first starts where both equality constraints hold: ``p = 0``, ``s =
    (1, 0)``, and ``z`` with the least-norm vector part that solves ``G^T z
    = -f`` and the scalar part ``max(1, _START_MARGIN |z_u|)`` per cone.
    Cone vector parts are real; the complex views meet the transforms, and
    above ``_DENSE_NEWTON_MAX_UNKNOWNS`` real unknowns conjugate gradients
    solve the Newton systems.  The generator returns when a step fails: a
    point that left the cones' interior, a pair without a Nesterov-Todd
    scaling, a Newton matrix whose Cholesky factorization breaks down, a
    non-finite direction or a zero step.
    """
    nblades = len(fvec)
    dim, points = len(shape), shape[0]
    cells = points**dim
    planes = (nblades,) + shape
    inv_w = 1.0 / weight[h_mask]
    cut = nblades * cells
    cones = _sum_space_cones(nblades, cells, len(inv_w))
    dense = 2 * fvec.size <= _DENSE_NEWTON_MAX_UNKNOWNS
    if dense:
        newton_matrix = _newton_matrix(dim, band, points, nblades, weight, h_mask, quad_w)

    def couple(p, Ap=None):
        """Vector parts of ``G p``, from ``Ap = adjoint(p)`` if given; scalar parts are zero."""
        Ap = adjoint(p) if Ap is None else Ap
        return np.concatenate([Ap.ravel() / -quad_w, (p[:, h_mask] * -inv_w).ravel()]).view(float)

    def couple_t(u):
        """``G^T`` of a point with vector parts ``u``."""
        u = u.view(complex)
        out = forward(u[:cut].reshape(planes)) / -quad_w
        out[:, h_mask] -= u[cut:].reshape(nblades, -1) * inv_w
        return out

    # G^T G = I / (w**2 P**n) + W**-2 on the active modes is diagonal for
    # P >= 2N + 1, so z_u = G y with y = -f / diag(G^T G) is the least-norm
    # solution of G^T z_u = -f.  A relative margin on each scalar part keeps
    # z inside the cones even where |z_u| is beyond 1 / eps.
    diagonal = 1.0 / (quad_w**2 * cells) + np.where(h_mask, 1.0 / weight**2, 0.0)
    z_u = couple(-fvec / diagonal)
    z_t = np.maximum(1.0, _START_MARGIN * np.sqrt(cones.dot(z_u, z_u)))
    # s and z end to end, one point of the pair of cones, as are ds and dz.
    pair, s = cones.pair, (np.ones(cones.count), np.zeros(len(cones.ids)))
    p, sz = np.zeros_like(fvec), _stacked(s, (z_t, z_u))
    Ap = adjoint(p)
    for _ in range(_INTERIOR_POINT_MAX_STEPS):
        lorentz = pair.lorentz(sz)
        if not lorentz.min() > 0:  # also false on a NaN
            return
        try:
            scaling = _NTScaling(cones, sz, lorentz)
        except ZeroDivisionError:
            return
        if dense:
            matrix = newton_matrix(scaling)
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return
        s, z = cones.halves(sz)
        r_x = couple_t(z[1]) + fvec
        r_z = (s[0] - 1.0, couple(p, Ap) + s[1])
        scaled_r_z = scaling.inverse(r_z)

        def direction(r_c):
            """Newton direction ``(dp, dsz)`` with ``lam o (W^-1 ds + W dz) = r_c``."""
            t, u = scaling.divide(r_c)
            v = (scaled_r_z[0] + t, scaled_r_z[1] + u)
            scaled_v = scaling.inverse(v)
            rhs = -r_x - couple_t(scaled_v[1])
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
            return dp, _stacked((-r_z[0], -r_z[1] - gdp), (scaled_v[0] + rt, scaled_v[1] + ru))

        # Predictor: the affine direction, r_c = -lam o lam.
        gap = cones.inner(s, z)
        lt, lu = cones.product(scaling.lam, scaling.lam)
        _, dsz = direction((-lt, -lu))
        alpha = min(1.0, scaling.max_step(dsz))
        ratio = cones.inner(*cones.halves(_moved(sz, alpha, dsz))) / gap
        sigma = min(1.0, max(0.0, ratio)) ** 3
        # Corrector: centring at sigma * mu plus the second-order term.
        ct, cu = cones.product(*cones.halves(scaling.apply(dsz, None)))
        dp, dsz = direction((sigma * gap / cones.count - lt - ct, -lu - cu))
        alpha = min(1.0, _STEP_FRACTION * scaling.max_step(dsz))
        if not (alpha > 0 and np.isfinite(np.concatenate((dp.view(float).ravel(), *dsz))).all()):
            return
        p, sz = p + alpha * dp, _moved(sz, alpha, dsz)
        # The step's certificate and the next step's residual share A* p.
        Ap = adjoint(p)
        yield cones.halves(sz)[1][1].view(complex)[:cut].reshape(planes) / quad_w, p, Ap


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


#: A polish's support: the cells where ``|g(x)|`` exceeds this fraction of its maximum.
_POLISH_SUPPORT = 1e-6
#: Newton steps of each polish model.
_POLISH_MAX_STEPS = 8


def _polish(g, fvec, band, weight, h_mask, quad_w, adjoint) -> Iterator[tuple]:
    """Yield ``g``, a dual point ``p`` and ``A* p`` after each Newton step on a fixed support.

    On the support ``S`` of ``g`` the cost is smooth while no ``g(x)`` and no
    ``h`` vanish.  Each model (see the module docstring) takes up to
    ``_POLISH_MAX_STEPS`` steps from ``g``, its KKT system solved by least
    squares; ``W A_S g = W f`` is reduced to its row space by a singular value
    decomposition.  An excluded mean entry of ``p`` is the multiplier of
    ``(A_S g)_0 = 0``.
    """
    nblades, shape = g.shape[0], g.shape[1:]
    dim, points = len(shape), shape[0]
    flat = g.reshape(nblades, -1)
    magnitude = np.linalg.norm(flat, axis=0)
    support = np.flatnonzero(magnitude > _POLISH_SUPPORT * magnitude.max())
    cells, unknowns = len(support), 2 * nblades * len(support)
    if not 0 < unknowns <= _DENSE_NEWTON_MAX_UNKNOWNS:
        return
    # W_m e^{-i m.x} / P**n on S, from exact integer phases, and the real
    # matrix of g -> W A_S g, with unknowns ordered (cell, blade, re/im) and
    # rows (mode, blade, re/im).
    phase = (mode_matrix(dim, band) @ np.array(np.unravel_index(support, shape))) % points
    rows = weight[:, None] * np.exp(phase * (-2j * math.pi / points)) / points**dim
    eye, rotate = np.eye(2 * nblades), np.kron(np.eye(nblades), [[0.0, -1.0], [1.0, 0.0]])
    jac = np.kron(rows.real, eye) + np.kron(rows.imag, rotate)
    target = (weight * fvec).T.ravel().view(float)
    active = np.repeat(h_mask, 2 * nblades)
    sob = jac[active]
    gram, diagonal = sob.T @ sob, np.eye(cells)

    def newton(cons, bound, basis=None):
        """Steps on the first model, or with the constraint's ``basis`` on the second."""
        y = flat[:, support].T.ravel().view(float)
        for _ in range(_POLISH_MAX_STEPS):
            cone = y.reshape(cells, -1)
            size = np.linalg.norm(cone, axis=1)[:, None]
            u = cone / size
            blocks = quad_w * (eye - u[:, :, None] * u[:, None, :]) / size[:, :, None]
            grad = quad_w * u.ravel()
            hess = np.einsum("xy,xab->xayb", diagonal, blocks).reshape(unknowns, unknowns)
            if basis is None:
                res = sob @ y - target[active]
                length = np.linalg.norm(res)
                normal = sob.T @ res / length
                hess += (gram - np.outer(normal, normal)) / length
                grad += normal
            kkt = np.block([[hess, cons.T], [cons, np.zeros((len(cons),) * 2)]])
            step = np.linalg.lstsq(kkt, np.concatenate([-grad, bound - cons @ y]))[0]
            y = y + step[:unknowns]
            if basis is None:
                nu = np.where(active, jac @ y - target, 0.0)
                nu = nu / np.linalg.norm(nu)
                nu[~active] = step[unknowns:]
            else:
                nu = basis @ step[unknowns:]
            p = weight[:, None] * nu.view(complex).reshape(-1, nblades)
            if not (np.isfinite(y).all() and np.isfinite(p).all()):
                return
            out = np.zeros_like(flat)
            out[:, support] = y.view(complex).reshape(cells, nblades).T
            yield out.reshape(g.shape), p.T, adjoint(p.T)

    yield from newton(jac[~active], target[~active])
    basis, singular, right = np.linalg.svd(jac, full_matrices=False)
    yield from newton(singular[:, None] * right, basis.T @ target, basis)


#: How far, in units in the last place of the split cost, the lower bound
#: may exceed it through roundoff before the certificate counts as broken,
#: and how large a closed-form gap may be and still count as roundoff.
_GAP_ROUNDOFF_ULPS = 16


def _duality_gap(upper, s1: float, s2: float, dot: float) -> float:
    """The gap between a split's cost ``upper`` and a dual point's lower bound.

    ``s1`` and ``s2`` are the dual point's grid and Sobolev scales and ``dot``
    is ``Re<p, f_hat>``.  Bounds that cross by roundoff give 0; a larger
    crossing raises :class:`InvariantViolation`.
    """
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


def _certificates(fvecs, g, Ag, p, Ap, h_mask, weight, weight_sq) -> list[tuple]:
    """The certificate ``(upper, gap, g, h)`` of each split of a stack of fields.

    ``fvecs`` holds coefficient rows ``(fields, blades, modes)``, ``g`` the
    splits' mean-repaired grid parts (None for zero grids), ``Ag`` their
    forward maps, ``p`` dual points shaped as ``fvecs`` and ``Ap`` their
    adjoints.  Each field's sums run over one row, in a single field's order.
    """
    count, dim = len(fvecs), Ap.ndim - 2
    h = np.where(h_mask, fvecs - Ag, 0.0)
    uppers = np.sqrt(_row_sums(weight_sq * (np.abs(h) ** 2)))
    if g is None:  # the L1 term of a zero grid is 0.0, and 0.0 + x == x
        g = np.zeros(Ap.shape, dtype=complex)
    else:
        uppers = np.add(_l1_norms(g, dim), uppers)
    point_norms = np.sqrt((np.abs(Ap) ** 2).sum(axis=1))
    s1 = point_norms.reshape(count, -1).max(axis=1) / (TWO_PI / Ap.shape[-1]) ** dim
    # numpy lays a single field's masked columns (blades, active) out mode
    # by mode, and sums them in that order; so does each row here.
    scaled = np.compress(h_mask, (np.abs(p) ** 2) / weight_sq, axis=2)
    s2 = np.sqrt(_row_sums(np.swapaxes(scaled, 1, 2)))
    dots = _row_sums(np.real(np.conj(p) * fvecs))
    uppers = uppers.tolist()
    gaps = map(_duality_gap, uppers, s1.tolist(), s2.tolist(), dots.tolist())
    return list(zip(uppers, gaps, g, h))


def _closed_form(fvecs, dim, band, points, tol, h_mask, weight, weight_sq):
    """The certificates of the splits ``g = 0`` of stacked fields, in one check.

    ``fvecs`` holds the coefficient rows ``(fields, blades, modes)``.  Only
    ``p0 = -W**2 f / ||W f||`` can certify ``g = 0`` (zero when ``||W f||``
    is not positive, say by underflow), so each field gets one certificate
    there, ``(upper, gap, g, h)``, and whether it settles the split.  The
    adjoint runs per field, so each field keeps the bits of its own check.
    """
    count, nblades = fvecs.shape[:2]
    weighted = np.where(h_mask, weight * fvecs, 0.0)
    weighted_norms = np.sqrt(_row_sums(np.abs(weighted) ** 2))
    positive = weighted_norms > 0
    p0 = -weight * weighted / np.where(positive, weighted_norms, 1.0)[:, None, None]
    p0[~positive] = 0.0
    _, adjoint = _coupling(dim, band, points, count, nblades)
    # A 0 is zero up to signs of zero that h keeps; a cached table holds it.
    Ag = _zero_image(dim, band, points, nblades)
    found = _certificates(fvecs, None, Ag, p0, adjoint(p0), h_mask, weight, weight_sq)
    checks = []
    for norm, (upper, gap, g_i, h_i) in zip(weighted_norms.tolist(), found):
        roundoff = _GAP_ROUNDOFF_ULPS * math.ulp(upper) if math.isfinite(upper) else 0.0
        checks.append((norm > 0 and gap <= max(tol, roundoff), (upper, gap, g_i, h_i)))
    return checks


def _split(f: SpectralField, points: int, homogeneous: bool, certificate, iterations, path):
    """The :class:`SumSpaceSplit` of ``f`` from a certificate ``(upper, gap, g, h)``."""
    upper, gap, g_adj, h_rep = certificate
    return SumSpaceSplit(
        # f's masks are checked and sorted; g_adj and h_rep are the split's own.
        g=GridField._of(f.dim, points, f.masks, g_adj),
        h=f._with(f.masks, h_rep, homogeneous),
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
    weights: np.ndarray | Callable | None = None,
    points_per_axis: int | None = None,
    max_iterations: int = 100_000,
) -> SumSpaceSplit:
    """Minimizer of ``||g||_L1 + ||h||_{H^s}`` over ``g + h = f``, certified.

    ``s`` defaults to ``-dim/2``.  The homogeneous variant requires a
    zero-mean field.  The pure-Sobolev split ``g = 0, h = f`` is checked in
    closed form first (see the module docstring) and returned with
    ``iterations == 0`` when its gap is within ``tol``, or within
    ``_GAP_ROUNDOFF_ULPS`` units in the last place of its value, since
    roundoff alone leaves such a gap on large fields whatever ``tol`` is; the
    gap is reported as computed.  Otherwise interior-point Newton steps run,
    then a polish if they stall, each step certified, until the gap drops
    below ``tol``.  ``max_iterations`` caps the Newton steps; when it runs
    out or the steps stall, :class:`ConvergenceError` carries the best
    certified split seen, the closed-form one included.  ``path`` names the
    method that produced the split: ``"closed-form"`` or
    ``"interior-point"``.  The reported gap is never negative: bounds that
    cross by roundoff report 0, and a larger crossing raises
    :class:`InvariantViolation`.  This is :func:`sum_space_norms` of ``[f]``.
    """
    return sum_space_norms([f], s, homogeneous, tol, weights=weights,
                           points_per_axis=points_per_axis, max_iterations=max_iterations)[0]


def sum_space_norms(
    fields: Sequence[SpectralField],
    s: float | None = None,
    homogeneous: bool = True,
    tol: float = 1e-6,
    *,
    weights: np.ndarray | Callable | None = None,
    points_per_axis: int | None = None,
    max_iterations: int = 100_000,
) -> list[SumSpaceSplit]:
    """:func:`sum_space_norm` of each field, with one closed-form check for all.

    The fields share ``dim`` and ``band``, so one grid and one weight table
    serve them all.  Their closed-form checks run stacked, one per blade
    count (see the module docstring); each field's split, value and gap are
    those of its own :func:`sum_space_norm` call, bit for bit.  The fields
    that the check does not settle then iterate one after another, in
    order, each seeded with its own closed-form certificate as the best one
    seen; the first that fails raises its :class:`ConvergenceError`.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")
    if max_iterations < 1:
        raise InputError(f"iteration cap must be at least 1, got {max_iterations!r}")
    fields = list(fields)
    if not fields:
        return []
    dim, band = fields[0].dim, fields[0].band
    if any((f.dim, f.band) != (dim, band) for f in fields):
        raise InputError("stacked fields must share their dimension and band")
    if s is None:
        s = -dim / 2.0
    if homogeneous and any(_mean_column(f.data).any() for f in fields):
        raise InputError("homogeneous sum-space norm requires a zero-mean field")
    P = default_points(band) if points_per_axis is None else int(points_per_axis)
    if P < 2 * band + 1:
        raise InputError(f"grid of {P} points per axis is too coarse for band {band}")
    shape = (P,) * dim
    quad_w = (TWO_PI / P) ** dim
    h_mask, weight, weight_sq = _weights_for(dim, band, s, homogeneous, weights)

    # Rows of one field stack only with rows of as many blades.
    stacks: dict[int, list[int]] = {}
    for i, f in enumerate(fields):
        stacks.setdefault(len(f.masks), []).append(i)
    checks = [None] * len(fields)
    for members in stacks.values():
        fvecs = np.stack([fields[i].data for i in members])
        found = _closed_form(fvecs, dim, band, P, tol, h_mask, weight, weight_sq)
        for i, check in zip(members, found):
            checks[i] = check

    def iterate(f: SpectralField, seed) -> SumSpaceSplit:
        """Newton steps, then a polish, from the closed-form certificate ``seed``."""
        fvec, nblades = f.data, len(f.masks)
        forward, adjoint = _coupling(dim, band, P, nblades)

        def certificate(gq, pq, Ap):
            """The certificate of ``gq``'s split, mean repaired; ``Ap`` is ``adjoint(pq)``."""
            Ag = forward(gq)
            if homogeneous:
                # Repair the mean constraint by adding a constant per blade.
                # A constant moves only the mean column of Ag, which h_mask
                # excludes, so Ag serves the repaired split as it is.
                rho = _mean_column(fvec) - _mean_column(Ag)
                if np.any(rho):
                    gq = gq + rho.reshape((nblades,) + (1,) * dim)
            return _certificates(
                fvec[None], gq[None], Ag[None], pq[None], Ap[None], h_mask, weight, weight_sq
            )[0]

        # The best certificate seen and its path, and the g of the best
        # Newton step, where the polish starts.
        best, best_path, best_g = seed, "closed-form", None

        def polish():
            if best_g is not None:
                yield from _polish(best_g, fvec, band, weight, h_mask, quad_w, adjoint)

        newton = _interior_point(fvec, band, weight, h_mask, quad_w, shape, forward, adjoint)
        iterations = 0
        for gq, pq, Ap in itertools.chain(newton, polish()):
            iterations += 1
            found = certificate(gq, pq, Ap)
            if found[1] <= tol:
                return _split(f, P, homogeneous, found, iterations, "interior-point")
            if found[1] < best[1]:
                best, best_path, best_g = found, "interior-point", gq
            if iterations == max_iterations:
                break
        raise ConvergenceError(
            f"sum-space optimizer stopped at gap {best[1]:.3e} after "
            f"{iterations} iterations (tol {tol:g})",
            partial=_split(f, P, homogeneous, best, iterations, best_path),
        )

    splits = []
    for f, (certified, certificate) in zip(fields, checks):
        # A zero field's split g = h = 0 is optimal with gap 0.
        if certified or not f.data.any():
            splits.append(_split(f, P, homogeneous, certificate, 0, "closed-form"))
        else:
            splits.append(iterate(f, certificate))
    return splits
