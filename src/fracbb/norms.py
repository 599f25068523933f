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
difference.

The pure-Sobolev split ``g = 0, h = f`` is checked first, in closed form.
The only dual point that can certify it maximizes the Sobolev dual term:
``p0 = -W**2 f_hat / ||W f_hat||``, zero on a mean mode that ``h`` may not
occupy.  The split is proven optimal when ``max_x |A* p0|(x) <= w``, the KKT
condition of the infimal convolution, which costs one adjoint transform.
(With the mean mode excluded the dual entry there is free, so fixing it at
zero makes the check sufficient rather than necessary.)  With the genuine
``H^{-n/2}`` weights every field at desk-scale bands passes.

Otherwise the infimum is computed by the first-order primal-dual method of
Chambolle and Pock (J. Math. Imaging Vision 40, 2011), whose proximal maps
are exact in their native domains: pointwise block shrinkage for the L1
term, a single radial projection for the dualized Sobolev term, and the
transform pair as the coupling.  It starts from zero, checks the gap every
fifty iterations, and runs the first quarter of its iteration budget at
primal/dual step ratio 1 and the rest at ``sqrt(grid size)``: neither ratio
is faster on every instance that needs the iteration.

The coupling pair ``A``/``A*`` is built once per solve and realized in one of
two ways, chosen from the band and the grid alone.  While the per-axis DFT
matrix ``E[k, m] = exp(-i m x_k) / P`` has at most 128 * 65 entries (the
default grid of band 32), both maps are dense matmuls, one per axis, with
the matrices cached per ``(band, P)``; the band cube is lexicographic, so no
gather or scatter is needed.  Larger grids run one FFT per axis with a
gather, and a scatter into one zero cube reused for the whole solve.  On
small grids numpy call overhead, not arithmetic, sets the cost: on a 2-CPU
machine a forward/adjoint pair at 32 points and band 8 took 4-8 us as
matmuls, 17-30 us as per-axis FFTs and 45-52 us as ``fftn`` with gather and
scatter, while past the rule the matmuls lose (1-D, 512 points, band 128:
3 times the FFTs; 2-D, 128 points, band 63: 1.3 times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, InputError, InvariantViolation
from .spectral import (
    GridField,
    SpectralField,
    TWO_PI,
    _wrapped_index_arrays,
    default_points,
    mode_matrix,
)


def l1_norm(u: GridField) -> float:
    """Uniform-grid quadrature of ``integral ||u(x)|| dx``."""
    return float(u.quadrature_weight() * u.magnitude().sum())


def l2_norm(u: GridField) -> float:
    """Uniform-grid quadrature of ``(integral ||u(x)||**2 dx)**(1/2)``."""
    return float(math.sqrt(u.quadrature_weight() * (u.magnitude() ** 2).sum()))


def sobolev_norm(u: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Weighted coefficient norm: ``|m|**(2s)`` or ``(1 + |m|**2)**s`` weights.

    The homogeneous variant always excludes the mean; for ``s < 0`` it
    rejects fields with a nonzero mean coefficient (undefined weight at 0).
    """
    norm_sq = (mode_matrix(u.dim, u.band) ** 2).sum(axis=1).astype(float)
    power = (np.abs(u.data) ** 2).sum(axis=0)
    if not homogeneous:
        return math.sqrt(float(((1.0 + norm_sq) ** s * power).sum()))
    if s < 0 and not u.mean_coefficient().is_zero():
        raise InputError(
            "homogeneous norm with negative exponent needs a zero-mean field"
        )
    active = norm_sq > 0
    return math.sqrt(float((norm_sq[active] ** s * power[active]).sum()))


@dataclass
class SumSpaceSplit:
    """A feasible split ``f = g + h`` with its cost and optimality certificate.

    ``value`` is the achieved ``||g||_L1 + ||h||_{H^s}``; ``gap`` the
    duality-gap certificate (0 means proven optimal on the discretization).
    """

    g: GridField
    h: SpectralField
    value: float
    gap: float
    iterations: int


def _weights_for(
    dim: int,
    band: int,
    s: float,
    homogeneous: bool,
    weights: np.ndarray | Callable | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode Sobolev weights and the mask of modes ``h`` may occupy."""
    mm = mode_matrix(dim, band)
    norm_sq = (mm.astype(float) ** 2).sum(axis=1)
    mask = np.ones(len(mm), dtype=bool)
    if homogeneous:
        mask &= norm_sq > 0
    if weights is None:
        # W multiplies h_hat inside an l2 norm, so W**2 must be the Sobolev
        # weight: |m|**(2s), resp. (1 + |m|**2)**s.
        w = np.ones(len(mm))
        if homogeneous:
            w[mask] = norm_sq[mask] ** (s / 2.0)
        else:
            w = (1.0 + norm_sq) ** (s / 2.0)
    elif callable(weights):
        w = np.array([float(weights(tuple(row))) for row in mm])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(mm),):
            raise InputError(
                f"weights must have one entry per mode ({len(mm)}), got {w.shape}"
            )
    if np.any(w[mask] <= 0) or not np.all(np.isfinite(w[mask])):
        raise InputError("Sobolev weights must be positive and finite on active modes")
    return w, mask


#: Largest per-axis DFT matrix, ``P * (2N + 1)`` entries, that the solver
#: applies densely; past it one FFT per axis is faster.  128 * 65 is the
#: matrix of the default grid of band 32.
_DENSE_MAX_ENTRIES = 128 * 65


@lru_cache(maxsize=32)
def _dft_matrices(band: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis analysis matrix ``E[k, m] = exp(-i m x_k) / P`` and ``E^H``.

    ``E`` has shape ``(P, 2N+1)`` with modes in increasing order; the phase
    ``m * k`` is reduced modulo ``P`` in integers, so every entry is accurate
    to roundoff.  Shared cached storage; treat as read-only.
    """
    phase = np.outer(np.arange(points), np.arange(-band, band + 1)) % points
    analysis = np.exp(phase * (-1j * TWO_PI / points)) / points
    synthesis = np.ascontiguousarray(analysis.conj().T)
    analysis.flags.writeable = synthesis.flags.writeable = False
    return analysis, synthesis


def _coupling(dim: int, band: int, points: int, blades: int):
    """The solver's coupling operator ``A`` and its adjoint ``A*``.

    ``A`` maps grid planes ``(blades, P, ..., P)`` to coefficient rows
    ``(blades, modes)`` as :func:`spectral.forward_transform` does
    (``fftn / P**n`` restricted to the band); ``A*`` is its adjoint,
    ``P**-n`` times the synthesis of :func:`spectral.inverse_transform`.  Up
    to ``_DENSE_MAX_ENTRIES`` entries of the per-axis DFT matrix both apply
    the cached matrices, one matmul per axis; larger grids run one FFT per
    axis, in the order ``fftn`` uses, and scatter into one zero cube owned by
    the pair.
    """
    shape = (points,) * dim
    width = 2 * band + 1
    if points * width <= _DENSE_MAX_ENTRIES:
        analysis, synthesis = _dft_matrices(band, points)

        def forward(planes: np.ndarray) -> np.ndarray:
            # The last axis first; then each earlier axis, with the modes of
            # the axes already done as a trailing block.
            out = planes.reshape(-1, points) @ analysis
            for done in range(1, dim):
                out = analysis.T @ out.reshape(-1, points, width**done)
            return out.reshape(blades, -1)

        def adjoint(rows: np.ndarray) -> np.ndarray:
            out = rows.reshape(-1, width) @ synthesis
            for done in range(1, dim):
                out = synthesis.T @ out.reshape(-1, width, points**done)
            return out.reshape((blades,) + shape)

        return forward, adjoint

    index = (slice(None),) + _wrapped_index_arrays(dim, band, points)
    axes = range(dim, 0, -1)
    cell_count = points**dim
    cube = np.zeros((blades,) + shape, dtype=complex)

    def forward(planes: np.ndarray) -> np.ndarray:
        for axis in axes:
            planes = np.fft.fft(planes, axis=axis)
        return planes[index] / cell_count

    def adjoint(rows: np.ndarray) -> np.ndarray:
        cube[index] = rows
        out = cube
        for axis in axes:
            out = np.fft.ifft(out, axis=axis)
        return out

    return forward, adjoint


#: Iterations between two duality-gap checks of the iterative solver.
_CHECK_EVERY = 50
#: How far, in units in the last place of the split cost, the lower bound
#: may exceed it through roundoff before the certificate counts as broken.
_GAP_ROUNDOFF_ULPS = 16


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
    closed form first: with ``p0 = -W**2 f_hat / ||W f_hat||`` (zero on an
    excluded mean mode) it is optimal when ``max_x |A* p0|(x) <= w``, the
    KKT condition of the infimal convolution, and then it is returned with
    ``iterations == 0``.  Otherwise the Chambolle-Pock iteration runs from
    zero (step ratio 1 for the first quarter of ``max_iterations``, then
    ``sqrt(grid size)``) and stops once the duality-gap certificate drops
    below ``tol``; it raises :class:`ConvergenceError` (carrying the partial
    split) when ``max_iterations`` runs out first.  The reported gap is
    never negative: bounds that cross by roundoff report 0, and a larger
    crossing raises :class:`InvariantViolation`.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")
    if max_iterations < 1:
        raise InputError(f"iteration cap must be at least 1, got {max_iterations!r}")
    dim, band = f.dim, f.band
    if s is None:
        s = -dim / 2.0
    if homogeneous and not f.mean_coefficient().is_zero():
        raise InputError("homogeneous sum-space norm requires a zero-mean field")
    P = default_points(band) if points_per_axis is None else int(points_per_axis)
    if P < 2 * band + 1:
        raise InputError(f"grid of {P} points per axis is too coarse for band {band}")

    masks, fvec = f.masks, f.data
    nblades = len(masks)
    shape = (P,) * dim
    quad_w = (TWO_PI / P) ** dim
    cell_count = P**dim

    weight, h_mask = _weights_for(dim, band, s, homogeneous, weights)
    if not np.any(fvec):
        return SumSpaceSplit(
            g=GridField(dim, P, {mask: np.zeros(shape, complex) for mask in masks}),
            h=SpectralField(dim, band, {}, zero_mean=homogeneous),
            value=0.0,
            gap=0.0,
            iterations=0,
        )

    forward, adjoint = _coupling(dim, band, P, nblades)
    g = np.zeros((nblades,) + shape, dtype=complex)
    masked_weight = np.where(h_mask, weight, 1.0)

    def certificate(gq, pq):
        """Feasible primal cost, duality gap, and the repaired split."""
        Ag = forward(gq)
        g_adj = gq
        if homogeneous:
            # Repair the mean constraint by adding a constant per blade.
            rho = fvec[:, ~h_mask] - Ag[:, ~h_mask]
            if rho.size and np.any(rho):
                g_adj = gq + rho.sum(axis=1).reshape((nblades,) + (1,) * dim)
                Ag = forward(g_adj)
        h_rep = np.where(h_mask, fvec - Ag, 0.0)
        mag = np.sqrt((np.abs(g_adj) ** 2).sum(axis=0))
        upper = quad_w * mag.sum() + math.sqrt(
            ((masked_weight**2) * (np.abs(h_rep) ** 2)).sum()
        )
        Ap = adjoint(pq)
        point_norms = np.sqrt((np.abs(Ap) ** 2).sum(axis=0))
        s1 = float(point_norms.max()) / quad_w
        s2 = math.sqrt(
            ((np.abs(pq) ** 2)[:, h_mask] / (weight[h_mask] ** 2)).sum()
        )
        mu = max(s1, s2, 1.0)
        # Dual feasibility also needs p = -W*q on active modes, so the scaled
        # dual objective is -<p, f_hat>; weak duality gives the lower bound.
        lower = -float(np.real(np.conj(pq) * fvec).sum()) / mu
        gap = float(upper - lower)
        if gap < 0:
            # Bounds that meet can cross by roundoff; more means a broken bound.
            if gap < -_GAP_ROUNDOFF_ULPS * math.ulp(upper):
                raise InvariantViolation(
                    f"sum-space lower bound {lower!r} exceeds the split cost {upper!r}"
                )
            gap = 0.0
        return float(upper), gap, g_adj, h_rep

    def finish(upper, gap, g_adj, h_rep, iterations) -> SumSpaceSplit:
        return SumSpaceSplit(
            g=GridField(dim, P, {mask: g_adj[i] for i, mask in enumerate(masks)}),
            h=SpectralField.from_blade_vectors(dim, band, masks, h_rep, zero_mean=homogeneous),
            value=upper,
            gap=gap,
            iterations=iterations,
        )

    # Only the maximizer p0 of the Sobolev dual term can certify g = 0, so one
    # certificate at p0 settles that split.  ||W f|| can underflow to 0 for a
    # nonzero field; then only the iteration is left.
    weighted = np.where(h_mask, masked_weight * fvec, 0.0)
    weighted_norm = math.sqrt(float((np.abs(weighted) ** 2).sum()))
    if weighted_norm > 0:
        upper, gap, g_adj, h_rep = certificate(g, -masked_weight * weighted / weighted_norm)
        if gap <= tol:
            return finish(upper, gap, g_adj, h_rep, 0)

    # Step sizes from a block bound on the coupling operator norm.  The best
    # primal/dual step ratio depends on the instance: a quarter of the budget
    # runs at ratio 1, the rest at sqrt(grid size), which is what instances
    # with an active integrable part mostly need.
    a = cell_count**-0.5
    wmax = float(weight[h_mask].max()) if np.any(h_mask) else 1.0
    block = np.array([[a, 1.0], [0.0, wmax]])
    K_bound = float(np.linalg.svd(block, compute_uv=False)[0])
    base = 0.95 / K_bound
    phases = [(1.0, max_iterations // 4), (math.sqrt(cell_count), max_iterations)]

    h = np.zeros_like(fvec)
    p = np.zeros_like(h)
    q = np.zeros_like(h)
    iterations = 0
    for ratio, phase_end in phases:
        tau = base * ratio
        sigma = base / ratio
        sigma_w = sigma * masked_weight
        tau_m = tau * h_mask
        threshold = tau * quad_w
        # A phase change restarts the step sizes but keeps the iterates, so
        # earlier progress warm-starts the rebalanced run.
        g_bar, h_bar = g.copy(), h.copy()
        while iterations < phase_end:
            for _ in range(min(_CHECK_EVERY, max_iterations - iterations)):
                iterations += 1
                # Dual ascent on the coupling and Sobolev blocks.
                p += sigma * (forward(g_bar) + h_bar - fvec)
                y2 = q + sigma_w * h_bar
                y2_norm = math.sqrt(np.vdot(y2, y2).real)
                q = y2 / y2_norm if y2_norm > 1.0 else y2
                # Primal descent: block shrinkage on the grid (the factor is
                # max(0, 1 - threshold/mag), exactly), linear step on
                # coefficients.
                v = g - tau * adjoint(p)
                mag = np.sqrt((np.abs(v) ** 2).sum(axis=0))
                g_new = v * (1.0 - threshold / np.maximum(mag, threshold))
                h_new = h - tau_m * (p + masked_weight * q)
                g_bar = 2.0 * g_new - g
                h_bar = 2.0 * h_new - h
                g, h = g_new, h_new
            upper, gap, g_adj, h_rep = certificate(g, p)
            if gap <= tol:
                return finish(upper, gap, g_adj, h_rep, iterations)
    raise ConvergenceError(
        f"sum-space optimizer stopped at gap {gap:.3e} after "
        f"{iterations} iterations (tol {tol:g})",
        partial=finish(upper, gap, g_adj, h_rep, iterations),
    )
