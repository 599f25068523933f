"""Norms: quadrature L1/L2, coefficient Sobolev norms, and sum-space norms.

The sum-space norm of a band-limited field is the infimal convolution

    ||f|| = inf { ||g||_L1 + ||h||_{H^s} : g + h = f },

discretized with ``g`` living on the oversampled grid (where L1 is local) and
``h`` on the coefficient table (where the Sobolev norm is diagonal).  The
infimum is computed by a first-order primal-dual splitting whose proximal
maps are exact in their native domains: pointwise block shrinkage for the L1
term, a single radial projection for the dualized Sobolev term, and the
transform pair as the coupling.  Every run carries a duality-gap certificate:
the reported value is a feasible split cost, and a feasible dual point bounds
the optimum from below, so ``gap >= 0`` honestly measures convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, InputError
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


def sum_space_norm(
    f: SpectralField,
    s: float | None = None,
    homogeneous: bool = True,
    tol: float = 1e-6,
    *,
    weights: np.ndarray | Callable | None = None,
    points_per_axis: int | None = None,
    max_iterations: int = 100_000,
    check_every: int = 50,
    step_ratio: float | None = None,
) -> SumSpaceSplit:
    """Approximate minimizer of ``||g||_L1 + ||h||_{H^s}`` over ``g + h = f``.

    ``s`` defaults to ``-dim/2``.  The homogeneous variant requires a
    zero-mean field.  Stops when the duality-gap certificate drops below
    ``tol``; raises :class:`ConvergenceError` (carrying the partial split)
    when the iteration cap is hit first.

    ``step_ratio`` scales the primal step against the dual step.  By default
    the solver spends a quarter of the budget at ratio 1 (fastest when the
    split is Sobolev-only) and then rebalances to ``sqrt(grid size)``, which
    is what instances with an active integrable part need; an explicit value
    disables the schedule.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")
    dim, band = f.dim, f.band
    if s is None:
        s = -dim / 2.0
    if homogeneous and not f.mean_coefficient().is_zero():
        raise InputError("homogeneous sum-space norm requires a zero-mean field")
    P = int(points_per_axis) if points_per_axis else default_points(band)
    if P < 2 * band + 1:
        raise InputError(f"grid of {P} points per axis is too coarse for band {band}")

    masks, fvec = f.masks, f.data
    nblades = len(masks)
    shape = (P,) * dim
    quad_w = (TWO_PI / P) ** dim
    cell_count = P**dim

    weight, h_mask = _weights_for(dim, band, s, homogeneous, weights)
    zero_split = SumSpaceSplit(
        g=GridField(dim, P, {mask: np.zeros(shape, complex) for mask in masks}),
        h=SpectralField(dim, band, {}, zero_mean=homogeneous),
        value=0.0,
        gap=0.0,
        iterations=0,
    )
    if not np.any(fvec):
        return zero_split

    gather = _wrapped_index_arrays(dim, band, P)
    spatial_axes = tuple(range(1, dim + 1))

    def forward(planes: np.ndarray) -> np.ndarray:
        hat = np.fft.fftn(planes, axes=spatial_axes) / cell_count
        return hat[(slice(None),) + gather]

    def adjoint(vec: np.ndarray) -> np.ndarray:
        cube = np.zeros((nblades,) + shape, dtype=complex)
        cube[(slice(None),) + gather] = vec
        return np.fft.ifftn(cube, axes=spatial_axes)

    # Step sizes from a block bound on the coupling operator norm.
    a = cell_count**-0.5
    wmax = float(weight[h_mask].max()) if np.any(h_mask) else 1.0
    block = np.array([[a, 1.0], [0.0, wmax]])
    K_bound = float(np.linalg.svd(block, compute_uv=False)[0])
    base = 0.95 / K_bound
    if step_ratio is None:
        phases = [(1.0, max_iterations // 4), (math.sqrt(cell_count), max_iterations)]
    else:
        phases = [(float(step_ratio), max_iterations)]

    g = np.zeros((nblades,) + shape, dtype=complex)
    h = np.zeros((nblades, fvec.shape[1]), dtype=complex)
    g_bar = g.copy()
    h_bar = h.copy()
    p = np.zeros_like(h)
    q = np.zeros_like(h)
    masked_weight = np.where(h_mask, weight, 1.0)

    def certificate(gq, pq):
        """Feasible primal cost, dual lower bound, and the repaired split."""
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
        return upper, lower, g_adj, h_rep

    iterations = 0
    for ratio, phase_end in phases:
        tau = base * ratio
        sigma = base / ratio
        # A phase change restarts the step sizes but keeps the iterates, so
        # earlier progress warm-starts the rebalanced run.
        g_bar, h_bar = g.copy(), h.copy()
        while iterations < phase_end:
            for _ in range(check_every):
                iterations += 1
                # Dual ascent on the coupling and Sobolev blocks.
                p += sigma * (forward(g_bar) + h_bar - fvec)
                y2 = q + sigma * (masked_weight * h_bar)
                y2_norm = math.sqrt((np.abs(y2) ** 2).sum())
                q = y2 / y2_norm if y2_norm > 1.0 else y2
                # Primal descent: shrinkage on the grid, linear step on coefficients.
                v = g - tau * adjoint(p)
                mag = np.sqrt((np.abs(v) ** 2).sum(axis=0))
                scale = np.maximum(0.0, 1.0 - (tau * quad_w) / np.maximum(mag, 1e-300))
                g_new = v * scale
                h_new = (h - tau * (p + masked_weight * q)) * h_mask
                g_bar = 2.0 * g_new - g
                h_bar = 2.0 * h_new - h
                g, h = g_new, h_new
            upper, lower, g_adj, h_rep = certificate(g, p)
            gap = upper - lower
            if gap <= tol:
                return SumSpaceSplit(
                    g=GridField(dim, P, {mask: g_adj[i] for i, mask in enumerate(masks)}),
                    h=SpectralField.from_blade_vectors(
                        dim, band, masks, h_rep, zero_mean=homogeneous
                    ),
                    value=float(upper),
                    gap=float(gap),
                    iterations=iterations,
                )
    upper, lower, g_adj, h_rep = certificate(g, p)
    partial = SumSpaceSplit(
        g=GridField(dim, P, {mask: g_adj[i] for i, mask in enumerate(masks)}),
        h=SpectralField.from_blade_vectors(dim, band, masks, h_rep, zero_mean=homogeneous),
        value=float(upper),
        gap=float(upper - lower),
        iterations=iterations,
    )
    raise ConvergenceError(
        f"sum-space optimizer stopped at gap {upper - lower:.3e} after "
        f"{iterations} iterations (tol {tol:g})",
        partial=partial,
    )
