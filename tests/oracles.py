"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the library's own code paths: direct
Riemann sums instead of FFTs, bubble-sort transposition counting instead of
the bitmask sign rule, polar quadrature instead of the closed-form disk norm,
a projected-subgradient optimizer instead of the primal-dual solver, and
row-by-row zero-row dropping for sums and differences of fields.
"""

from __future__ import annotations

import math

import numpy as np


def quadrature_coefficient(values: np.ndarray, m: tuple[int, ...]) -> complex:
    """Fourier coefficient by a direct Riemann sum over the uniform grid."""
    values = np.asarray(values, dtype=complex)
    dim = values.ndim
    P = values.shape[0]
    total = 0j
    for idx in np.ndindex(*values.shape):
        phase = sum(mj * (2.0 * math.pi * k / P) for mj, k in zip(m, idx))
        total += values[idx] * complex(math.cos(phase), -math.sin(phase))
    return total / P**dim


def brute_convolution(f_vals: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """Cyclic convolution by direct quadrature: (f*g)(x) = w * sum f(x-y) g(y)."""
    f_vals = np.asarray(f_vals, dtype=complex)
    g_vals = np.asarray(g_vals, dtype=complex)
    dim = f_vals.ndim
    P = f_vals.shape[0]
    w = (2.0 * math.pi / P) ** dim
    out = np.zeros_like(f_vals)
    for shift in np.ndindex(*g_vals.shape):
        out += np.roll(f_vals, shift, axis=tuple(range(dim))) * g_vals[shift] * w
    return out


def blade_sign_bubble(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(sign, blade) of a basis product by explicit transposition counting.

    Concatenates the generator words, bubble-sorts with a sign flip per swap,
    then contracts adjacent equal generators with a +1 factor.
    """
    word = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    out: list[int] = []
    for j in word:
        if out and out[-1] == j:
            out.pop()  # e_j * e_j = +1
        else:
            out.append(j)
    return sign, tuple(out)


def bergman_norm_quadrature(coeffs: np.ndarray, radial_nodes: int = 200, angular_nodes: int = 256) -> float:
    """Disk L2 norm by Gauss-Legendre (radial) x uniform (angular) quadrature."""
    coeffs = np.asarray(coeffs, dtype=complex)
    nodes, weights = np.polynomial.legendre.leggauss(radial_nodes)
    rho = 0.5 * (nodes + 1.0)
    w_rho = 0.5 * weights
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    w_theta = 2.0 * math.pi / angular_nodes
    total = 0.0
    for r, wr in zip(rho, w_rho):
        z = r * np.exp(1j * theta)
        vals = np.polyval(coeffs[::-1], z)
        total += wr * r * w_theta * float((np.abs(vals) ** 2).sum())
    return math.sqrt(total)


def dirichlet_tail_limit(theta: float, terms: int = 2_000_000) -> float:
    """Partial sum of ``2 sum sin(n theta)/n`` at a large truncation."""
    n = np.arange(1, terms + 1, dtype=float)
    return float(2.0 * (np.sin(n * theta) / n).sum())


def harmonic_sum(N: int) -> float:
    return float(sum(1.0 / k for k in range(1, N + 1)))


def sum_space_subgradient(
    fvec: np.ndarray,
    mode_matrix: np.ndarray,
    weight: np.ndarray,
    h_mask: np.ndarray,
    points: int,
    iterations: int,
    step0: float = 0.5,
) -> float:
    """Projected-subgradient minimizer of the discretized sum-space objective.

    Minimizes ``w*sum|g_k| + ||W (f_hat - A g)||_2`` over grid vectors ``g``,
    projecting onto the exact-constraint set of the excluded modes after each
    step.  Returns the best objective seen; converges slowly but needs
    nothing beyond explicit matrix products, so it is a genuinely independent
    check of the primal-dual solver.
    """
    fvec = np.asarray(fvec, dtype=complex).reshape(-1)
    dim = mode_matrix.shape[1]
    P = points
    x = np.arange(P) * 2.0 * math.pi / P
    if dim == 1:
        pts = x[None, :]
    else:
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
    E = np.exp(-1j * (mode_matrix @ pts)) / P**dim
    w = (2.0 * math.pi / P) ** dim
    Em, Wm, fm = E[h_mask], weight[h_mask], fvec[h_mask]
    Ex, fx = E[~h_mask], fvec[~h_mask]

    def project(g: np.ndarray) -> np.ndarray:
        if Ex.shape[0]:
            g = g + (fx - Ex @ g).sum()
        return g

    g = project(np.zeros(E.shape[1], dtype=complex))
    best = math.inf
    for t in range(1, iterations + 1):
        resid = fm - Em @ g
        rnorm = math.sqrt(float((np.abs(Wm * resid) ** 2).sum()))
        value = w * float(np.abs(g).sum()) + rnorm
        if value < best:
            best = value
        sub = w * np.where(np.abs(g) > 0, g / np.maximum(np.abs(g), 1e-300), 0)
        if rnorm > 1e-15:
            sub = sub - (Em.conj().T @ (Wm**2 * resid)) / rnorm
        g = project(g - (step0 / math.sqrt(t)) * sub)
    return best


def scatter_combine(a, b, subtract: bool = False) -> tuple:
    """``(masks, data, zero_mean)`` of ``a + b`` (or ``a - b``) by the union/scatter formula.

    ``a``'s rows go into a zero table over the union of both fields' blades,
    ``b``'s rows (negated to subtract) are added in place, and the zero rows
    are dropped one by one; a zero result is one zero scalar row.  The sum
    has a zero mean when every entry of its mean column, the middle one, is
    zero.
    """
    masks = tuple(sorted(set(a.masks) | set(b.masks)))
    data = np.zeros((len(masks), a.data.shape[1]), dtype=complex)
    data[[masks.index(mask) for mask in a.masks]] = a.data
    data[[masks.index(mask) for mask in b.masks]] += -b.data if subtract else b.data
    zero_mean = all(value == 0 for value in data[:, data.shape[1] // 2].tolist())
    keep = [r for r in range(len(masks)) if data[r].any()]
    if not keep:
        return (0,), np.zeros((1, data.shape[1]), dtype=complex), zero_mean
    return tuple(masks[r] for r in keep), data[keep], zero_mean
