"""Simultaneous polynomial root finding and small-matrix eigenvalues.

The Aberth-Ehrlich iteration refines all roots at once from perturbed-circle
initial guesses.  Eigenvalues of small dense matrices come from LAPACK
(``np.linalg.eigvals``); eigenvalues closer than ``4 sqrt(eps) max|M|`` are
reported as their mean, because LAPACK splits a defective eigenvalue (an
exact zero collision) by about ``sqrt(eps)`` while the cluster mean stays
accurate.  Coefficients are stored in ascending order (``coeffs[k]``
multiplies ``z^k``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidParameter, NoConvergence

__all__ = [
    "polyval",
    "roots_polynomial",
    "eigenvalues_small",
]

RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-6
DEFECTIVE_TOL = 4.0 * math.sqrt(np.finfo(float).eps)
MAX_ITER = 200


def polyval(coeffs, z):
    """Horner evaluation; ``coeffs`` ascending, ``z`` scalar or ndarray."""
    acc = np.zeros_like(np.asarray(z, dtype=complex)) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _polyval_and_deriv(coeffs, z):
    p = coeffs[-1]
    dp = 0.0 + 0.0j
    for c in coeffs[-2::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _residual_ok(coeffs, roots, scale):
    deg = len(coeffs) - 1
    res = np.abs(polyval(coeffs, roots))
    bound = RESIDUAL_TOL * scale * (1.0 + np.abs(roots)) ** deg
    return res, np.all(res <= bound)


def _cluster(roots, tol):
    """Greedy chaining of roots within ``tol``; clusters collapse to their mean."""
    roots = list(roots)
    used = [False] * len(roots)
    out = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [z]
        while frontier:
            w = frontier.pop()
            for j, y in enumerate(roots):
                if not used[j] and abs(y - w) <= tol:
                    used[j] = True
                    group.append(j)
                    frontier.append(y)
        center = sum(roots[j] for j in group) / len(group)
        out.extend([center] * len(group))
    return out


def roots_polynomial(coeffs, max_iter: int = MAX_ITER, cluster_tol: float = CLUSTER_TOL):
    """All roots (with multiplicity) of a complex polynomial.

    Aberth-Ehrlich simultaneous iteration from perturbed-circle starting
    points.  Every returned root satisfies
    ``|P(root)| <= 1e-10 * max|c_k| * (1 + |root|)^deg``; clusters tighter
    than ``cluster_tol`` are reported as one repeated (mean) root.  Raises
    :class:`NoConvergence` with the best iterate after ``max_iter`` sweeps.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise InvalidParameter("coefficient list must be 1-d and nonempty")
    # Strip numerically absent leading terms only if they are exact zeros;
    # a tiny-but-nonzero leading coefficient is the caller's problem.
    while c.size > 1 and c[-1] == 0:
        c = c[:-1]
    if c.size == 1:
        if c[0] == 0:
            raise InvalidParameter("zero polynomial has no well-defined roots")
        return []
    scale = float(np.max(np.abs(c)))
    c = c / c[-1]

    # Exact zero roots deflate immediately (keeps the circle guess sane).
    zero_roots = 0
    while c.size > 1 and c[0] == 0:
        zero_roots += 1
        c = c[1:]
    deg = c.size - 1
    if deg == 0:
        return [0.0 + 0.0j] * zero_roots

    radius = abs(c[0]) ** (1.0 / deg) if c[0] != 0 else 1.0
    radius = min(max(radius, 1e-3), 1e6)
    ks = np.arange(deg)
    z = radius * np.exp(1j * (2.0 * math.pi * ks / deg + 0.37)) * (1.0 + 0.03 * ks / max(deg, 1))

    best = z.copy()
    best_res = np.inf
    for _ in range(max_iter):
        p = np.empty(deg, dtype=complex)
        dp = np.empty(deg, dtype=complex)
        for j in range(deg):
            p[j], dp[j] = _polyval_and_deriv(c, z[j])
        res = float(np.max(np.abs(p) / (1.0 + np.abs(z)) ** deg))
        if res < best_res:
            best_res = res
            best = z.copy()
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv_sum = np.sum(1.0 / diff, axis=1) - 1.0  # undo the diagonal fill
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
            denom = 1.0 - newton * inv_sum
            step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        # Stalled points with a vanishing derivative get a nudge off the cycle.
        stalled = (dp == 0) & (p != 0)
        if np.any(stalled):
            step = step + stalled * 0.1 * (1.0 + np.abs(z)) * cmath.exp(0.7j)
        z = z - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            _, ok = _residual_ok(c, z, 1.0)
            if ok:
                break
    else:
        res, ok = _residual_ok(c, z, 1.0)
        if not ok:
            raise NoConvergence(
                f"Aberth iteration did not converge in {max_iter} sweeps",
                roots=list(z),
                residuals=list(res),
            )

    roots = [0.0 + 0.0j] * zero_roots + list(z)
    roots = _cluster(roots, cluster_tol)
    res, ok = _residual_ok(np.asarray(coeffs, dtype=complex) / scale, np.array(roots), 1.0)
    if not ok:
        raise NoConvergence(
            "clustered roots violate the residual bound",
            roots=roots,
            residuals=list(res),
        )
    return roots


def eigenvalues_small(m: np.ndarray):
    """Eigenvalue multiset of a small dense matrix (r <= 20), from LAPACK.

    Eigenvalues closer than ``4 sqrt(eps) max|M|`` are chained into clusters
    and each cluster is reported as its mean, repeated: a defective
    eigenvalue splits by about ``sqrt(eps) max|M|`` under LAPACK, and the
    mean of the split pair is accurate to roundoff.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return []
    if n > 20:
        raise InvalidParameter("small-matrix eigenvalues limited to order 20")
    if n == 1:
        return [complex(m[0, 0])]
    ev = np.linalg.eigvals(m)
    tol = DEFECTIVE_TOL * float(np.max(np.abs(m)))
    gaps = np.abs(ev[:, None] - ev[None, :])
    gaps.flat[:: n + 1] = np.inf
    if np.min(gaps) <= tol:
        return _cluster(ev.tolist(), tol)
    return ev.tolist()
