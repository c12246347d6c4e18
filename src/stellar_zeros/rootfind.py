"""Polynomial roots and small-matrix eigenvalues, both from LAPACK.

Polynomial roots are the eigenvalues of the companion matrix (Edelman &
Murakami, Math. Comp. 64 (1995) 763), each followed by one bounded Newton
step.  Eigenvalues of small dense matrices, one or a stack of them, come from
one ``np.linalg.eigvals`` call; within each matrix, eigenvalues closer than
``4 sqrt(eps) max|M|`` are reported as their mean, because LAPACK splits a
defective eigenvalue (an exact zero collision) by about ``sqrt(eps)`` while
the cluster mean stays accurate.  Coefficients are stored in ascending order
(``coeffs[k]`` multiplies ``z^k``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidParameter, NoConvergence

__all__ = [
    "roots_polynomial",
    "eigenvalues_small",
]

RESIDUAL_TOL = 1e-10
DEFECTIVE_TOL = 4.0 * math.sqrt(np.finfo(float).eps)
_POLISH_ULPS = 8.0 * np.finfo(float).eps


def _min_gap(z):
    """Smallest pairwise distance within each set ``z[..., :]``; inf below two points."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    gaps = np.abs(z[..., :, None] - z[..., None, :])
    gaps.reshape(*z.shape[:-1], n * n)[..., :: n + 1] = np.inf  # a view: the diagonals
    return gaps.min(axis=(-2, -1), initial=np.inf)


def _cluster(z, tol):
    """Each point of ``z`` as the mean of its connected component under ``|z_i - z_j| <= tol``."""
    near = np.abs(z[:, None] - z) <= tol
    label, old = np.arange(z.size), None
    while not np.array_equal(label, old):  # each point takes its smallest neighbour label
        label, old = np.where(near, label, label[:, None]).min(axis=1, initial=z.size), label
    count = np.bincount(label)[label]
    re, im = (np.bincount(label, part)[label] / count for part in (z.real, z.imag))
    return re + 1j * im


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def roots_polynomial(coeffs):
    """All roots (with multiplicity) of a complex polynomial.

    Companion-matrix eigenvalues from LAPACK, each given one bounded Newton
    step.  Every returned root satisfies
    ``|P(root)| <= 1e-10 * max|c_k| * (1 + |root|)^deg``; roots closer than
    ``4 sqrt(eps) max(1, max|root|)`` (a split multiple root) are reported as
    one repeated (mean) root.  Raises :class:`NoConvergence` with the roots
    and their residuals when the bound fails, or cannot be evaluated because
    Horner's rule overflows at high degree.
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

    # Exact zero roots deflate, so a z^k factor gives k exact zeros rather
    # than a defective eigenvalue split by roundoff.
    zero_roots = int(np.flatnonzero(c)[0])
    c = c[zero_roots:] / c[-1]
    if not np.all(np.isfinite(c)):
        raise NoConvergence("monic coefficients are not finite", roots=[], residuals=[])
    roots = np.zeros(zero_roots, dtype=complex)
    if c.size > 1:
        z = np.linalg.eigvals(P.polycompanion(c))
        # One Newton step, kept where it lowers |P| by a move of a few ulps:
        # it restores symmetries that roundoff breaks (the roots of z^2 - 1
        # come back as exactly +-1) without letting Horner noise pull the
        # two roots of a close pair together.
        p = P.polyval(z, c)
        step = p / P.polyval(z, P.polyder(c))
        keep = (np.abs(step) <= _POLISH_ULPS * (1.0 + np.abs(z))) & (
            np.abs(P.polyval(z - step, c)) < np.abs(p)
        )
        roots = np.concatenate([roots, np.where(keep, z - step, z)])
    tol = DEFECTIVE_TOL * max(1.0, float(np.max(np.abs(roots))))
    if _min_gap(roots) <= tol:  # rare, as in eigenvalues_small
        roots = _cluster(roots, tol)
    full = np.asarray(coeffs, dtype=complex) / scale
    res = np.abs(P.polyval(roots, full))
    if not np.all(res / (1.0 + np.abs(roots)) ** (full.size - 1) <= RESIDUAL_TOL):
        raise NoConvergence(
            "companion-matrix roots violate the residual bound",
            roots=roots.tolist(),
            residuals=list(res),
        )
    return roots.tolist()


def eigenvalues_small(m: np.ndarray) -> np.ndarray:
    """Eigenvalue multisets ``(..., n)`` of a small dense matrix or a stack ``(..., n, n)``.

    From LAPACK.  Within each matrix, eigenvalues closer than
    ``4 sqrt(eps) max|M|`` are chained into clusters and each cluster is
    reported as its mean, repeated: a defective eigenvalue splits by about
    ``sqrt(eps) max|M|`` under LAPACK, and the mean of the split pair is
    accurate to roundoff.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-1] < 2:  # the entry of a 1x1 matrix is its eigenvalue; nothing to cluster
        return m.diagonal(axis1=-2, axis2=-1).copy()
    ev = np.linalg.eigvals(m)
    tol = DEFECTIVE_TOL * np.abs(m).max(axis=(-2, -1), initial=0.0)
    split = _min_gap(ev) <= tol
    if split.any():  # rare, so the common case skips the index search
        for idx in map(tuple, np.argwhere(split)):
            ev[idx] = _cluster(ev[idx], tol[idx])
    return ev
