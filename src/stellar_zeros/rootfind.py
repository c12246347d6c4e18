"""Hermite-series roots and small-matrix eigenvalues, both from LAPACK.

Roots of a series in the orthonormal Hermite polynomials ``h_n`` are the
eigenvalues of its colleague matrix (Good, 1961), the Jacobi matrix of
``w h_n = sqrt(n+1) h_{n+1} + sqrt(n) h_{n-1}`` with the series folded into
its last column, each followed by one bounded Newton step; ``coeffs[n]``
multiplies ``h_n``.  Eigenvalues of small dense matrices, one or a stack of
them, come from one ``np.linalg.eigvals`` call; within each matrix,
eigenvalues closer than ``4 sqrt(eps) max|M|`` are reported as their mean,
because LAPACK splits a defective eigenvalue (an exact zero collision) by
about ``sqrt(eps)`` while the cluster mean stays accurate.  The rest of the
package takes SciPy's compiled BLAS and LAPACK wrappers and its DOP853 tableau from
:func:`_scipy_module`, which loads them by path: importing ``scipy.linalg`` would cost
about 0.18 s.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from importlib.machinery import PathFinder

import numpy as np

from .errors import InvalidParameter, NoConvergence

__all__ = [
    "roots_hermite",
    "eigenvalues_small",
]

RESIDUAL_TOL = 1e-10
DEFECTIVE_TOL = 4.0 * math.sqrt(np.finfo(float).eps)
_POLISH_ULPS = 8.0 * np.finfo(float).eps


def _scipy_module(name: str):
    """``scipy.<name>``, loaded from its file without its parent packages and registered
    under its name, so a later ``import scipy.linalg`` finds the same wrappers.
    :class:`ImportError` naming the directory if the file is not there."""
    full = f"scipy.{name}"
    if full not in sys.modules:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        where = os.path.join(root, *name.split(".")[:-1])
        spec = PathFinder.find_spec(full, [where])
        if spec is None:
            raise ImportError(f"no module {full} in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


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


def _series_at(d, w):
    """``sum_n d_n h_n(w)``, its derivative (``h_n' = sqrt(n) h_{n-1}``), and ``||h(w)||``."""
    h = np.ones((w.size, d.size), dtype=complex)
    for n in range(d.size - 1):  # at n = 0 the sqrt(n) term drops
        h[:, n + 1] = (w * h[:, n] - math.sqrt(n) * h[:, n - 1]) / math.sqrt(n + 1)
    return h @ d, h[:, :-1] @ (d[1:] * np.sqrt(np.arange(1.0, d.size))), np.linalg.norm(h, axis=1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def roots_hermite(coeffs):
    """All roots (with multiplicity) of ``sum_n coeffs[n] h_n(w)``, ``h_n = He_n / sqrt(n!)``.

    Colleague-matrix eigenvalues, each given one bounded Newton step; all
    satisfy ``|p(w)| <= 1e-10 ||coeffs|| ||h(w)||`` (the Cauchy-Schwarz scale),
    or :class:`NoConvergence` carries them with their residuals.  Roots closer
    than ``4 sqrt(eps) max(1, max|w|)`` (a split multiple root) are reported
    as one repeated (mean) root.
    """
    d = np.asarray(coeffs, dtype=complex)
    if d.ndim != 1 or not d.any():
        raise InvalidParameter("coefficients must be a 1-d list, not all zero")
    d = np.trim_zeros(d, "b")  # exact zeros only: a tiny top coefficient is the caller's problem
    r = d.size - 1
    if r == 0:
        return []
    fold = math.sqrt(r) * d[:r] / d[r]
    if not np.all(np.isfinite(fold)):
        raise NoConvergence("normalized coefficients are not finite", roots=[], residuals=[])
    b = np.sqrt(np.arange(1.0, r))
    colleague = np.diag(b, 1) + np.diag(b, -1) + 0j
    colleague[:, -1] -= fold
    w = np.linalg.eigvals(colleague)
    # One Newton step, kept where it lowers |p| by a move of a few ulps: it restores
    # symmetries that roundoff breaks (h_2's roots come back as exactly +-1)
    # without letting evaluation noise pull the two roots of a close pair together.
    p, dp, _ = _series_at(d, w)
    step = p / dp
    keep = (np.abs(step) <= _POLISH_ULPS * (1.0 + np.abs(w))) & (
        np.abs(_series_at(d, w - step)[0]) < np.abs(p)
    )
    roots = np.where(keep, w - step, w)
    tol = DEFECTIVE_TOL * max(1.0, float(np.max(np.abs(roots))))
    if _min_gap(roots) <= tol:  # rare, as in eigenvalues_small
        roots = _cluster(roots, tol)
    p, _, hnorm = _series_at(d, roots)
    res = np.abs(p) / (np.linalg.norm(d) * hnorm)
    if not np.all(res <= RESIDUAL_TOL):
        raise NoConvergence(
            "colleague-matrix roots violate the residual bound",
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
    accurate to roundoff.  :class:`InvalidParameter` if an entry is not finite.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise InvalidParameter("matrix entries must be finite")
    if m.shape[-1] < 2:  # the entry of a 1x1 matrix is its eigenvalue; nothing to cluster
        return m.diagonal(axis1=-2, axis2=-1).copy()
    ev = np.linalg.eigvals(m)
    tol = DEFECTIVE_TOL * np.abs(m).max(axis=(-2, -1), initial=0.0)
    split = _min_gap(ev) <= tol
    if split.any():  # rare, so the common case skips the index search
        for idx in map(tuple, np.argwhere(split)):
            ev[idx] = _cluster(ev[idx], tol[idx])
    return ev
