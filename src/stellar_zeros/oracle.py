"""Independent ground truth: exact Fock-basis propagation and its zeros.

:func:`evolve_fock` gives any rows of ``exp(-iHt) v`` exactly, from the
recurrences of a Gaussian unitary's matrix elements, with no truncated
operator.  :func:`zeros_from_fock` takes a cutoff-N vector's zeros from its
degree-N Hermite series, keeps those that a partner series confirms and
certifies their count.  None of this shares a code path with the
closed-form zero dynamics, which is the point: agreement between the two
is the package's strongest check.  The flow of ``(a, a†, 1)`` is the one
physics both start from; criterion 2's ODE checks it apart.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.linalg import expm

from .errors import CountMismatch, InvalidParameter, TruncationLeakage, ZeroOnContour
from .dynamics import QuadraticHamiltonian
from .states import FockVector, _kernel_rows
from .wavefunction import _hermite_functions, count_zeros_box, eval_entire

__all__ = ["evolve_fock", "zeros_from_fock"]

# A root whose Newton step on the partner series is below this (relative
# above |z| = 1) is a zero of both cutoffs.  Coefficients below _AGREE**2 of
# the largest move a root of condition <= 1/_AGREE by less than that.
_AGREE = 1e-6
# Margin of the certificate contour around the kept zeros.
_PAD = 0.5
# The next solve (the first without a partner) cuts the series after its
# last coefficient above this fraction of the largest.
_RESOLVED = np.finfo(float).eps
# The last solve, at the full degree, drops only trailing coefficients below
# this fraction of the largest, since dividing by the last one could overflow.
_NEGLIGIBLE = np.finfo(float).tiny / np.finfo(float).eps
# The propagated rows may lose at most this fraction of the norm.
_LEAK = 1e-8


def evolve_fock(v: FockVector, H: QuadraticHamiltonian, t):
    """Rows ``0..N`` (the state's cutoff) of ``exp(-itH) v`` for a finite time or 1-d sequence
    of times, up to the global phase that makes ``<0|U|0>`` positive.

    ``U† a U = mu a + nu a† + gamma`` is the first row of ``expm`` of the generator of
    ``(a, a†, 1)``, so a diagonal H gives a diagonal kernel, and the Gaussian kernel's
    recurrences (:func:`~stellar_zeros.states._kernel_rows`) give the rows exactly: a longer
    result is ``v`` padded with zeros.  :class:`TruncationLeakage` if the rows lose more than
    1e-8 of ``|v|^2``, and :class:`PrecisionLoss` if rounding adds that much.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise InvalidParameter("t must be a finite scalar or 1-d sequence")
    shift = (H.E - 1j * H.D) / math.sqrt(2.0)
    generator = np.array([[-1j * (H.A + H.B), H.C - 1j * (H.A - H.B), shift],
                          [H.C + 1j * (H.A - H.B), 1j * (H.A + H.B), np.conj(shift)],
                          [0.0, 0.0, 0.0]])
    mu, nu, gamma = expm(times.reshape(-1, 1, 1) * generator)[:, 0, :].T
    out = _kernel_rows(mu, nu, gamma, v.coeffs, v.cutoff)
    norm = float(np.sum(np.abs(v.coeffs) ** 2))
    lost = norm - np.sum(np.abs(out) ** 2, axis=1)
    if np.any(lost > _LEAK * norm):
        raise TruncationLeakage(f"evolved state lost {lost.max():.3e} of |v|^2 past row {v.cutoff}")
    return [FockVector(o) for o in out] if times.ndim else FockVector(out[0])


def _hermite_roots(v: FockVector, floor: float = _NEGLIGIBLE) -> np.ndarray:
    """Zeros of the Hermite series of ``v`` cut after its last coefficient
    above ``floor`` times the largest, from one colleague matrix.

    ``psi(z) = exp(-z^2/2) sum_n c_n p_n(z)`` with the orthonormal Hermite
    polynomials ``p_n``, which obey ``z p_n = b_{n+1} p_{n+1} + b_n p_{n-1}``
    with ``b_n = sqrt(n/2)``.  Their Jacobi matrix, with the series folded
    into its last column, has the zeros as eigenvalues (Good 1961); working
    in the orthonormal basis keeps the ``2^n n!`` scale out of the matrix.
    The default floor drops only coefficients too small to divide by: they
    only push spurious roots further out.
    """
    c = v.coeffs
    kept = np.flatnonzero(np.abs(c) > np.max(np.abs(c)) * floor)
    if kept.size == 0:
        raise InvalidParameter("the zero vector has no isolated zeros")
    n = int(kept[-1])
    if n == 0:
        return np.empty(0, dtype=complex)
    b = np.sqrt(np.arange(1, n) / 2.0)
    colleague = np.diag(b, 1) + np.diag(b, -1) + 0j
    colleague[:, -1] -= math.sqrt(n / 2.0) * c[:n] / c[n]
    return np.linalg.eigvals(colleague)


def _partner_agrees(w: FockVector, z: np.ndarray):
    """Whether two Newton steps on ``w``'s Hermite series confirm each ``z``,
    and the twice-stepped roots ``z - s1 - s2``.

    The first step must be within ``_AGREE max(1, |z|)``, the second at most
    half the first above a roundoff floor; a zero derivative rejects.  As
    ``p_n' = sqrt(2n) p_{n-1}``, the derivative series is ``sqrt(2(m+1)) c_{m+1}``,
    and each step takes both series from one set of Hermite functions.
    """
    c = w.coeffs
    series = np.stack([c, np.append(np.sqrt(2.0 * np.arange(1, c.size)) * c[1:], 0.0)], axis=1)
    scale = np.maximum(1.0, np.abs(z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s1 = np.divide(*(_hermite_functions(c.size, z) @ series).T)
        s2 = np.divide(*(_hermite_functions(c.size, z - s1) @ series).T)
        polished = z - s1 - s2
    floor = 16.0 * np.finfo(float).eps * scale
    return (np.abs(s1) <= _AGREE * scale) & (np.abs(s2) <= 0.5 * np.abs(s1) + floor), polished


def zeros_from_fock(
    v: FockVector, expected_rank: int, box_halfwidth: float, partner: FockVector | None = None
) -> list:
    """Zeros of the entire extension inside a centered square box.

    The candidate zeros come from one eigen-solve (:func:`_hermite_roots`)
    of the series cut after its last coefficient above ``_AGREE**2`` of the
    largest when a partner polishes them, else above ``eps``.  Truncation
    adds a ring of spurious zeros that moves with the cutoff, while the
    true zeros do not: of the roots in the box, only those on which two
    Newton steps on the series of ``partner`` (the same state at another
    cutoff) agree are kept, and they are returned after those two steps.
    Without a partner every root in the box is kept as it is.  The kept
    roots must number ``expected_rank``, and the argument principle on the
    full series of ``v``, around their bounding rectangle padded by 0.5
    (the box itself when there are none), must count exactly them.  If
    either check fails (a short series can miss a zero that only its tail
    resolves), the same steps run at the next floor, ``eps`` and then the
    full degree, whose :class:`CountMismatch` or :class:`ZeroOnContour` is raised.
    """
    if expected_rank < 0:
        raise InvalidParameter("expected_rank must be nonnegative")
    if not 0 < box_halfwidth < math.inf:
        raise InvalidParameter("box_halfwidth must be positive and finite")
    hw = float(box_halfwidth)
    floors = (_RESOLVED, _NEGLIGIBLE) if partner is None else (_AGREE**2, _RESOLVED, _NEGLIGIBLE)
    for floor in floors[:-1]:
        with contextlib.suppress(CountMismatch, ZeroOnContour):
            return _certified_zeros(v, expected_rank, hw, partner, floor)
    return _certified_zeros(v, expected_rank, hw, partner, floors[-1])


def _certified_zeros(v, expected_rank, hw, partner, floor) -> list:
    """:func:`zeros_from_fock`'s steps on the series of ``v`` cut at ``floor``."""
    roots = _hermite_roots(v, floor)
    roots = roots[(np.abs(roots.real) <= hw) & (np.abs(roots.imag) <= hw)]
    if partner is not None:
        keep, polished = _partner_agrees(partner, roots)
        roots = polished[keep]
    if roots.size != expected_rank:
        raise CountMismatch(
            f"box holds {roots.size} stable zeros, expected {expected_rank}; "
            "wrong box or truncation artifacts"
        )
    box = (-hw, hw, -hw, hw)
    if roots.size:
        x, y = roots.real, roots.imag
        box = (x.min() - _PAD, x.max() + _PAD, y.min() - _PAD, y.max() + _PAD)
    count = count_zeros_box(lambda zz: eval_entire(v, zz, check=False), box)
    if count != roots.size:
        raise CountMismatch(
            f"contour around {roots.size} stable zeros counts {count}; "
            "truncation artifacts near the zeros"
        )
    return [complex(z) for z in roots]
