"""Independent ground truth: truncated Fock-basis propagation.

The quadratic Hamiltonian is the truncated pentadiagonal band of ``x^2``,
``p^2``, ``xp + px``, ``x`` and ``p``, exactly Hermitian, and is
exponentiated by one eigendecomposition for any number of times; evolved
vectors are monitored for leakage into the top quarter of the basis.  A
cutoff-N vector is a degree-N Hermite series, so a colleague-matrix
eigen-solve gives its zeros.  The solve is first made on the degree the
coefficients resolve (the series cut after its last coefficient above
``eps`` of the largest), usually well below N.  The true zeros are those
on which two Newton steps on the series of the same state at another
cutoff agree (the truncation ring moves with the cutoff); they are
reported as the twice-stepped roots, and one argument-principle contour
on the full series certifies their count.  Only when that certificate
fails is the solve repeated on the full degree.  None of this shares a
code path with the closed-form zero dynamics, which is the point:
agreement between the two is the package's strongest check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountMismatch, InvalidParameter, TruncationLeakage, ZeroOnContour
from .dynamics import QuadraticHamiltonian
from .states import FockVector
from .wavefunction import _hermite_functions, count_zeros_box, eval_entire

__all__ = [
    "hamiltonian_matrix",
    "evolve_fock",
    "zeros_from_fock",
]

# A root whose Newton step on the partner series is below this (relative
# above |z| = 1) is a zero of both cutoffs.
_AGREE = 1e-6
# Margin of the certificate contour around the kept zeros.
_PAD = 0.5
# The short solve cuts the series after its last coefficient above this
# fraction of the largest.
_RESOLVED = np.finfo(float).eps
# The full solve drops only trailing coefficients below this fraction of
# the largest, since dividing by the last one could otherwise overflow.
_NEGLIGIBLE = np.finfo(float).tiny / np.finfo(float).eps


def hamiltonian_matrix(H: QuadraticHamiltonian, cutoff: int) -> np.ndarray:
    """Truncated matrix of the quadratic Hamiltonian, as a closed-form band.

    For the truncated ``x = (a + a†)/sqrt(2)`` and ``p = i(a† - a)/sqrt(2)``:
    diagonal ``(A + B)(n + 1/2) + F``, and in column n ``(D - iE) sqrt(n/2)``
    and ``(A - B - iC) sqrt(n(n-1))/2`` above it, conjugated below, so it is
    exactly Hermitian.  Truncation leaves the last diagonal entry at
    ``(A + B) cutoff/2 + F``, which is why evolved states must stay away
    from the top of the basis.
    """
    if cutoff < 4:
        raise InvalidParameter("Hamiltonian matrix needs cutoff >= 4")
    n = np.arange(cutoff + 1)
    diag = (H.A + H.B) * (n + 0.5) + H.F
    diag[-1] = (H.A + H.B) * cutoff / 2.0 + H.F
    up1 = (H.D - 1j * H.E) * np.sqrt(n[1:] / 2.0)
    up2 = (H.A - H.B - 1j * H.C) * 0.5 * np.sqrt(n[2:] * (n[2:] - 1.0))
    m = np.diag(diag + 0j) + np.diag(up1, 1) + np.diag(up2, 2)
    return m + np.triu(m, 1).conj().T


def _top_quarter_norm(coeffs: np.ndarray) -> float:
    start = (3 * coeffs.size) // 4
    return float(np.sum(np.abs(coeffs[start:]) ** 2))


def evolve_fock(v: FockVector, H: QuadraticHamiltonian, t, cutoff: int | None = None):
    """Apply ``exp(-i t H)`` in the truncated basis.

    The truncated matrix is Hermitian, so its eigendecomposition makes the
    propagation exactly unitary; correctness is guarded by requiring
    the input to carry less than 1e-10 of its norm in the top quarter of
    the basis and the output less than 1e-8.  A 1-d sequence of times gives
    one vector per time from the one decomposition, each checked.  The
    times must be finite.
    """
    if cutoff is None:
        cutoff = v.cutoff
    if cutoff < max(4, v.cutoff):
        raise InvalidParameter("evolution cutoff below the state cutoff")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise InvalidParameter("t must be a finite scalar or 1-d sequence")
    vec = v.padded(cutoff).coeffs
    if _top_quarter_norm(vec) >= 1e-10:
        raise InvalidParameter(
            "state support reaches the top quarter of the basis; raise the cutoff"
        )
    evals, evecs = np.linalg.eigh(hamiltonian_matrix(H, cutoff))
    amps = evecs.conj().T @ vec
    out = [evecs @ (np.exp(-1j * tk * evals) * amps) for tk in times.reshape(-1)]
    leak = max(map(_top_quarter_norm, out), default=0.0)
    if leak > 1e-8:
        raise TruncationLeakage(
            f"evolved state leaked {leak:.3e} into the top quarter of the basis"
        )
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
    on the degree the coefficients resolve: the series cut after its last
    coefficient above ``eps`` of the largest.  Truncation adds a ring of
    spurious zeros that moves with the cutoff, while the true zeros do
    not: of the roots in the box, only those on which two Newton steps on
    the series of ``partner`` (the same state at another cutoff) agree are
    kept, and they are returned after those two steps.  Without a partner
    every root in the box is kept as it is.  The kept roots must number
    ``expected_rank``, and the argument principle on the full series of
    ``v``, around their bounding rectangle padded by 0.5 (the box itself
    when there are none), must count exactly them.  If either check fails
    (the short series can miss a zero that only its tail resolves), the
    same steps are run once on the full degree, and its
    :class:`CountMismatch` or :class:`ZeroOnContour` is the one raised.
    """
    if expected_rank < 0:
        raise InvalidParameter("expected_rank must be nonnegative")
    if not 0 < box_halfwidth < math.inf:
        raise InvalidParameter("box_halfwidth must be positive and finite")
    hw = float(box_halfwidth)
    try:
        return _certified_zeros(v, expected_rank, hw, partner, _RESOLVED)
    except (CountMismatch, ZeroOnContour):
        return _certified_zeros(v, expected_rank, hw, partner, _NEGLIGIBLE)


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
