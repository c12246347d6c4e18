"""Independent ground truth: truncated Fock-basis propagation.

The quadratic Hamiltonian is assembled from products of the truncated
Hermitian quadrature matrices, so it is exactly Hermitian, and is
exponentiated by eigendecomposition; evolved vectors are monitored for
leakage into the top quarter of the basis.  A cutoff-N vector is a degree-N
Hermite series, so one colleague-matrix eigen-solve gives all N zeros of
its entire extension.  The true zeros are those that agree across two
cutoffs (the truncation ring moves with the cutoff), and one
argument-principle contour certifies their count.  None of this shares
a code path with the closed-form zero dynamics, which is the point:
agreement between the two is the package's strongest check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountMismatch, InvalidParameter, TruncationLeakage
from .dynamics import QuadraticHamiltonian
from .states import FockVector, annihilation_matrix
from .wavefunction import count_zeros_box, eval_entire

__all__ = [
    "hamiltonian_matrix",
    "evolve_fock",
    "zeros_from_fock",
]

# Roots of two cutoffs closer than this (relative above |z| = 1) are one zero.
_AGREE = 1e-6
# Margin of the certificate contour around the kept zeros.
_PAD = 0.5
# Trailing coefficients below this fraction of the largest are dropped
# before dividing by the last one, which could otherwise overflow.
_NEGLIGIBLE = np.finfo(float).tiny / np.finfo(float).eps


def hamiltonian_matrix(H: QuadraticHamiltonian, cutoff: int) -> np.ndarray:
    """Truncated matrix of the quadratic Hamiltonian.

    Built from products of the truncated quadrature matrices
    ``x = (a + a†)/sqrt(2)``, ``p = i(a† - a)/sqrt(2)``, which are
    Hermitian, so ``x x``, ``p p`` and ``x p + p x`` are too; entries within
    two rows/columns of the truncation edge deviate from their infinite-
    dimensional values, which is why evolved states must stay away from the
    top of the basis.
    """
    if cutoff < 4:
        raise InvalidParameter("Hamiltonian matrix needs cutoff >= 4")
    dim = cutoff + 1
    a = annihilation_matrix(dim)
    ad = a.conj().T
    x = (a + ad) / math.sqrt(2.0)
    p = 1j * (ad - a) / math.sqrt(2.0)
    return (
        H.A * (x @ x)
        + H.B * (p @ p)
        + H.C * 0.5 * (x @ p + p @ x)
        + H.D * x
        + H.E * p
        + H.F * np.eye(dim)
    )


def _top_quarter_norm(coeffs: np.ndarray) -> float:
    start = (3 * coeffs.size) // 4
    return float(np.sum(np.abs(coeffs[start:]) ** 2))


def evolve_fock(
    v: FockVector, H: QuadraticHamiltonian, t: float, cutoff: int | None = None
) -> FockVector:
    """Apply ``exp(-i t H)`` in the truncated basis.

    The truncated matrix is Hermitian, so its eigendecomposition makes the
    propagation exactly unitary; correctness is guarded by requiring
    the input to carry less than 1e-10 of its norm in the top quarter of
    the basis and the output less than 1e-8.
    """
    if cutoff is None:
        cutoff = v.cutoff
    if cutoff < max(4, v.cutoff):
        raise InvalidParameter("evolution cutoff below the state cutoff")
    vec = v.padded(cutoff).coeffs
    if _top_quarter_norm(vec) >= 1e-10:
        raise InvalidParameter(
            "state support reaches the top quarter of the basis; raise the cutoff"
        )
    evals, evecs = np.linalg.eigh(hamiltonian_matrix(H, cutoff))
    out = evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ vec))
    leak = _top_quarter_norm(out)
    if leak > 1e-8:
        raise TruncationLeakage(
            f"evolved state leaked {leak:.3e} into the top quarter of the basis"
        )
    return FockVector(out)


def _hermite_roots(v: FockVector) -> np.ndarray:
    """All zeros of the Hermite series of ``v``, from one colleague matrix.

    ``psi(z) = exp(-z^2/2) sum_n c_n p_n(z)`` with the orthonormal Hermite
    polynomials ``p_n``, which obey ``z p_n = b_{n+1} p_{n+1} + b_n p_{n-1}``
    with ``b_n = sqrt(n/2)``.  Their Jacobi matrix, with the series folded
    into its last column, has the zeros as eigenvalues (Good 1961); working
    in the orthonormal basis keeps the ``2^n n!`` scale out of the matrix.
    Trailing coefficients too small to divide by are dropped: they only
    push spurious roots further out.
    """
    c = v.coeffs
    kept = np.flatnonzero(np.abs(c) > np.max(np.abs(c)) * _NEGLIGIBLE)
    if kept.size == 0:
        raise InvalidParameter("the zero vector has no isolated zeros")
    n = int(kept[-1])
    if n == 0:
        return np.empty(0, dtype=complex)
    b = np.sqrt(np.arange(1, n) / 2.0)
    colleague = np.diag(b, 1) + np.diag(b, -1) + 0j
    colleague[:, -1] -= math.sqrt(n / 2.0) * c[:n] / c[n]
    return np.linalg.eigvals(colleague)


def zeros_from_fock(
    v: FockVector, expected_rank: int, box_halfwidth: float, partner: FockVector | None = None
) -> list:
    """Zeros of the entire extension inside a centered square box.

    Every zero of the truncated series comes from one eigen-solve
    (:func:`_hermite_roots`).  Truncation adds a ring of spurious zeros
    that moves with the cutoff, while the true zeros do not: only roots
    of ``v`` with a root of ``partner`` (the same state at another
    cutoff) within ``1e-6 max(1, |z|)`` are kept.  Without a partner
    ``v`` is its own and every root is kept.  The kept roots inside the
    box must number ``expected_rank``, and the argument principle on the
    series, around their bounding rectangle padded by 0.5 (the box
    itself when there are none), must count exactly them; otherwise
    :class:`CountMismatch` is raised.
    """
    if expected_rank < 0:
        raise InvalidParameter("expected_rank must be nonnegative")
    if box_halfwidth <= 0:
        raise InvalidParameter("box_halfwidth must be positive")
    roots = _hermite_roots(v)
    others = roots if partner is None else _hermite_roots(partner)
    gap = np.min(np.abs(roots[:, None] - others[None, :]), axis=1, initial=np.inf)
    roots = roots[gap <= _AGREE * np.maximum(1.0, np.abs(roots))]
    hw = float(box_halfwidth)
    roots = roots[(np.abs(roots.real) <= hw) & (np.abs(roots.imag) <= hw)]
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
