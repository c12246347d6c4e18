"""Independent ground truth: exact Fock-basis propagation and its zeros.

:func:`evolve_fock` gives any rows of ``exp(-iHt) v`` exactly, from the
recurrences of a Gaussian unitary's matrix elements, with no truncated
operator; ``verify`` propagates a state through its core's r + 1 columns
instead, with ``exp(-iHt)`` composed with the state's own displacement and
squeeze.  :func:`zeros_from_fock` reads the vector's own Gaussian frame off
its amplitudes and takes a rank-r state's zeros from its r + 1 Hermite terms
in that frame, and :func:`hudson_test` counts a state's zeros as the least rank it
certifies.  None of this shares a code path with the closed-form zero
dynamics, which is the point: agreement between the two is the package's
strongest check.  The flow of ``(a, a†, 1)`` is the one physics both start
from; criterion 2's ODE checks it apart.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, InvalidParameter, PrecisionLoss, TruncationLeakage
from .dynamics import QuadraticHamiltonian
from .states import (FockVector, StellarState, _kernel_rows, _log_factorials, _nonnegative_int,
                     _series, _stellar_rows)
from .wavefunction import _hermite_functions, eval_entire

__all__ = ["HudsonResult", "evolve_fock", "hudson_test", "zeros_from_fock"]

# Singular values at most this fraction of the largest span the degree-r null space.
_NULL = 1e-10
# The frame series' degree-r term must exceed this fraction of its largest, and the terms
# past it may hold at most this fraction of the degree-r term, by which the colleague
# matrix divides: a rank one too high meets the first test with noise that fails the second.
_TAIL = 1e-9
# The frame series is sampled at r + _NODES Gauss-Hermite nodes: its coefficients past
# degree r are the certificate.
_NODES = 13
# The propagated rows may lose at most this fraction of the norm.
_LEAK = 1e-8
# Taylor coefficients 1/k! of exp to degree 19, in Paterson-Stockmeyer blocks of four: the
# terms past them sum to below 1/20! * e = 1.1e-18 for an argument of 1-norm under 1.
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(20)]).reshape(5, 4)


def evolve_fock(v: FockVector, H: QuadraticHamiltonian, t):
    """Rows ``0..N`` (the state's cutoff) of ``exp(-itH) v`` for a finite time or 1-d sequence
    of times, up to the global phase that makes ``<0|U|0>`` positive.

    ``U† a U = mu a + nu a† + gamma`` (:func:`_flow`), so a diagonal H gives a diagonal kernel,
    and the Gaussian kernel's recurrences (:func:`~stellar_zeros.states._kernel_rows`) give the
    rows exactly, at O(N) per row and column: a longer result is ``v`` padded with zeros.
    :class:`TruncationLeakage` if the flow overflows or the rows lose more than 1e-8 of
    ``|v|^2``, and :class:`PrecisionLoss` if rounding adds that much.
    """
    times, flow = _flow(H, t)
    out = _kernel_rows(*flow, v.coeffs, v.cutoff)
    return _leak_checked(out, float(np.sum(np.abs(v.coeffs) ** 2)), v.cutoff, times.ndim)


def _evolve_stellar(st: StellarState, H: QuadraticHamiltonian, t, cutoff: int):
    """:func:`evolve_fock` of ``stellar_to_fock(st, cutoff)``, up to a global phase at each
    time, at O(N r) per time instead of O(N^2): ``exp(-itH)`` composed with the state's own
    ``D(alpha) S(chi)`` is one Gaussian unitary on the core's ``r + 1`` columns
    (:func:`~stellar_zeros.states._stellar_rows`).  The rows lose ``v``'s own truncation too,
    below 1e-10, against the same 1e-8 of the norm.
    """
    times, flow = _flow(H, t)
    out = _stellar_rows(st, cutoff, flow)
    return _leak_checked(out, float(np.sum(np.abs(st.core) ** 2)), cutoff, times.ndim)


def _flow(H: QuadraticHamiltonian, t):
    """The times ``t`` as an array and ``(mu, nu, gamma)`` of ``U† a U = mu a + nu a† +
    gamma``, ``U = exp(-itH)``, one entry per time: the first row of :func:`_expm` of the
    generator of ``(a, a†, 1)``.  :class:`TruncationLeakage` naming the first time where they
    overflow: the evolved state leaves every row there.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise InvalidParameter("t must be a finite scalar or 1-d sequence")
    shift = (H.E - 1j * H.D) / math.sqrt(2.0)
    generator = np.array([[-1j * (H.A + H.B), H.C - 1j * (H.A - H.B), shift],
                          [H.C + 1j * (H.A - H.B), 1j * (H.A + H.B), np.conj(shift)],
                          [0.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        flow = _expm(generator, times.reshape(-1))[:, 0, :]
    finite = np.all(np.isfinite(flow), axis=1)
    if not finite.all():
        first = times.reshape(-1)[~finite][0]
        raise TruncationLeakage(f"the flow of H overflows at t = {first:g}; the evolved state "
                                "leaves every row")
    return times, flow.T


def _expm(g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(t g)`` for each finite ``t`` of ``times`` by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): the degree-19 Taylor polynomial of ``t g / 2^s``, 1-norm
    under 1, squared ``s`` times; non-finite past the double range.  Its complex products are
    taken as real ``2n x 2n`` ones, which NumPy multiplies faster.
    """
    k, n = times.size, len(g)
    norm = float(np.abs(g).sum(axis=0).max())
    s = [max(0, math.frexp(abs(t) * norm)[1]) for t in times.tolist()]
    r = np.array([[g.real, -g.imag], [g.imag, g.real]]).swapaxes(1, 2).reshape(2 * n, 2 * n)
    p = np.empty((4, k, 2 * n, 2 * n))  # x^0 .. x^3
    p[0] = np.eye(2 * n)
    np.multiply(np.ldexp(times, -np.array(s, dtype=int))[:, None, None], r, out=p[1])
    np.matmul(p[1], p[1], out=p[2])
    np.matmul(p[2], p[1], out=p[3])
    x4 = p[2] @ p[2]
    blocks = (_TAYLOR @ p.reshape(4, -1)).reshape(5, k, 2 * n, 2 * n)
    e = blocks[4]
    for b in blocks[3::-1]:
        e = x4 @ e
        e += b
    for i, si in enumerate(s):
        for _ in range(si):
            e[i] = e[i] @ e[i]
    return e[:, :n, :n] + 1j * e[:, n:, :n]


def _leak_checked(out: np.ndarray, norm: float, cutoff: int, ndim: int):
    """The evolved rows as Fock vectors (one for a scalar time); :class:`TruncationLeakage` if
    they lose more than ``_LEAK`` of ``norm``."""
    lost = norm - np.sum(np.abs(out) ** 2, axis=1)
    if np.any(lost > _LEAK * norm):
        raise TruncationLeakage(f"evolved state lost {lost.max():.3e} of |v|^2 past row {cutoff}")
    return [FockVector(o) for o in out] if ndim else FockVector(out[0])


@functools.cache
def _frame_projection(m: int):
    """Gauss-Hermite nodes ``w_k`` and the ``(m, m)`` matrix taking the samples at them of
    ``q(w) exp(-w^2/2)`` to its coefficients ``d_0 .. d_{m-1}`` on the normalized Hermite
    functions, exactly for ``deg q <= m``: ``d_n = sum_k W_k exp(w_k^2) phi_n(w_k) q(w_k)
    exp(-w_k^2/2)``, a quadrature of a polynomial of degree below ``2m`` against ``exp(-w^2)``.
    """
    nodes, mass = np.polynomial.hermite.hermgauss(m)
    phi = _hermite_functions(m, nodes).real
    return nodes, (phi * (mass * np.exp(nodes**2))[:, None]).T


def _hermite_roots(d: np.ndarray) -> np.ndarray:
    """Zeros of ``exp(-w^2/2) sum_{n<=r} d_n p_n(w)``, ``d_r != 0``, from one colleague matrix.

    The orthonormal Hermite polynomials ``p_n`` obey ``w p_n = b_{n+1} p_{n+1} + b_n p_{n-1}``
    with ``b_n = sqrt(n/2)``.  Their Jacobi matrix, with the series folded into its last
    column, has the zeros as eigenvalues (Good 1961); working in the orthonormal basis keeps
    the ``2^n n!`` scale out of the matrix.
    """
    r = d.size - 1
    if r == 0:
        return np.empty(0, dtype=complex)
    b = np.sqrt(np.arange(1, r) / 2.0)
    colleague = np.diag(b, 1) + np.diag(b, -1) + 0j
    colleague[:, -1] -= math.sqrt(r / 2.0) * d[:r] / d[r]
    return np.linalg.eigvals(colleague)


def _stellar_exponents(c: np.ndarray, r: int):
    """``(E, F0)`` of the Bargmann function ``F = sum_n c_n b^n / sqrt(n!) = P exp(E b^2/2 +
    F0 b)``, ``deg P = r``, from one SVD; :class:`CountMismatch` if no ``P`` of degree ``r``
    fits.

    ``P F' = R F`` with ``R = P' + (E b + F0) P`` is linear in the ``2r + 3`` coefficients of
    ``P`` and ``R``.  Its order ``m < N`` reads ``sum_j p_j (m-j+1) f_{m-j+1} = sum_j rho_j
    f_{m-j}`` in ``f_k = c_k / sqrt(k!)``; row m times ``sqrt((m+1)!)`` has entries ``c_k
    sqrt((m+1)!/k!)``, which use no amplitude past the cutoff but overflow where the ``c_k``
    decay slower than ``sqrt(k!/(m+1)!)`` grows (number states from rank 150 on):
    :class:`PrecisionLoss` if a column's norm or ``(E, F0)`` is not finite.  The null space is
    spanned by the right singular vectors at most ``_NULL`` of the largest (after unit column
    scaling).  A repeated zero leaves more than one direction, all with the same ``E =
    rho_{r+1} / p_r`` and ``F0 = (rho_r - E p_{r-1}) / p_r``; the one with the largest
    ``|p_r|`` divides best.
    """
    n, cols = c.size - 1, 2 * r + 3
    rows = max(n, cols)  # zero rows past the cutoff keep every right singular vector
    log_fact = _log_factorials(rows + 1)
    m, j = np.arange(rows)[:, None], np.arange(cols)
    k = m + np.where(j <= r, 1 - j, r + 1 - j)
    inside = (k >= 0) & (k <= n) & (m < n)
    k = np.where(inside, k, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        system = np.where(inside, np.where(j <= r, k, -1) * c[k]
                          * np.exp(0.5 * (log_fact[m + 1] - log_fact[k])), 0.0)
        scale = np.linalg.norm(system, axis=0)
    if not np.isfinite(scale).all():  # an entry, or a column's norm, overflows
        raise PrecisionLoss(f"the degree-{r} rank system overflows a double")
    scale[scale == 0.0] = 1.0
    _, sigma, vh = np.linalg.svd(system / scale, full_matrices=False)
    null = vh[sigma <= _NULL * sigma[0]].conj()
    if null.shape[0] == 0:
        raise CountMismatch(f"no polynomial of degree {r} fits: the smallest singular value is "
                            f"{sigma[-1] / sigma[0]:.1e} of the largest; the rank is higher")
    x = (null.T @ null[:, r].conj()) / scale
    p, rho = x[: r + 1], x[r + 1 :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = rho[r + 1] / p[r]
        f0 = (rho[r] - e * (p[r - 1] if r else 0.0)) / p[r]
    if not (np.isfinite(e) and np.isfinite(f0)):
        raise PrecisionLoss(f"Bargmann exponents E = {e:.3g}, F0 = {f0:.3g} are not finite")
    return e, f0


def zeros_from_fock(v: FockVector, expected_rank: int) -> list:
    """Zeros of the entire extension of a Fock vector of stellar rank ``expected_rank``.

    A finite-rank state has ``psi(x) = Q(x) exp(-A x^2/2 + g1 x + g0)`` with ``deg Q = r``,
    ``A = (1 - E)/(1 + E)`` and ``g1 = sqrt(2) F0 / (1 + E)`` from the Bargmann exponents
    (:func:`_stellar_exponents`).  In the frame ``x = xbar + s w`` with ``s = 1/sqrt(Re A)``
    and ``xbar = Re g1 / Re A``, ``psi`` times the unimodular ``exp(i Im A x^2/2 - i Im g1 x)``
    is ``Q(xbar + s w) exp(-w^2/2)`` up to a constant: exactly the Hermite terms ``d_0 ..
    d_r``.  The ``r + 13`` coefficients ``d_n`` come from the series of ``v`` at as many
    Gauss-Hermite nodes on the real line (:func:`_frame_projection`), where it is well
    conditioned, and the zeros from one degree-r colleague solve, mapped back.  The rank gap
    and the w-tail are the certificate: :class:`CountMismatch` if no degree-r null vector
    exists or ``|d_r|`` is at most ``_TAIL`` of ``max|d|``, :class:`PrecisionLoss` if the
    frame is not normalizable or ``d_{r+1..}`` exceeds ``_TAIL`` of ``|d_r|``.
    """
    r = _nonnegative_int(expected_rank, "expected_rank")
    if not np.any(v.coeffs):
        raise InvalidParameter("the zero vector has no isolated zeros")
    e, f0 = _stellar_exponents(v.coeffs, r)
    a, g1 = (1.0 - e) / (1.0 + e), math.sqrt(2.0) * f0 / (1.0 + e)
    if not (cmath.isfinite(a) and cmath.isfinite(g1) and a.real > 0.0):
        raise PrecisionLoss(f"Gaussian frame A = {a:.3g} is not normalizable (E = {e:.3g})")
    s, xbar = 1.0 / math.sqrt(a.real), g1.real / a.real
    nodes, projection = _frame_projection(r + _NODES)
    x = xbar + s * nodes
    samples = eval_entire(v, x, check=False)  # finite: |phi_n| <= pi^(-1/4) on the real line
    d = projection @ (samples * np.exp(1j * (0.5 * a.imag * x * x - g1.imag * x)))
    peak, lead, tail = np.max(np.abs(d)), abs(d[r]), np.max(np.abs(d[r + 1 :]))
    if not lead > _TAIL * peak:
        raise CountMismatch(f"frame series has no degree-{r} term (|d_{r}| = {lead:.1e}, "
                            f"max |d| = {peak:.1e}); the rank is lower or a zero is repeated")
    if not tail <= _TAIL * lead:
        raise PrecisionLoss(f"frame series past degree {r} reaches {tail / lead:.1e} of its "
                            f"degree-{r} term; the frame is not resolved")
    return [complex(z) for z in xbar + s * _hermite_roots(d[: r + 1])]


@dataclass(frozen=True)
class HudsonResult:
    gaussian: bool
    zero_count: int


def hudson_test(st: StellarState) -> HudsonResult:
    """Zero-existence non-Gaussianity test: the number of zeros of the state's entire
    extension, and whether it is zero (the state is then Gaussian).

    A finite-rank state has as many zeros as its stellar rank: the least ``r`` at which
    :func:`zeros_from_fock` certifies the real-line series of ``st``.  From ``r = 0`` up, a
    :class:`CountMismatch` moves on to the next ``r``, and is raised at ``r = st.rank``; a
    :class:`PrecisionLoss` propagates.  Zero counting certifies non-Gaussianity only under
    an ``<s^n>`` energy bound for some ``s > 1``, which every finite-rank state meets.
    """
    v = _series(st, 0.0)
    for r in range(st.rank + 1):
        try:
            zeros_from_fock(v, r)
            return HudsonResult(gaussian=(r == 0), zero_count=r)
        except CountMismatch:
            if r == st.rank:
                raise
