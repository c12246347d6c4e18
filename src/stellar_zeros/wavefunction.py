"""Entire wavefunctions of finite-rank states: closed form and Hermite series.

A finite-rank state has the position wavefunction

    ``psi(z) = prod_k (z - lambda_k) * exp(g2 z^2 + g1 z + g0)``,

square-integrable on the real line (``Re g2 < 0``), whose one constant is ``exp(g0)``.
This module builds that closed form from the displaced-squeezed parametrization,
evaluates the same function through the truncated Hermite series of an arbitrary Fock
vector (one banded triangular solve for all points; the two paths share no code and
are compared in tests).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite_e import herme2poly
from scipy.linalg.blas import ztbsv

from .errors import InvalidParameter, PrecisionLoss
from .rootfind import roots_hermite
from .states import (
    _PI_M14,
    _SQRT2,
    FockVector,
    StellarState,
    Verdict,
    _packet_exponents,
    _squeeze_frame,
    _squeeze_gap,
    energy_moment,
)

__all__ = [
    "WavefunctionForm",
    "GrowthBound",
    "build_wavefunction",
    "apply_creation_polynomial",
    "stellar_state_from_zeros",
    "eval_form",
    "eval_entire",
    "growth_bound",
    "growth_bound_holds",
    "form_norm_squared",
    "form_to_json",
    "form_from_json",
]

# Point-terms per banded Hermite solve: about 260 KB of work arrays, which malloc
# reuses (from 2**13 on they are mapped afresh and page-fault on every call).
_CHUNK = 2**12


@dataclass(frozen=True)
class WavefunctionForm:
    """Exponent coefficients and zero multiset; ``exp(g0)`` is the whole constant."""

    g2: complex
    g1: complex
    g0: complex
    zeros: tuple

    def __post_init__(self):
        object.__setattr__(self, "g2", complex(self.g2))
        object.__setattr__(self, "g1", complex(self.g1))
        object.__setattr__(self, "g0", complex(self.g0))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        if not self.g2.real < 0:
            raise InvalidParameter("Re(g2) must be negative for square integrability")
        for z in (self.g2, self.g1, self.g0, *self.zeros):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidParameter("wavefunction parameters must be finite")

    @property
    def rank(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class GrowthBound:
    """Constants of the quadratic-exponential envelope ``K exp(L |z|^2)``."""

    K_bound: float
    L_bound: float
    s_used: float
    alpha_used: float


def form_norm_squared(wf: WavefunctionForm) -> float:
    """L2 norm squared on the real line, by ``(rank + 1)``-node Gauss-Hermite quadrature.

    After the standardizing substitution the integrand is a polynomial of
    degree ``2 * rank`` times the Gauss-Hermite weight, so the quadrature is
    exact up to roundoff.  The zero factors are summed in log space; where the norm
    overflows a double, or the rule does (from 370 zeros on), :class:`PrecisionLoss`.
    """
    beta = -2.0 * wf.g2.real
    mu = wf.g1.real / beta
    with np.errstate(all="ignore"):  # NumPy's weights overflow from 371 nodes on
        nodes, weights = np.polynomial.hermite.hermgauss(wf.rank + 1)
    if not (weights.sum() > 0 and np.isfinite(nodes).all()):  # NaN or zero weights
        raise PrecisionLoss(f"the {wf.rank + 1}-node Gauss-Hermite rule is not finite")
    xs = mu + nodes / math.sqrt(beta)
    with np.errstate(divide="ignore"):  # a real zero on a node zeroes that term
        logs = np.log(weights) + 2.0 * np.log(np.abs(xs[:, None] - np.array(wf.zeros))).sum(axis=1)
    top = logs.max()
    log_sum = top + math.log(np.exp(logs - top).sum())
    log_nsq = 2.0 * wf.g0.real + beta * mu * mu - 0.5 * math.log(beta) + log_sum
    if not log_nsq < math.log(np.finfo(float).max):
        raise PrecisionLoss(f"norm squared exp({log_nsq:.6g}) overflows a double")
    return math.exp(log_nsq)


def _hermite_frame(alpha: complex, chi: complex, g2: complex, g1: complex):
    """``(a1, a0, s)`` such that ``(D S a† S† D†)^n`` makes ``s^n He_n((a1 x + a0) / s)``.

    ``D S a† S† D† = u x - v d/dx - mu`` takes ``q`` times the packet
    ``exp(g2 x^2 + g1 x + g0)`` to ``(a1 x + a0) q - v q'`` times it, with
    ``a1 = u - 2 v g2 != 0`` and ``a0 = -(v g1 + mu)``.  Its powers have
    ``q_n' = n a1 q_{n-1}``, so ``q_{n+1} = (a1 x + a0) q_n - n v a1 q_{n-1}``,
    the recurrence of ``s^n He_n`` with ``s^2 = v a1``.
    """
    ch, sh, w = _squeeze_frame(chi)
    wbar = w.conjugate()
    u = (ch + sh * wbar) / _SQRT2
    v = _squeeze_gap(chi.conjugate()) / _SQRT2
    mu = ch * np.conj(alpha) + wbar * sh * alpha
    a1 = u - 2.0 * v * g2
    return a1, complex(-(v * g1 + mu)), cmath.sqrt(v * a1)


def build_wavefunction(st: StellarState) -> WavefunctionForm:
    """Closed polynomial-times-Gaussian form of a finite-rank state.

    The polynomial is ``sum_n c_n s^n h_n(w)`` in the frame of :func:`_hermite_frame`,
    so its zeros are ``x = (s w - a0) / a1`` at the roots of :func:`roots_hermite`.
    Its leading coefficient ``c_r a1^r / sqrt(r!)`` enters ``g0`` as a logarithm, so it
    cannot underflow, and the form is normalized as the state is.
    """
    g2, g1, g0 = _packet_exponents(st.alpha, st.chi)
    a1, a0, s = _hermite_frame(st.alpha, st.chi, g2, g1)
    zeros = (s * np.array(roots_hermite(st.core * s ** np.arange(st.rank + 1))) - a0) / a1
    log_leading = cmath.log(st.core[-1]) + st.rank * cmath.log(a1) - 0.5 * math.lgamma(st.rank + 1)
    return WavefunctionForm(g2, g1, g0 + log_leading, zeros)


def apply_creation_polynomial(packet: WavefunctionForm, coeffs) -> np.ndarray:
    """Polynomial part of ``sum_k coeffs[k] (a†)^k`` applied to a rank-0 packet.

    Returns the raw ascending coefficients (no normalization), which makes
    exact statements about leading coefficients directly checkable: for a
    degree-1 polynomial the leading coefficient is
    ``coeffs[1] * (1 + 2a) / sqrt(2)`` with ``a = -g2``.
    """
    if packet.rank != 0:
        raise InvalidParameter("packet must be a rank-0 form")
    coeffs = np.asarray(coeffs, dtype=complex)
    a1, a0, s = _hermite_frame(0.0, 0.0, packet.g2, packet.g1)  # a† itself
    in_w = Polynomial(herme2poly(coeffs * s ** np.arange(coeffs.size)))
    return in_w(Polynomial([a0 / s, a1 / s])).coef


def _leja_order(w: np.ndarray) -> np.ndarray:
    """``w`` in Leja order: each point has the largest product of distances to those before it."""
    order = [int(np.argmax(np.abs(w)))] if w.size else []
    logdist = np.zeros(w.size)
    for _ in range(w.size - 1):
        logdist += np.log(np.maximum(np.abs(w - w[order[-1]]), np.finfo(float).tiny))
        logdist[order] = -np.inf
        order.append(int(np.argmax(logdist)))
    return w[order]


def stellar_state_from_zeros(zeros, alpha: complex = 0.0, chi: complex = 0.0) -> StellarState:
    """Core coefficients of the state whose wavefunction zeros are prescribed.

    :func:`build_wavefunction` backwards: ``prod_k (w - w_k)`` is multiplied
    out in the ``h_n`` to ``e_n``, and ``c_n = e_n / s^n``.  The factors enter
    in reversed Leja order, rescaled after each: random cores of ranks 1-200
    come back from their zeros within 1.5e-13, where Leja order loses 4e-6 at
    rank 80 and a sorted order 2e-2 at rank 50.
    """
    zeros = np.array(zeros, dtype=complex).reshape(-1)
    if not (np.isfinite(zeros).all() and all(map(cmath.isfinite, (alpha, chi)))):
        raise InvalidParameter("zeros, alpha and chi must be finite")
    g2, g1, _ = _packet_exponents(alpha, chi)
    a1, a0, s = _hermite_frame(alpha, chi, g2, g1)
    w = (a1 * zeros + a0) / s
    r = w.size
    e = np.zeros(r + 1, dtype=complex)
    e[0] = 1.0
    up = np.sqrt(np.arange(1.0, r + 1))
    for n, wk in enumerate(_leja_order(w)[::-1]):  # e: prod of n factors
        we = -wk * e
        we[1 : n + 2] += up[: n + 1] * e[: n + 1]
        we[:n] += up[:n] * e[1 : n + 1]
        e = we / np.linalg.norm(we)
    return StellarState(rank=r, core=e / s ** np.arange(r + 1), alpha=alpha, chi=chi)


def _hermite_functions(n: int, z) -> np.ndarray:
    """``(z.size, n)`` matrix of the normalized Hermite functions ``phi_0 .. phi_{n-1}``.

    Each point's recurrence is a unit lower-triangular band of width 2, packed
    block-diagonally with the others into one BLAS ``ztbsv`` per ``_CHUNK``
    point-terms.  A chunk holding a non-finite value, which would leak into the
    next point as ``inf * 0``, is solved again point by point.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    k = np.arange(1.0, n)
    phi = np.zeros((z.size, n), dtype=complex)
    phi[:, 0] = _PI_M14 * np.exp(-0.5 * z * z)
    step = max(1, _CHUNK // n)
    todo = [slice(lo, min(lo + step, z.size)) for lo in range(0, z.size, step)]
    while todo:
        rows = todo.pop()
        bands = np.zeros(phi[rows].shape + (3,), dtype=complex)  # the column-major band, transposed
        bands[:, :-1, 1] = -z[rows, None] * np.sqrt(2.0 / k)
        bands[:, :-2, 2] = np.sqrt(k[:-1] / k[1:])
        part = ztbsv(2, bands.reshape(-1, 3).T, phi[rows].reshape(-1), lower=1, diag=1)
        if len(bands) > 1 and not np.isfinite(part.view(float)).all():
            todo += [slice(j, j + 1) for j in range(rows.start, rows.stop)]
        else:
            phi[rows] = part.reshape(-1, n)
    return phi


# The series evaluators run under this: a value that overflows or turns NaN is a
# typed error where it is checked, and is returned raw, unwarned, where it is not.
_unwarned = np.errstate(over="ignore", invalid="ignore")


def _points(z) -> np.ndarray:
    """``z`` as a complex array; :class:`InvalidParameter` if a point is not finite."""
    zz = np.asarray(z, dtype=complex)
    if not np.isfinite(zz).all():
        raise InvalidParameter("evaluation points must be finite")
    return zz


def _finite(vals, zz):
    """``vals``, or :class:`PrecisionLoss` naming the first point of ``zz`` whose value is
    not finite."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise PrecisionLoss(f"value at z={zz.reshape(-1)[np.argmax(bad)]:.4g} "
                            "is not finite (overflow or NaN)")
    return vals


@_unwarned
def eval_form(wf: WavefunctionForm, z):
    """The closed form, exactly: its zero factors as logarithms inside one ``exp``, which
    overflows only with the value.  Points and values are typed as in :func:`eval_entire`."""
    zz = _points(z)
    logs = wf.g2 * zz * zz + wf.g1 * zz + wf.g0
    with np.errstate(divide="ignore"):  # log 0 = -inf at a zero: the value is 0
        for lam in wf.zeros:
            logs = logs + np.log(zz - lam)
    vals = _finite(np.exp(logs), zz)
    return vals if vals.shape else complex(vals)


@_unwarned
def eval_entire(v: FockVector, z, check: bool = True):
    """Hermite-series value of the entire extension at complex argument.

    Uses the normalized three-term recurrence of the Hermite functions (the
    numerically stable equivalent of the power-series extension, with which
    it agrees because both are entire and coincide on the real line), one
    banded solve for all points; values take the shape of ``z``, whose points
    must be finite (:class:`InvalidParameter`).  With ``check=True`` a
    :class:`PrecisionLoss` is raised at the first value that is not finite,
    and where the truncation tail, estimated from the last eight terms, exceeds
    ``1e-8`` of the result and ``64 eps`` of the termwise envelope ``sum_n |psi_n|
    |phi_n(z)|``; cancellation at genuine zeros of the function does not trigger it.
    With ``check=False`` the values are returned as they come, inf and NaN included.
    """
    zz = _points(z)
    coeffs, n = v.coeffs, v.coeffs.size
    phi = _hermite_functions(n, zz)
    vals = phi @ coeffs
    if check:
        _finite(vals, zz)
        ring = np.zeros((phi.shape[0], 8))  # the last eight terms past phi_0, oldest first
        ring[:, 8 - min(8, n - 1) :] = np.abs(phi[:, max(1, n - 8) :] * coeffs[max(1, n - 8) :])
        recent, older = ring[:, 4:].max(axis=1), ring[:, :4].max(axis=1)
        tail = recent * np.where(recent > older, 50.0, 2.0)
        envelope = np.abs(phi) @ np.abs(coeffs)
        bad = tail > np.maximum(1e-8 * np.abs(vals), 64.0 * np.finfo(float).eps * envelope)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise PrecisionLoss(
                f"Hermite series truncation unreliable at z={zz.reshape(-1)[j]:.4g} "
                f"(cutoff {v.cutoff}); increase the cutoff"
            )
    return vals.reshape(zz.shape) if zz.ndim else complex(vals[0])


def growth_bound(v: FockVector, s: float, alpha: float) -> GrowthBound:
    """Computable envelope constants for ``|psi(z)|^2 <= K exp(L |z|^2)``.

    ``L = 1 + 2/e + 8/(s^alpha - 1)`` and ``K`` is proportional to the
    truncated ``<s^n>`` partial sum.  The constant ``C`` (clamped below by
    one) is the maximum of ``t^p sqrt(2p+1) / s^{(2p+1)/4}`` over the
    truncated range with ``t = s^alpha``; it stands in for the existential
    constant of the underlying bound, which is only defined up to finite-p
    behavior.
    """
    if not s > 1.0:
        raise InvalidParameter("growth bound needs s > 1")
    if not 0.0 <= alpha < 0.5:
        raise InvalidParameter("growth bound needs 0 <= alpha < 1/2")
    rep = energy_moment(v, s)
    if rep.verdict is not Verdict.CONVERGED:
        raise InvalidParameter("energy moment did not converge at this s")
    t = s**alpha
    ps = np.arange(v.cutoff + 1, dtype=float)
    with np.errstate(over="ignore"):
        candidates = t**ps * np.sqrt(2.0 * ps + 1.0) / s ** ((2.0 * ps + 1.0) / 4.0)
    c_const = max(1.0, float(np.max(candidates)))
    sq = math.sqrt(s)
    k_bound = c_const**2 * sq / ((sq - 1.0) * math.sqrt(math.pi)) * rep.partial_sum
    l_bound = 1.0 + 2.0 / math.e + (8.0 / (t - 1.0) if alpha > 0 else math.inf)
    return GrowthBound(k_bound, l_bound, s, alpha)


def growth_bound_holds(gb: GrowthBound, v: FockVector, zs) -> bool:
    """Check ``|psi(z)|^2 <= K exp(L |z|^2)`` in log space (K e^{L|z|^2} overflows).

    A value that is not finite is no evidence either way: :class:`PrecisionLoss`.
    """
    zs = np.asarray(zs, dtype=complex)
    mags = np.abs(_finite(eval_entire(v, zs, check=False), zs))
    lhs = 2.0 * np.log(np.where(mags > 0, mags, 1e-300))
    rhs = math.log(gb.K_bound) + gb.L_bound * np.abs(zs) ** 2
    return bool(np.all(lhs <= rhs))


def _sorted_zeros(zeros):
    return sorted(zeros, key=lambda z: (round(z.real, 13), round(z.imag, 13)))


def form_to_json(wf: WavefunctionForm) -> dict:
    """The form as JSON; ``leading`` is 1, since ``g0`` carries the whole constant."""
    return {
        "g2": [wf.g2.real, wf.g2.imag],
        "g1": [wf.g1.real, wf.g1.imag],
        "g0": [wf.g0.real, wf.g0.imag],
        "zeros": [[z.real, z.imag] for z in _sorted_zeros(wf.zeros)],
        "leading": [1.0, 0.0],
    }


def form_from_json(data: dict) -> WavefunctionForm:
    """The form of :func:`form_to_json`; a ``leading`` other than 1 is folded into ``g0``."""
    try:
        return WavefunctionForm(
            g2=complex(*data["g2"]),
            g1=complex(*data["g1"]),
            g0=complex(*data["g0"]) + cmath.log(complex(*data["leading"])),  # ValueError at 0
            zeros=[complex(re, im) for re, im in data["zeros"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed wavefunction descriptor: {exc}") from exc
