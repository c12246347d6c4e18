"""Entire wavefunctions of finite-rank states: closed form and Hermite series.

A finite-rank state has the position wavefunction

    ``psi(z) = leading * prod_k (z - lambda_k) * exp(g2 z^2 + g1 z + g0)``,

square-integrable on the real line (``Re g2 < 0``).  This module builds that
closed form from the displaced-squeezed parametrization, evaluates the same
function through the truncated Hermite series of an arbitrary Fock vector
(the two paths share no code and are compared in tests), counts zeros by the
argument principle, and runs the non-Gaussianity test based on zero
existence.

A caveat inherited from the theory: zero-based non-Gaussianity certification
requires the ``<s^n>`` energy bound for some ``s > 1``.  States violating it
for every ``s`` (the classic example is the non-vanishing, non-Gaussian
profile ``x -> exp(-x^4)``) are outside the contract of
:func:`hudson_test`, which only accepts finite-rank states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidParameter,
    PrecisionLoss,
    ZeroOnContour,
)
from .rootfind import roots_polynomial
from .states import (
    FockVector,
    StellarState,
    default_cutoff,
    packet_exponents,
    stellar_to_fock,
)

__all__ = [
    "WavefunctionForm",
    "GrowthBound",
    "HudsonResult",
    "gaussian_packet_params",
    "build_wavefunction",
    "apply_creation_polynomial",
    "stellar_state_from_zeros",
    "eval_form",
    "eval_entire",
    "eval_entire_envelope",
    "hermite_eval_cutoff",
    "stellar_eval",
    "growth_bound",
    "growth_bound_holds",
    "count_zeros_box",
    "hudson_test",
    "form_norm_squared",
    "form_to_json",
    "form_from_json",
]

_PI_M14 = math.pi ** -0.25
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class WavefunctionForm:
    """Exponent coefficients, zero multiset and leading coefficient."""

    g2: complex
    g1: complex
    g0: complex
    zeros: tuple
    leading: complex

    def __post_init__(self):
        object.__setattr__(self, "g2", complex(self.g2))
        object.__setattr__(self, "g1", complex(self.g1))
        object.__setattr__(self, "g0", complex(self.g0))
        object.__setattr__(self, "leading", complex(self.leading))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        if not self.g2.real < 0:
            raise InvalidParameter("Re(g2) must be negative for square integrability")
        if self.leading == 0:
            raise InvalidParameter("leading coefficient must be nonzero")
        for z in (self.g2, self.g1, self.g0, self.leading, *self.zeros):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidParameter("wavefunction parameters must be finite")

    @property
    def rank(self) -> int:
        return len(self.zeros)

    def normalized(self) -> "WavefunctionForm":
        """Rescale by a positive real so that the L2 norm on R is one."""
        nsq = form_norm_squared(self)
        if not (nsq > 0 and math.isfinite(nsq)):
            raise InvalidParameter("cannot normalize: norm is zero or non-finite")
        return WavefunctionForm(
            self.g2, self.g1, self.g0 - 0.5 * math.log(nsq), self.zeros, self.leading
        )


@dataclass(frozen=True)
class GrowthBound:
    """Constants of the quadratic-exponential envelope ``K exp(L |z|^2)``."""

    K_bound: float
    L_bound: float
    s_used: float
    alpha_used: float


@dataclass(frozen=True)
class HudsonResult:
    gaussian: bool
    zero_count: int


@lru_cache(maxsize=1)
def _gauss_hermite_257():
    nodes, weights = np.polynomial.hermite.hermgauss(257)
    return nodes, weights


def form_norm_squared(wf: WavefunctionForm) -> float:
    """L2 norm squared on the real line, by 257-node Gauss-Hermite quadrature.

    After the standardizing substitution the integrand is a polynomial of
    degree ``2 * rank`` times the Gauss-Hermite weight, so the quadrature is
    exact up to roundoff.
    """
    beta = -2.0 * wf.g2.real
    mu = wf.g1.real / beta
    lead = math.log(abs(wf.leading)) if wf.leading != 0 else -math.inf
    logfactor = 2.0 * wf.g0.real + beta * mu * mu + 2.0 * lead - 0.5 * math.log(beta)
    nodes, weights = _gauss_hermite_257()
    xs = mu + nodes / math.sqrt(beta)
    poly = np.ones_like(xs)
    for lam in wf.zeros:
        poly *= (xs - lam.real) ** 2 + lam.imag**2
    total = float(np.dot(weights, poly))
    if total <= 0:
        return 0.0
    return math.exp(logfactor + math.log(total))


def eval_form(wf: WavefunctionForm, z):
    """Evaluate the closed form; exact formula, no truncation."""
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, wf.leading, dtype=complex)
    for lam in wf.zeros:
        acc = acc * (z - lam)
    acc = acc * np.exp(wf.g2 * z * z + wf.g1 * z + wf.g0)
    return acc if acc.shape else complex(acc)


def gaussian_packet_params(alpha: complex, chi: complex) -> WavefunctionForm:
    """Normalized wavefunction of the rank-0 state ``D(alpha) S(chi) |0>``.

    Closed form including the global phase of the operator convention:
    squeezing fixes ``g2 = -(cosh r + e^{i phi} sinh r) / (2 (cosh r -
    e^{i phi} sinh r))`` and the prefactor ``pi^{-1/4} (cosh r - e^{i phi}
    sinh r)^{-1/2}``; displacing by ``alpha`` shifts the packet to
    ``x0 = sqrt(2) Re alpha`` with momentum ``p0 = sqrt(2) Im alpha`` and
    phase ``exp(-i Re(alpha) Im(alpha))``.
    """
    g2, g1, g0 = packet_exponents(alpha, chi)
    return WavefunctionForm(g2, g1, g0, (), 1.0).normalized()


def _conjugated_creation(alpha: complex, chi: complex):
    """Coefficients of ``D S a† S† D† = u x - v d/dx - mu`` in position space."""
    r = abs(chi)
    wbar = cmath.exp(-1j * cmath.phase(chi)) if chi != 0 else 1.0
    ch, sh = math.cosh(r), math.sinh(r)
    u = (ch + sh * wbar) / _SQRT2
    v = (ch - sh * wbar) / _SQRT2
    mu = ch * np.conj(alpha) + wbar * sh * alpha
    return u, v, complex(mu)


def _raising_matrix(packet: WavefunctionForm, u, v, mu, r: int) -> np.ndarray:
    """Triangular ``(r+1, r+1)`` matrix; column n holds ``(u x - v d/dx - mu)^n 1``.

    The operator acts on polynomial times ``packet``: it multiplies the
    polynomial ``p`` by ``(u - 2 v g2) x - (v g1 + mu)`` and subtracts
    ``v p'``, so column n has degree exactly n (``u - 2 v g2`` never
    vanishes for ``Re g2 < 0``).  Coefficients are ascending.
    """
    a1 = u - 2.0 * v * packet.g2
    a0 = -(v * packet.g1 + mu)
    m = np.zeros((r + 1, r + 1), dtype=complex)
    m[0, 0] = 1.0
    for n in range(1, r + 1):
        prev = m[:n, n - 1]
        m[1 : n + 1, n] += a1 * prev
        m[:n, n] += a0 * prev
        m[: n - 1, n] -= v * np.arange(1, n) * prev[1:]
    return m


def _sqrt_factorials(r: int) -> np.ndarray:
    return np.sqrt([float(math.factorial(n)) for n in range(r + 1)])


def build_wavefunction(st: StellarState) -> WavefunctionForm:
    """Closed polynomial-times-Gaussian form of a finite-rank state.

    The core polynomial in creation operators is conjugated through the
    displacement and squeezing unitaries, which turns each creation operator
    into a first-order differential operator acting on the rank-0 packet.
    Every application raises the polynomial degree by exactly one (the
    leading multiplier never vanishes for ``Re g2 < 0``), so the zero
    multiset always has exactly ``rank`` elements.  The leading coefficient
    is ``c_r a1^r / sqrt(r!)``, nonzero since ``|c_r| > 1e-12``.  At high
    rank it can be tiny next to the other coefficients while the roots stay
    well determined, so the roots are judged by ``roots_polynomial``'s
    residual check, not by that ratio.
    """
    packet = gaussian_packet_params(st.alpha, st.chi)
    m = _raising_matrix(packet, *_conjugated_creation(st.alpha, st.chi), st.rank)
    acc = m @ (st.core / _sqrt_factorials(st.rank))
    leading = complex(acc[-1])
    zeros = roots_polynomial(acc) if st.rank > 0 else []
    form = WavefunctionForm(packet.g2, packet.g1, packet.g0, zeros, leading)
    return form.normalized()


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
    return _raising_matrix(packet, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0, coeffs.size - 1) @ coeffs


def stellar_state_from_zeros(zeros, alpha: complex = 0.0, chi: complex = 0.0) -> StellarState:
    """Core coefficients of the state whose wavefunction zeros are prescribed.

    Inverts the triangular map from core coefficients to polynomial
    coefficients used by :func:`build_wavefunction`; the resulting state is
    exact up to the core normalization (which rescales the polynomial
    without moving its roots).
    """
    zeros = [complex(z) for z in zeros]
    r = len(zeros)
    packet = gaussian_packet_params(alpha, chi)
    m = _raising_matrix(packet, *_conjugated_creation(alpha, chi), r)
    target = np.polynomial.polynomial.polyfromroots(zeros) if r > 0 else np.array([1.0 + 0j])
    core = np.linalg.solve(m / _sqrt_factorials(r), target.astype(complex))
    return StellarState(rank=r, core=core, alpha=alpha, chi=chi)


def hermite_eval_cutoff(
    chi_mag: float,
    max_abs_im: float,
    rel_tol: float = 1e-9,
    rank: int = 0,
    alpha_mag: float = 0.0,
) -> int:
    """Cutoff needed to evaluate the Hermite series at ``|Im z| <= max_abs_im``.

    Hermite functions grow like ``exp(|Im z| sqrt(2n))`` while squeezed-core
    amplitudes only decay geometrically like ``tanh(|chi|)^{n/2}``, so the
    series terms peak near ``n* = 2 (Im z)^2 / ln^2 tanh|chi|`` and the
    cutoff must clear that peak with room for the requested relative tail.
    """
    base = 60 + 4 * rank + math.ceil(8.0 * alpha_mag**2 + 2.0 * max_abs_im**2)
    q = math.tanh(abs(chi_mag))
    if q < 0.05:
        return min(base + 16, 6000)
    lq = -math.log(q)
    sigma_star = 2.0 * max_abs_im / lq
    sigma_n = sigma_star + math.sqrt(4.0 * (math.log(1.0 / rel_tol) + 6.0) / lq)
    needed = math.ceil(0.5 * sigma_n * sigma_n) + 8
    return min(max(base, needed), 6000)


def _hermite_series(coeffs: np.ndarray, z: np.ndarray):
    """Values, roundoff floor, and truncation-tail estimate of the series."""
    n = coeffs.size
    acc = coeffs[0] * (_PI_M14 * np.exp(-0.5 * z * z))
    phi_prev = _PI_M14 * np.exp(-0.5 * z * z)
    magsum = np.abs(acc)
    ring = np.zeros((8, z.size))
    if n > 1:
        phi = _SQRT2 * z * phi_prev
        for k in range(1, n):
            term = coeffs[k] * phi
            acc = acc + term
            tm = np.abs(term)
            magsum = magsum + tm
            ring[k % 8] = tm
            if k + 1 < n:
                phi_next = math.sqrt(2.0 / (k + 1)) * z * phi - math.sqrt(k / (k + 1.0)) * phi_prev
                phi_prev, phi = phi, phi_next
    order = [(n - 1 - j) % 8 for j in range(8)]
    recent = np.max(ring[order[:4]], axis=0)
    older = np.max(ring[order[4:]], axis=0)
    growing = recent > older
    tail = recent * np.where(growing, 50.0, 2.0)
    roundoff = 32.0 * np.finfo(float).eps * magsum
    return acc, roundoff, tail


def eval_entire(v: FockVector, z, check: bool = True):
    """Hermite-series value of the entire extension at complex argument.

    Uses the normalized three-term recurrence of the Hermite functions (the
    numerically stable equivalent of the power-series extension, with which
    it agrees because both are entire and coincide on the real line).  With
    ``check=True`` a :class:`PrecisionLoss` is raised when the estimated
    truncation tail exceeds ``1e-8`` of the result; cancellation at genuine
    zeros of the function does not trigger it.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    vals, roundoff, tail = _hermite_series(v.coeffs, zz)
    if check:
        bad = tail > np.maximum(1e-8 * np.abs(vals), 2.0 * roundoff)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise PrecisionLoss(
                f"Hermite series truncation unreliable at z={zz[j]:.4g} "
                f"(cutoff {v.cutoff}); increase the cutoff"
            )
    return vals if np.asarray(z).shape else complex(vals[0])


def eval_entire_envelope(v: FockVector, z):
    """Series value together with its termwise magnitude envelope.

    The envelope ``sum_n |psi_n| |phi_n(z)|`` is the conditioning scale of
    the evaluation: no double-precision summation can resolve the value
    below roughly ``eps`` times it.  Comparisons against the closed form
    use it as the honest accuracy floor at points where the two exponent
    scales cancel deeply.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    vals, roundoff, _ = _hermite_series(v.coeffs, zz)
    envelope = roundoff / (32.0 * np.finfo(float).eps)
    if np.asarray(z).shape:
        return vals, envelope
    return complex(vals[0]), float(envelope[0])


def stellar_eval(v: FockVector, z):
    """Truncated stellar series ``sum_n psi_n z^n / sqrt(n!)``."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    term = np.ones_like(zz)
    acc = v.coeffs[0] * term
    for n in range(1, v.coeffs.size):
        term = term * zz / math.sqrt(n)
        acc = acc + v.coeffs[n] * term
    return acc if np.asarray(z).shape else complex(acc[0])


def growth_bound(v: FockVector, s: float, alpha: float) -> GrowthBound:
    """Computable envelope constants for ``|psi(z)|^2 <= K exp(L |z|^2)``.

    ``L = 1 + 2/e + 8/(s^alpha - 1)`` and ``K`` is proportional to the
    truncated ``<s^n>`` partial sum.  The constant ``C`` (clamped below by
    one) is the maximum of ``t^p sqrt(2p+1) / s^{(2p+1)/4}`` over the
    truncated range with ``t = s^alpha``; it stands in for the existential
    constant of the underlying bound, which is only defined up to finite-p
    behavior.
    """
    from .states import Verdict, energy_moment  # local import avoids cycle noise

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
    """Check ``|psi(z)|^2 <= K exp(L |z|^2)`` in log space (K e^{L|z|^2} overflows)."""
    zs = np.asarray(zs, dtype=complex)
    vals = eval_entire(v, zs, check=False)
    mags = np.abs(vals)
    lhs = 2.0 * np.log(np.where(mags > 0, mags, 1e-300))
    rhs = math.log(gb.K_bound) + gb.L_bound * np.abs(zs) ** 2
    return bool(np.all(lhs <= rhs))


def _box_boundary(box, ts):
    """Map parameters in [0,4) to boundary points, counterclockwise."""
    x0, x1, y0, y1 = box
    ts = np.asarray(ts, dtype=float) % 4.0
    side = np.floor(ts).astype(int)
    frac = ts - side
    pts = np.empty(ts.shape, dtype=complex)
    m = side == 0
    pts[m] = (x0 + (x1 - x0) * frac[m]) + 1j * y0
    m = side == 1
    pts[m] = x1 + 1j * (y0 + (y1 - y0) * frac[m])
    m = side == 2
    pts[m] = (x1 - (x1 - x0) * frac[m]) + 1j * y1
    m = side == 3
    pts[m] = x0 + 1j * (y1 - (y1 - y0) * frac[m])
    return pts


def count_zeros_box(f, box, samples_per_edge: int = 64) -> int:
    """Number of zeros of an entire function inside a rectangle.

    Sums phase increments of ``f`` around the boundary, subdividing each
    segment until adjacent samples differ by less than pi/2 (winding-number
    correctness needs increments below pi; the extra margin is cheap).  The
    result is an exact integer.  Raises :class:`ZeroOnContour` when ``f``
    nearly vanishes on the contour or a phase jump cannot be resolved.

    ``box`` is ``(re_min, re_max, im_min, im_max)``; ``f`` must accept a
    complex ndarray.
    """
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise InvalidParameter("box must have positive width and height")
    if samples_per_edge < 4:
        raise InvalidParameter("need at least 4 samples per edge")
    ts = np.concatenate([k + np.arange(samples_per_edge) / samples_per_edge for k in range(4)])
    fs = np.asarray(f(_box_boundary(box, ts)), dtype=complex)

    def contour_guard(values):
        # The Gaussian factor makes |f| vary by many orders along a large
        # contour, so zero proximity is judged against the local median:
        # a genuine near-zero dips sharply below its own neighborhood.
        mags = np.abs(values)
        if np.any(mags == 0.0):
            raise ZeroOnContour("contour value vanished (zero or underflow); perturb the box")
        i = int(np.argmin(mags))
        idx = (i + np.arange(-16, 17)) % mags.size
        med = float(np.median(mags[idx]))
        if med == 0.0 or mags[i] < 1e-9 * med:
            raise ZeroOnContour("function nearly vanishes on the contour; perturb the box")

    contour_guard(fs)
    for _ in range(64):
        args = np.angle(fs)
        dphi = np.diff(args, append=args[0])
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.abs(dphi) >= math.pi / 2.0
        if not np.any(bad):
            break
        gaps = np.diff(ts, append=ts[0] + 4.0)
        if np.any(gaps[bad] < 1e-9):
            raise ZeroOnContour("unresolvable phase jump on the contour")
        mid_ts = ts[bad] + 0.5 * gaps[bad]
        mid_fs = np.asarray(f(_box_boundary(box, mid_ts)), dtype=complex)
        ts = np.concatenate([ts, mid_ts % 4.0])
        fs = np.concatenate([fs, mid_fs])
        order = np.argsort(ts, kind="stable")
        ts, fs = ts[order], fs[order]
        if ts.size > 200_000:
            raise ZeroOnContour("contour refinement budget exhausted")
        contour_guard(fs)
    else:
        raise ZeroOnContour("contour refinement did not settle")
    args = np.angle(fs)
    dphi = np.diff(args, append=args[0])
    dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
    winding = float(np.sum(dphi)) / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.25:
        raise ZeroOnContour(f"non-integer winding {winding:.3f}")
    return int(nearest)


def hudson_test(
    st: StellarState, box_halfwidth: float | None = None, cutoff: int | None = None
) -> HudsonResult:
    """Zero-existence non-Gaussianity test on the Hermite-series extension.

    Counts zeros of the independently evaluated entire extension inside a
    centered square box by the argument principle; ``gaussian`` is true iff
    the count is zero.  The box must strictly contain all zeros of the
    closed form (checked against the explicit list); when omitted it is
    grown from that list with unit margin.
    """
    wf = build_wavefunction(st)
    extent = max((max(abs(z.real), abs(z.imag)) for z in wf.zeros), default=0.0)
    if box_halfwidth is None:
        # Tight rectangle around the zero set with unit margin: contour
        # points far from every zero only degrade the evaluation
        # conditioning without adding information.
        res = [z.real for z in wf.zeros] or [0.0]
        ims = [z.imag for z in wf.zeros] or [0.0]
        box = (min(res) - 1.0, max(res) + 1.0, min(ims) - 1.0, max(ims) + 1.0)
    else:
        if box_halfwidth <= extent:
            raise InvalidParameter("box does not strictly contain all zeros")
        hw = float(box_halfwidth)
        box = (-hw, hw, -hw, hw)
    max_im = max(abs(box[2]), abs(box[3]))
    if cutoff is None:
        cutoff = max(
            default_cutoff(st.rank, st.alpha, st.chi),
            hermite_eval_cutoff(abs(st.chi), max_im, 1e-8, st.rank, abs(st.alpha)),
        )
    v = stellar_to_fock(st, cutoff)
    count = count_zeros_box(lambda zz: eval_entire(v, zz, check=False), box, 96)
    return HudsonResult(gaussian=(count == 0), zero_count=count)


def _sorted_zeros(zeros):
    return sorted(zeros, key=lambda z: (round(z.real, 13), round(z.imag, 13)))


def form_to_json(wf: WavefunctionForm) -> dict:
    return {
        "g2": [wf.g2.real, wf.g2.imag],
        "g1": [wf.g1.real, wf.g1.imag],
        "g0": [wf.g0.real, wf.g0.imag],
        "zeros": [[z.real, z.imag] for z in _sorted_zeros(wf.zeros)],
        "leading": [wf.leading.real, wf.leading.imag],
    }


def form_from_json(data: dict) -> WavefunctionForm:
    try:
        return WavefunctionForm(
            g2=complex(*data["g2"]),
            g1=complex(*data["g1"]),
            g0=complex(*data["g0"]),
            zeros=[complex(re, im) for re, im in data["zeros"]],
            leading=complex(*data["leading"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed wavefunction descriptor: {exc}") from exc
