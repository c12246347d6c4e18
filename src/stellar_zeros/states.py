"""Canonical state representations and basis operations.

Two equivalent descriptions of a single-mode bosonic state are used
throughout the package:

* a truncated number-basis amplitude vector (:class:`FockVector`), and
* the displaced-squeezed core parametrization (:class:`StellarState`),
  ``D(alpha) S(chi) sum_n c_n |n>`` with ``S(chi) = exp((chi* a^2 - chi a†^2)/2)``
  and ``D(alpha) = exp(alpha a† - alpha* a)``.

The conversion from the second to the first applies the Gaussian unitary
``D(alpha) S(chi)`` to the core through the recurrences of its number-basis
kernel, the one recurrence the Fock oracle also propagates with.  The test
suite checks it against displacement matrix elements, the matrix-exponential
route and the closed-form wavefunction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CutoffTooSmall, InvalidParameter, PrecisionLoss, ZeroVector

__all__ = [
    "FockVector",
    "StellarState",
    "EnergyMomentReport",
    "Verdict",
    "normalize",
    "energy_moment",
    "stellar_to_fock",
    "default_cutoff",
    "random_stellar_state",
    "state_to_json",
    "state_from_json",
]

# energy_moment's Converged verdict needs an extrapolated tail below this.
TAIL_TOL = 1e-6
_PI_M14 = math.pi ** -0.25
_SQRT2 = math.sqrt(2.0)
# The working vector that sizes a series holds at most this many rows.
_MAX_ROWS = 2**18


def _nonnegative_int(value, name: str) -> int:
    """``value`` as an ``int``; :class:`InvalidParameter` unless it is a nonnegative Python or
    NumPy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidParameter(f"{name} must be a nonnegative integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class FockVector:
    """Truncated number-basis amplitudes ``psi_0 .. psi_N``.

    Amplitudes must be finite; any normalizing constructor leaves the
    squared norm in ``(0, 1 + 1e-9]``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameter("FockVector needs a nonempty 1-d amplitude list")
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidParameter("FockVector amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def cutoff(self) -> int:
        return self.coeffs.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class StellarState:
    """Finite-rank core parameters ``(r, c_0..c_r, alpha, chi)``.

    The rank is a nonnegative Python or NumPy integer (not a bool), stored as
    an ``int``.  The core is stored normalized (``sum |c_n|^2 = 1`` within
    1e-12) and the declared rank is exact: ``|c_r| > 1e-12``.  Global phase
    is not fixed by this parametrization; all conversions in this package
    nevertheless use a single consistent operator convention, so
    cross-representation comparisons are phase-exact.
    """

    rank: int
    core: np.ndarray
    alpha: complex
    chi: complex

    def __post_init__(self):
        object.__setattr__(self, "rank", _nonnegative_int(self.rank, "rank"))
        core = np.asarray(self.core, dtype=complex)
        if core.ndim != 1 or core.size != self.rank + 1:
            raise InvalidParameter("core must have length rank + 1")
        if not (np.isfinite(core).all() and all(map(cmath.isfinite, (self.alpha, self.chi)))):
            raise InvalidParameter("core, alpha and chi must be finite")
        nrm = np.linalg.norm(core)
        if not nrm > 1e-300:
            raise ZeroVector("core vector has zero norm")
        core = core / nrm
        if abs(core[-1]) <= 1e-12:
            raise InvalidParameter("top core coefficient vanishes; declared rank is not exact")
        core = core.copy()
        core.setflags(write=False)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "chi", complex(self.chi))


class Verdict(Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class EnergyMomentReport:
    """Partial sum and tail diagnosis of ``<s^n>`` for a truncated vector."""

    s: float
    partial_sum: float
    tail_estimate: float
    verdict: Verdict
    ratio: float


def normalize(v: FockVector) -> FockVector:
    """Rescale to unit norm.  Raises :class:`ZeroVector` below 1e-300."""
    nrm = v.norm()
    if not nrm > 1e-300:
        raise ZeroVector("cannot normalize a zero vector")
    return FockVector(v.coeffs / nrm)


def _log_terms(v: FockVector, s: float):
    """Indices and log of the nonzero terms ``s^n |psi_n|^2``."""
    mags = np.abs(v.coeffs)
    idx = np.nonzero(mags > 0)[0]
    logs = idx * math.log(s) + 2.0 * np.log(mags[idx])
    return idx, logs


def energy_moment(v: FockVector, s: float) -> EnergyMomentReport:
    """Partial sum of ``<s^n>`` with a geometric-ratio tail diagnosis.

    The verdict fits the log of the last (up to) ten nonzero terms: a
    geometric ratio below ``1 - 1e-3`` gives ``Converged`` (provided the
    extrapolated tail is below ``TAIL_TOL``), above ``1 + 1e-3`` gives
    ``Diverged``, anything else is ``Inconclusive``.  A vector whose support
    ends well before the cutoff is a polynomial state and converges exactly.
    """
    if not 1.0 < s < math.inf:
        raise InvalidParameter("energy moment needs a finite s > 1")
    idx, logs = _log_terms(v, s)
    if idx.size == 0:
        raise ZeroVector("energy moment of the zero vector")

    # Sum in log space; the series can dwarf the float range when it diverges.
    lmax = float(np.max(logs))
    partial = math.exp(lmax) * float(np.sum(np.exp(logs - lmax))) if lmax < 700 else math.inf

    n_last = int(idx[-1])
    if v.cutoff - n_last >= 2 and abs(v.coeffs[n_last]) > 1e-150:
        # Structural trailing-zero run (not an underflowed tail, whose last
        # survivors sit at the bottom of the double range): finite support.
        return EnergyMomentReport(s, partial, 0.0, Verdict.CONVERGED, 0.0)

    k = min(10, idx.size)
    if k < 3:
        return EnergyMomentReport(s, partial, math.inf, Verdict.INCONCLUSIVE, math.nan)
    ns = idx[-k:].astype(float)
    slope = np.polyfit(ns, logs[-k:], 1)[0]
    ratio = math.exp(slope)
    last = math.exp(min(float(logs[-1]), 700.0))
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    if ratio < 1.0 - 1e-3 and tail < TAIL_TOL:
        verdict = Verdict.CONVERGED
    elif ratio > 1.0 + 1e-3:
        verdict = Verdict.DIVERGED
    else:
        verdict = Verdict.INCONCLUSIVE
    return EnergyMomentReport(s, partial, tail, verdict, ratio)


def default_cutoff(rank: int, alpha: complex, chi: complex) -> int:
    """Truncation heuristic: mean photon number sets the scale."""
    mean_n = rank + abs(alpha) ** 2 + math.sinh(abs(chi)) ** 2
    return max(60, math.ceil(8.0 * mean_n))


def _squeeze_frame(chi: complex):
    """``(cosh r, sinh r, e^{i phi})`` of ``chi = r e^{i phi}``; the phase factor is 1.0 at 0."""
    r = abs(chi)
    return math.cosh(r), math.sinh(r), (cmath.exp(1j * cmath.phase(chi)) if chi != 0 else 1.0)


def _squeeze_gap(chi: complex) -> complex:
    """``cosh r - e^{i phi} sinh r`` of ``chi = r e^{i phi}`` without cancellation, as ``e^{-r}
    - 2i sin(phi/2) e^{i phi/2} sinh r``: the difference of two terms near ``e^r / 2`` loses all
    of ``e^{-r}`` at real ``chi`` from ``r`` about 19 on."""
    r, phi = abs(chi), cmath.phase(chi)
    return math.exp(-r) - 2j * math.sin(0.5 * phi) * cmath.exp(0.5j * phi) * math.sinh(r)


def _packet_exponents(alpha: complex, chi: complex):
    """Exponent coefficients ``(g2, g1, g0)`` of the rank-0 packet.

    The wavefunction of ``D(alpha) S(chi) |0>`` is ``exp(g2 x^2 + g1 x + g0)``
    with the exact global phase of the operator convention (squeezing first,
    then displacement by ``x0 = sqrt(2) Re alpha``, ``p0 = sqrt(2) Im alpha``
    with the Baker-Campbell-Hausdorff phase ``exp(-i Re(alpha) Im(alpha))``).
    """
    alpha = complex(alpha)
    ch, sh, w = _squeeze_frame(complex(chi))
    denom = _squeeze_gap(chi)
    g2 = -(ch + w * sh) / (2.0 * denom)
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    g1 = -2.0 * g2 * x0 + 1j * p0
    log_pref = -0.25 * math.log(math.pi) - 0.5 * cmath.log(denom)
    g0 = g2 * x0 * x0 - 1j * alpha.imag * alpha.real + log_pref
    return g2, g1, g0


def _kernel_rows(mu, nu, gamma, c: np.ndarray, rows: int) -> np.ndarray:
    """Rows ``0..rows`` of ``U c`` for each Gaussian unitary with ``U† a U = mu a + nu a† +
    gamma`` (1-d arrays, one unitary each), up to the global phase that makes ``<0|U|0>`` positive.

    The kernel ``g_mn = <m|U|n>`` obeys two three-term recurrences (Miatto & Quesada, Quantum
    4, 366, 2020; README, "Exact Fock propagation").  Column 0 comes from ``sqrt(m+1) g_{m+1}
    = b1 g_m + a11 sqrt(m) g_{m-1}``, run from 1 under a running scale that ``log|<0|U|0>|``
    joins at the end: the column alone can grow like ``exp(|b1|^2/2)`` and ``<0|U|0>``
    underflow.  Each later column comes from ``sqrt(n+1) g_{m,n+1} = b2 g_mn + a12 sqrt(m)
    g_{m-1,n} + a22 sqrt(n) g_{m,n-1}``.  Neither reaches a row above m, so the rows are
    exact; each column is summed against ``c``, trailing zeros trimmed, as it is made.
    A unitary whose kernel leaves the double range (``|gamma|^2 |nu|`` or ``|gamma mu|`` past
    it, a state spread over more photons than any row count reaches) gets zero rows.  Raises
    :class:`PrecisionLoss` if rounding adds more than 1e-8 of ``|c|^2``: the column recurrence
    amplifies it with ``|gamma|`` and the number of columns.
    """
    mu, nu, gamma = (np.asarray(x, dtype=complex).reshape(-1) for x in (mu, nu, gamma))
    c = c[: max(1, np.trim_zeros(c, "b").size)]
    sq = np.sqrt(np.arange(rows + 1))
    col = np.empty((mu.size, rows + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        mu_bar, gamma_bar = np.conj(mu), np.conj(gamma)
        log_c = 0.5 * (np.real(nu * gamma_bar**2 / mu_bar) - np.abs(gamma) ** 2
                       - np.log(np.abs(mu)))
        a11, b1 = nu / mu_bar, (gamma * mu_bar - nu * gamma_bar) / mu_bar
        a12, a22, b2 = (np.asarray(x / mu_bar)[:, None] for x in (1.0, -np.conj(nu), -gamma_bar))
        beyond = ~np.isfinite(log_c + b1)
        sq_list, up = sq.tolist(), a12 * sq[1:]  # Python floats keep the scalar loop fast
        for k, (b, a, scale) in enumerate(zip(b1, a11, log_c)):
            prev, cur, vals, scales = 0j, 1 + 0j, [1 + 0j], [scale]
            for m in range(1, rows + 1):
                prev, cur = cur, (b * cur + a * sq_list[m - 1] * prev) / sq_list[m]
                if abs(cur) > 1e100:
                    prev, cur, scale = prev * 1e-100, cur * 1e-100, scale + math.log(1e100)
                vals.append(cur)
                scales.append(scale)
            col[k] = np.array(vals) * np.exp(scales)
        prev, out = np.zeros_like(col), c[0] * col
        for n in range(1, c.size):
            nxt = b2 * col + (a22 * math.sqrt(n - 1)) * prev
            nxt[:, 1:] += up * col[:, :-1]
            prev, col = col, nxt * (1.0 / math.sqrt(n))
            out += c[n] * col
        out[beyond] = 0.0
        norm = np.sum(np.abs(c) ** 2)
        grown = np.sum(np.abs(out) ** 2, axis=1) - norm
    if not np.all(grown <= 1e-8 * norm):
        raise PrecisionLoss(f"rounding in the column recurrence added {np.max(grown):.3e} to |c|^2")
    return out


def _stellar_rows(st: StellarState, rows: int, outer) -> np.ndarray:
    """Amplitudes ``0..rows`` of ``V D(alpha) S(chi) sum_n c_n |n>``, exact to rounding, one
    row for each Gaussian unitary ``V† a V = mu a + nu a† + gamma`` in ``outer = (mu, nu,
    gamma)`` (scalars or 1-d arrays); the conversion passes the identity ``(1, 0, 0)``.

    With ``D S``'s ``cosh r a - e^{i phi} sinh r a† + alpha`` the coefficients compose to ``mu
    cosh r - nu e^{-i phi} sinh r``, ``nu cosh r - mu e^{i phi} sinh r`` and ``mu alpha + nu
    alpha* + gamma``, and :func:`_kernel_rows`, which makes ``<0|V D S|0>`` positive, runs on
    the core's ``r + 1`` columns.  The rows then carry the phase ``exp(-i Im(e^{i phi} tanh r
    alpha*^2) / 2)`` of ``<0|D S|0>``: exact at ``V = 1``, global otherwise.  Past the core,
    from the first two amplitudes below the smallest normal double on, the rows are zero:
    there the recurrences carry only underflowed noise.
    """
    ch, sh, w = _squeeze_frame(st.chi)
    mu, nu, gamma = outer
    with np.errstate(over="ignore", invalid="ignore"):  # _kernel_rows zeros what overflows
        flow = (mu * ch - nu * (w.conjugate() * sh), nu * ch - mu * (w * sh),
                mu * st.alpha + nu * st.alpha.conjugate() + gamma)
    g = _kernel_rows(*flow, st.core, rows)
    g *= cmath.exp(-0.5j * (w * (sh / ch) * st.alpha.conjugate() ** 2).imag)
    for row in g:
        small = np.abs(row[st.rank + 1 :]) < np.finfo(float).tiny
        row[st.rank + 1 + np.append(np.flatnonzero(small[:-1] & small[1:]), small.size)[0] :] = 0
    return g


def stellar_to_fock(st: StellarState, cutoff: int | None = None) -> FockVector:
    """Amplitudes of ``D(alpha) S(chi) sum_n c_n |n>`` at the given cutoff.

    The rows come from the Gaussian kernel's recurrences (:func:`_stellar_rows`), so every
    amplitude is exact to rounding whatever the cutoff, and the norm past it is ``1 - |v|^2``:
    :class:`CutoffTooSmall` when that is 1e-10 or more.  Without a cutoff the vector is
    ``_series(st, 0.0)``: cut where the Hermite series' bounded tail on the real line falls
    below ``eps``.
    """
    if cutoff is None:
        return _series(st, 0.0)
    cutoff = _nonnegative_int(cutoff, "cutoff")
    if cutoff < st.rank:
        raise CutoffTooSmall("cutoff below the stellar rank")
    vec = _stellar_rows(st, cutoff, (1, 0, 0))[0]
    discarded = 1.0 - float(np.sum(np.abs(vec) ** 2))
    if discarded >= 1e-10:
        raise CutoffTooSmall(
            f"discarded norm {discarded:.3e} at cutoff {cutoff}; increase the cutoff"
        )
    return FockVector(vec)


def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for ``k = 0 .. n``, summed from ``log 1 .. log n``."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))


def _log_hermite_bound(n: np.ndarray, y: float) -> np.ndarray:
    """``log B_n(y)``, where ``B_n(y) >= |phi_n(z)|`` on the whole strip ``|Im z| <= y`` (y >= 0).

    Cauchy's estimate on ``sum_n phi_n(z) w^n / sqrt(n!) = pi^{-1/4} exp(-z^2/2 + sqrt(2) z w
    - w^2/2)``, whose modulus on ``|w| = rho`` is at most ``pi^{-1/4} exp(y^2/2 + rho^2/2 +
    sqrt(2) y rho)``, taken at the best radius ``rho = (sqrt(2 y^2 + 4n) - sqrt(2) y) / 2``.
    At ``n = 0`` the factor ``rho^n`` is 1 whatever ``rho``.
    """
    rho = 0.5 * (np.sqrt(2.0 * y * y + 4.0 * n) - _SQRT2 * y)
    return (math.log(_PI_M14) + 0.5 * (_log_factorials(n.max(initial=0))[n] + y * y + rho * rho)
            + _SQRT2 * y * rho - n * np.log(np.where(n > 0, rho, 1.0)))


def _series(st: StellarState, max_abs_im: float) -> FockVector:
    """Fock vector of ``st`` for its Hermite series at ``|Im z| <= max_abs_im``.

    The one rule by which :func:`stellar_to_fock` without a cutoff,
    :func:`~stellar_zeros.oracle.hudson_test` (on the real line) and ``verify`` size and build
    a series: the least cutoff ``N`` with ``sum_{n>N} |c_n| B_n <= eps sum_n |c_n| B_n``
    (:func:`_log_hermite_bound`), not below :func:`default_cutoff`, read off a working vector
    doubled from twice that floor until ``N`` is below its top quarter.  The rows are exact
    (:func:`_stellar_rows`), so the vector is the working one's start.  Raises
    :class:`PrecisionLoss` if amplitudes underflow first, or if the working vector would pass
    ``_MAX_ROWS``: past the amplitudes' rounding plateau the rows grow again, and the
    doubling would not end.
    """
    floor = work = default_cutoff(st.rank, st.alpha, st.chi)
    while True:
        work *= 2
        v = _stellar_rows(st, work, (1, 0, 0))[0]
        amps = np.abs(v)
        with np.errstate(divide="ignore"):  # an underflowed amplitude weighs nothing
            logs = np.log(amps) + _log_hermite_bound(np.arange(amps.size), max_abs_im)
        tails = np.cumsum(np.exp(logs - logs.max())[::-1])[::-1]  # tails[k]: sum over n >= k
        cut = int(np.count_nonzero(tails > np.finfo(float).eps * tails[0])) - 1
        if cut < (3 * amps.size) // 4:
            break
        if 2 * work > _MAX_ROWS:
            raise PrecisionLoss(f"Hermite series at |Im z| <= {max_abs_im:g} is not cut within "
                                f"{work + 1} rows")
    if amps[cut] < np.finfo(float).tiny / np.finfo(float).eps and not amps[cut + 1 :].any():
        raise PrecisionLoss(
            f"Hermite series at |Im z| <= {max_abs_im:g} outgrows the double range: "
            f"the amplitudes underflow past n = {cut}"
        )
    return FockVector(v[: max(floor, cut) + 1])


def random_stellar_state(rank: int, seed: int, scale: float = 1.0) -> StellarState:
    """Seeded random fixture: complex-normal core, disc-uniform alpha, chi."""
    rank, seed = _nonnegative_int(rank, "rank"), _nonnegative_int(seed, "seed")
    if not 0.0 <= scale < math.inf:
        raise InvalidParameter("scale must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    while True:
        core = rng.standard_normal(rank + 1) + 1j * rng.standard_normal(rank + 1)
        core /= np.linalg.norm(core)
        if abs(core[-1]) > 1e-6:
            break
    alpha = scale * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
    chi = scale * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
    return StellarState(rank=rank, core=core, alpha=alpha, chi=chi)


def state_to_json(st: StellarState) -> dict:
    """State descriptor used by the CLI: re/im pairs, index 0 first."""
    return {
        "rank": st.rank,
        "core": [[c.real, c.imag] for c in st.core],
        "alpha": [st.alpha.real, st.alpha.imag],
        "chi": [st.chi.real, st.chi.imag],
    }


def state_from_json(data: dict) -> StellarState:
    try:
        rank = data["rank"]
        core = np.array([complex(re, im) for re, im in data["core"]])
        alpha = complex(data["alpha"][0], data["alpha"][1])
        chi = complex(data["chi"][0], data["chi"][1])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed state descriptor: {exc}") from exc
    nsq = float(np.sum(np.abs(core) ** 2))
    if abs(nsq - 1.0) > 1e-9:
        raise InvalidParameter("core coefficients are not normalized")
    return StellarState(rank=rank, core=core, alpha=alpha, chi=chi)
