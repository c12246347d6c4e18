"""Phase-shift dynamics: zero ellipses, real-axis crossings, certificates.

Under ``H = (x^2 + p^2)/2`` the general zero matrix of
:mod:`stellar_zeros.dynamics` specializes to

    ``X(t) = X0 cos t + L sin t``,

which is antiperiodic, ``X(t + pi) = -X(t)``: the zeros half a period on
are the negated zeros, so a sampled period is solved and tracked only on
its first half, and the antipodal check tests that identity with fresh solves.
Its diagonal traces ellipses ``lam_j (cos t - 2i g2 sin t)`` (plus small
drift and interaction shifts) and its off-diagonal part has Gershgorin
radii ``|sin t| * sum_j 1/|lam_i - lam_j|``.  When the initial zeros are
separated by at least ``sqrt((r-1)/|Re g2|)`` (real ``g2``), the discs stay
disjoint, each zero is trapped near its ellipse, and must land on the real
axis at least twice per period; with ``n+`` zeros above the axis and
``n-`` below, at least ``2 |n+ - n-|`` crossings happen per period
regardless, since half a period swaps the two counts.  This module
detects and certifies those crossing events.  A zero is real exactly when
``X(t)`` and ``conj(X(t))`` share an eigenvalue, so every crossing time in
the period comes from one QZ solve of an ``r^2 x r^2`` Kronecker pencil,
with no sampling between the times; the samples only order the zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidParameter, NoConvergence
from .dynamics import (
    QuadraticHamiltonian,
    ZeroTrajectory,
    _gaussian_at,
    _track,
    _zeros_at,
    matching_distance,
    zero_pair,
)
from .rootfind import DEFECTIVE_TOL, _cluster, _min_gap, _scipy_module
from .states import StellarState
from .wavefunction import WavefunctionForm, build_wavefunction

zggev = _scipy_module("linalg._flapack").zggev

__all__ = [
    "CrossingEvent",
    "GershgorinReport",
    "AuditResult",
    "phase_trajectory",
    "detect_crossings",
    "gershgorin_check",
    "crossing_guarantee_audit",
    "imbalance",
    "antipodal_check",
]

IM_BAND = 1e-12
PERIOD_STEPS = 256  # phase_trajectory's steps per period; detect_crossings needs as many samples
REAL_TOL = 1e-9  # real at a pencil root: |Im| <= REAL_TOL max(1, |zeros|)


@dataclass(frozen=True)
class CrossingEvent:
    """A tracked zero hitting the real axis (or pinned there throughout)."""

    zero_index: int
    t_star: float
    x_star: float
    flag: str = "crossing"  # "crossing" | "always_real"


@dataclass(frozen=True)
class GershgorinReport:
    """Disc geometry of the phase-shift zero matrix over one period."""

    min_separation: float
    threshold: float
    discs_disjoint_all_t: bool
    separation_ok: bool
    certified: bool  # Im(g2) = 0, so the threshold derivation applies


@dataclass(frozen=True)
class AuditResult:
    outcome: str  # GuaranteedAndObserved | GuaranteedButMissed | NotGuaranteedObserved | NotGuaranteedNone
    count: int
    events: tuple
    guaranteed: bool
    gershgorin: GershgorinReport | None = field(default=None, repr=False)


def phase_trajectory(zeros0, g2_0: complex, g1_0: complex = 0.0) -> ZeroTrajectory:
    """Closed-form phase-shift trajectory at 257 times over one full period ``[0, 2 pi]``.

    This is :func:`~stellar_zeros.dynamics.sample_closed_form` at
    ``H = (x^2 + p^2)/2`` from half the eigen-solves: ``X(t + pi) = -X(t)``,
    so one stacked solve gives the 128 times in ``(0, pi]`` and their
    negatives are the samples at the 128 in ``(pi, 2 pi]``.  The tracker
    orders the first half up to the junction, the first sample past ``pi``,
    with one fresh solve per refinement pass; each later step repeats a step
    of the first half, negated, so its rows are those tracked rows negated,
    in the junction's order.  The Gaussian coefficients are in closed form.
    Criterion 5 (:func:`antipodal_check`)
    checks that identity with fresh solves.  ``PERIOD_STEPS`` is also the
    floor of :func:`detect_crossings`, whose times come from the pencil: this
    grid and a 2049-point one give the same events.
    """
    wf = WavefunctionForm(g2_0, g1_0, 0.0, zeros0)
    H = QuadraticHamiltonian.phase_shift()
    pair = zero_pair(wf)
    ts = np.linspace(0.0, 2.0 * math.pi, PERIOD_STEPS + 1)
    half = _zeros_at(pair, H, ts[1 : PERIOD_STEPS // 2 + 1])
    paths = np.concatenate([np.asarray(wf.zeros, dtype=complex).reshape(1, -1), half, -half])
    if len(wf.zeros) > 1:  # below rank 2 there is nothing to order
        # |-a - (-b)| = |a - b| bitwise: past the junction (row j) the steps repeat the first half's.
        j = PERIOD_STEPS // 2 + 1
        first = _track(ts[: j + 1], paths[: j + 1], partial(_zeros_at, pair, H))
        # Row j holds row 1's numbers negated; their order there is the one the mirror keeps.
        turn = np.argmax(first[1] == -first[j][:, None], axis=1)
        paths = np.concatenate([first, -first[2:j, turn]])
    return ZeroTrajectory(ts, paths.T, _gaussian_at(pair, H, ts), pair, H)


def _pencil_times(pair, H: QuadraticHamiltonian) -> np.ndarray:
    """Sorted times in ``[0, 2 pi)`` where ``X(t)`` and its conjugate share an eigenvalue.

    At ``omega^2 = 1`` and ``kappa = 0``, ``X(t) = cos t X0 + sin t L`` with
    ``L = 2B P0 + C X0 + E I``, so that is where ``K(t) = cos t K0 + sin t K1``,
    with ``K = M (x) I - I (x) conj(M)`` from ``M = X0`` and ``M = L``, is
    singular: one QZ solve of the pencil ``(K0, -K1)``, whose real
    eigenvalues are ``tan t``.
    """
    x0, p0, eye = pair.terms
    lmat = 2.0 * H.B * p0 + H.C * x0 + H.E * eye
    # np.kron's products, broadcast: K[(i, j), (k, l)] = M_ik I_jl - I_ik conj(M)_jl.
    left, right, size = eye[:, None, :, None], eye[None, :, None, :], eye.size
    k0, k1 = ((m[:, None, :, None] * right - left * m.conj()[None, :, None, :]).reshape(size, size)
              for m in (x0, lmat))
    if not size:
        return np.zeros(0)
    # scipy.linalg.eigvals' call: a workspace query, then the solve without vectors.
    lwork = int(zggev(k0, -k1, lwork=-1)[-2][0].real)
    alpha, beta, _, _, _, info = zggev(k0, -k1, 0, 0, lwork)
    if info:
        raise NoConvergence(f"the QZ solve of the crossing pencil failed (zggev info {info})")
    # w = (beta + i alpha)/(beta - i alpha) = e^{2it} for a real root
    # tan t = alpha/beta.  A vanishing denominator marks the singular part
    # of the pencil (alpha ~ beta ~ 0, a zero pinned on the axis) or a root
    # far off the unit circle; both are dropped.
    num, den = beta + 1j * alpha, beta - 1j * alpha
    scale = max(np.abs(k0).max(initial=0.0), np.abs(k1).max(initial=0.0))
    keep = np.abs(den) > DEFECTIVE_TOL * scale
    # A double root (mirror zeros crossing at the same t) splits by about
    # sqrt(eps) off the circle; its mean lies back on it to roundoff.
    w = _cluster(num[keep] / den[keep], DEFECTIVE_TOL)
    half = np.angle(w[np.abs(np.abs(w) - 1.0) <= DEFECTIVE_TOL]) / 2.0 % math.pi
    t = np.sort(np.concatenate([half, half + math.pi]) % (2.0 * math.pi))
    return t[np.diff(t, prepend=-1.0) != 0.0]  # np.unique, which would load numpy.ma


def _antiperiodic(traj: ZeroTrajectory, what: str) -> QuadraticHamiltonian:
    """``traj.H``, or :class:`InvalidParameter` unless ``X(t + pi) = -X(t)`` along ``traj``.

    That holds for a closed-form trajectory under a Hamiltonian with
    ``omega^2 = 1`` and ``kappa = CE - 2BD = 0``: then ``F11``, ``F12`` and
    ``F13 = sE`` of its flow change sign over half a period.
    """
    H = traj.H
    if traj.pair is None or H.omega2 != 1.0 or H.C * H.E != 2.0 * H.B * H.D:
        raise InvalidParameter(f"{what} needs a closed-form phase-shift trajectory")
    return H


def detect_crossings(traj: ZeroTrajectory) -> list:
    """Real-axis crossing events of every tracked zero over one phase-shift period.

    Every time at which some zero is real is a root of one Kronecker-pencil
    eigenproblem (:func:`_pencil_times`; Horn & Johnson, *Topics in Matrix
    Analysis*, 1991, sec. 4.4).  The zeros at all those times come from one
    stacked eigen-solve and are ordered like the sample before each time by
    one tracker call over all those steps (fresh solves only for a step that
    fails its half-gap test), and every zero whose imaginary part is then
    within ``REAL_TOL`` of the axis gives one event at its real part.  A zero
    whose imaginary part stays inside 1e-12 at every sample is reported once
    with the ``always_real`` flag instead.  The trajectory must be a
    closed-form phase-shift trajectory sampled over ``[0, 2 pi]`` at
    ``PERIOD_STEPS`` (256) or more times; the floor keeps that reading
    honest, since on a 2-sample grid ``X(0) = X(2 pi)`` and a zero real at
    t = 0 would read as pinned.
    """
    H = _antiperiodic(traj, "crossing detection")
    if traj.times.size < PERIOD_STEPS:
        raise InvalidParameter(f"crossing detection needs at least {PERIOD_STEPS} samples")
    if traj.times[0] != 0.0 or traj.times[-1] < 2.0 * math.pi:
        raise InvalidParameter("crossing detection needs samples over [0, 2 pi]")
    pinned = np.all(np.abs(traj.paths.imag) < IM_BAND, axis=1)
    events = [
        CrossingEvent(k, 0.0, float(traj.paths[k, 0].real), "always_real")
        for k in np.flatnonzero(pinned).tolist()
    ]
    t_p = _pencil_times(traj.pair, H)
    before = np.searchsorted(traj.times, t_p, side="right") - 1
    # One step per pencil time, from the sample before it, all tracked at once.
    ts = np.stack([traj.times[before], t_p], axis=1).ravel()
    zs = np.stack([traj.paths[:, before].T, traj.zeros_at(t_p)], axis=1).reshape(ts.size, traj.rank)
    zs = _track(ts, zs, traj.zeros_at, anchors=np.arange(ts.size) % 2 == 0)[1::2]
    scale = REAL_TOL * np.maximum(1.0, np.abs(zs).max(axis=1, initial=0.0))
    real = ~pinned & (np.abs(zs.imag) <= scale[:, None])
    for j, k in np.argwhere(real).tolist():
        events.append(CrossingEvent(k, float(t_p[j]), float(zs[j, k].real)))
    events.sort(key=lambda e: (e.t_star, e.zero_index))
    return events


def gershgorin_check(zeros0, g2_0: complex, g1_0: complex = 0.0) -> GershgorinReport:
    """Disc-separation report for the phase-shift zero matrix over a whole period.

    The certified verdict requires ``Im g2 = 0`` (the separation threshold
    ``sqrt((r-1)/|Re g2|)`` is derived for real Gaussian exponents); the
    discs are those of the exact zero matrix ``X(t) = X0 cos t + L sin t``:
    centers ``lam_j cos t + L_jj sin t``, which include the interaction
    contribution that the plain ellipse picture ignores, and radii
    ``|sin t| rho_j`` with ``rho_j = sum_{m != j} |L_jm|``.  Discs i and j
    are apart at t exactly when ``|a cos t + b sin t|^2 - rho^2 sin^2 t > 0``
    (``a = lam_i - lam_j``, ``b = L_ii - L_jj``, ``rho = rho_i + rho_j``), a
    quadratic form in ``(cos t, sin t)`` that is positive for every t exactly
    when its matrix ``[[|a|^2, Re(conj(a) b)], [Re(conj(a) b), |b|^2 - rho^2]]``
    is positive definite; as ``a != 0``, that is
    ``|Im(conj(a) b)| > |a| rho``, decided once per pair with no sampling.
    """
    zeros0 = [complex(z) for z in zeros0]
    pair = zero_pair(WavefunctionForm(g2_0, g1_0, 0.0, zeros0))
    threshold = math.sqrt(max(len(zeros0) - 1, 0) / abs(complex(g2_0).real))
    x0, lmat, _ = pair.terms  # L = 2B P0 + C X0 + E I is P0 at the phase shift
    off = np.abs(lmat)
    np.fill_diagonal(off, 0.0)
    rho = off.sum(axis=1)
    a = np.subtract.outer(np.diag(x0), np.diag(x0))
    b = np.subtract.outer(np.diag(lmat), np.diag(lmat))
    apart = np.abs((a.conj() * b).imag) > np.abs(a) * np.add.outer(rho, rho)
    min_sep = _min_gap(zeros0)
    return GershgorinReport(
        float(min_sep),
        float(threshold),
        bool(np.all(apart[np.triu_indices(len(zeros0), 1)])),
        bool(min_sep >= threshold),
        abs(complex(g2_0).imag) <= 1e-12,
    )


def crossing_guarantee_audit(st: StellarState) -> AuditResult:
    """Count one period of real-axis crossings against the separation and imbalance guarantees.

    When the separation hypothesis holds (real Gaussian exponent and initial
    zeros separated by at least the threshold) a period holds at least
    ``2 r`` crossing events.  Whatever the separation, it holds at least
    ``2 |n+ - n-|``, counted by :func:`imbalance` on the initial zeros:
    ``X(t + pi) = -X(t)`` swaps the counts above and below the axis, and a
    crossing moves one zero between them, in each half period.  The audit
    demands the larger bound; ``GuaranteedButMissed`` is a contract
    violation, never an acceptable outcome.
    """
    wf = build_wavefunction(st)
    if wf.rank == 0:
        return AuditResult("NotGuaranteedNone", 0, (), False)
    report = gershgorin_check(wf.zeros, wf.g2, wf.g1)
    n_plus, n_minus = imbalance(wf.zeros)
    separated = report.certified and report.separation_ok
    bound = max(2 * wf.rank if separated else 0, 2 * abs(n_plus - n_minus))
    events = detect_crossings(phase_trajectory(wf.zeros, wf.g2, wf.g1))
    crossings = [e for e in events if e.flag == "crossing"]
    count = len(crossings)
    guaranteed = bound > 0
    if guaranteed:
        outcome = "GuaranteedAndObserved" if count >= bound else "GuaranteedButMissed"
    else:
        outcome = "NotGuaranteedObserved" if count >= 1 else "NotGuaranteedNone"
    return AuditResult(outcome, count, tuple(events), guaranteed, report)


def imbalance(zeros):
    """Counts ``(n+, n-)`` of zeros strictly above/below the axis.

    A zero within ``IM_BAND`` (1e-12) of the axis is in neither count.
    """
    n_plus = sum(1 for z in zeros if complex(z).imag > IM_BAND)
    n_minus = sum(1 for z in zeros if complex(z).imag < -IM_BAND)
    return n_plus, n_minus


def antipodal_check(traj: ZeroTrajectory, t: float) -> float:
    """Assignment distance between the zeros at ``t`` and the negated zeros at ``t + pi``.

    The phase-shift zero matrix satisfies ``X(t + pi) = -X(t)``, so the
    zero multisets must match under negation; for closed-form trajectories
    the returned distance is at roundoff level (contract: below 1e-8).  A
    trajectory that is not closed-form under ``omega^2 = 1`` and
    ``CE = 2BD``, where the identity fails, raises :class:`InvalidParameter`.
    """
    _antiperiodic(traj, "the antipodal check")
    try:
        finite = math.isfinite(t)
    except TypeError:
        raise InvalidParameter(f"the antipodal check takes one real time, not t={t!r}") from None
    except OverflowError:  # an integer past the double range
        raise InvalidParameter("time t is not a finite double") from None
    if not finite:
        raise InvalidParameter(f"time t={t} is not finite")
    now, later = traj.zeros_at(np.array([t, t + math.pi]))
    return matching_distance(now, -later)
