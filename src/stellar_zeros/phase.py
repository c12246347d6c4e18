"""Phase-shift dynamics: zero ellipses, real-axis crossings, certificates.

Under ``H = (x^2 + p^2)/2`` the zero matrix specializes to

    ``M(t) = Lambda0 e^{-it} + L sin(t)``,

whose diagonal traces ellipses ``lam_j (cos t - 2i g2 sin t)`` (plus small
drift and interaction shifts) and whose off-diagonal part has Gershgorin
radii ``|sin t| * sum_j 1/|lam_i - lam_j|``.  When the initial zeros are
separated by at least ``sqrt((r-1)/|Re g2|)`` (real ``g2``), the discs stay
disjoint, each zero is trapped near its ellipse, and must land on the real
axis at least twice per period; with unbalanced numbers of zeros above and
below the axis at least one crossing happens regardless.  This module
detects and certifies those crossing events.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInitialZeros,
    InvalidParameter,
    TrackingAmbiguity,
)
from .dynamics import (
    QuadraticHamiltonian,
    ZeroTrajectory,
    _track_step,
    match_sets,
)
from .rootfind import eigenvalues_small
from .states import StellarState
from .wavefunction import build_wavefunction

__all__ = [
    "CrossingEvent",
    "GershgorinReport",
    "AuditResult",
    "phase_shift_matrix",
    "phase_trajectory",
    "detect_crossings",
    "gershgorin_check",
    "crossing_guarantee_audit",
    "imbalance",
    "antipodal_check",
]

IM_BAND = 1e-12


@dataclass(frozen=True)
class CrossingEvent:
    """A tracked zero hitting the real axis (or pinned there throughout)."""

    zero_index: int
    t_star: float
    x_star: float
    refinement_width: float
    flag: str = "crossing"  # "crossing" | "always_real"


@dataclass(frozen=True)
class GershgorinReport:
    """Disc geometry of the phase-shift zero matrix over one period."""

    times: np.ndarray
    radii: np.ndarray  # (rank, len(times))
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


def _interaction_sums(zeros):
    r = len(zeros)
    out = np.zeros(r, dtype=complex)
    for j in range(r):
        out[j] = sum(1.0 / (zeros[j] - zeros[m]) for m in range(r) if m != j)
    return out


def _phase_shift_data(zeros0, g2_0: complex, g1_0: complex):
    """``(Lambda0, L)`` of the phase-shift zero matrix ``Lambda0 e^{-it} + L sin t``."""
    lam = np.array(zeros0, dtype=complex)
    if lam.size == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return empty, empty
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, np.inf)
    if not np.min(np.abs(diff)) > 1e-9:
        raise DegenerateInitialZeros("initial zeros must be pairwise distinct")
    vel = -2j * g2_0 * lam - 1j * g1_0 - 1j * _interaction_sums(lam)
    lmat = 1j / diff
    np.fill_diagonal(lmat, vel + 1j * lam)
    return np.diag(lam), lmat


def phase_shift_matrix(zeros0, g2_0: complex, t: float, g1_0: complex = 0.0) -> np.ndarray:
    """Exact zero-propagation matrix for the phase-shift Hamiltonian.

    ``M(t) = Lambda0 e^{-it} + L sin t`` with ``L`` built from the true
    initial velocities ``-2i g2 lam_j - i g1 - i sum_m 1/(lam_j - lam_m)``;
    its eigenvalues are the zeros at phase ``t`` and coincide with the
    general closed form specialized to ``A = B = 1/2``.
    """
    lambda0, lmat = _phase_shift_data(zeros0, g2_0, g1_0)
    return lambda0 * cmath.exp(-1j * t) + lmat * math.sin(t)


def phase_trajectory(
    zeros0, g2_0: complex, g1_0: complex = 0.0, samples: int = 513
) -> ZeroTrajectory:
    """Closed-form phase-shift trajectory over one full period ``[0, 2 pi]``.

    ``Lambda0`` and ``L`` are built once; each sample costs one small
    eigen-solve plus the tracker's rare bisection steps.  The Gaussian
    coefficients ride along in closed form as well:
    ``u(t) = cos t - 2i g2(0) sin t`` gives ``g2(t) = -u'(t)/(2i u(t))`` and
    ``g1(t) = g1(0)/u(t)``.
    """
    if samples < 257:
        raise InvalidParameter("phase trajectories need at least 257 samples")
    zeros0 = [complex(z) for z in zeros0]
    r = len(zeros0)
    ts = np.linspace(0.0, 2.0 * math.pi, samples)
    lambda0, lmat = _phase_shift_data(zeros0, g2_0, g1_0)

    def evaluator(t):
        if r == 0:
            return np.zeros(0, dtype=complex)
        m = lambda0 * cmath.exp(-1j * t) + lmat * math.sin(t)
        return np.asarray(eigenvalues_small(m))

    paths = np.zeros((r, ts.size), dtype=complex)
    if r:
        paths[:, 0] = zeros0
        for i in range(1, ts.size):
            paths[:, i] = _track_step(paths[:, i - 1], ts[i - 1], ts[i], evaluator)
    u = np.cos(ts) - 2j * complex(g2_0) * np.sin(ts)
    du = -np.sin(ts) - 2j * complex(g2_0) * np.cos(ts)
    gauss = np.vstack([du / (2j * u) * -1.0, complex(g1_0) / u])
    return ZeroTrajectory(ts, paths, gauss, "closed", evaluator=evaluator)


def _refine_crossing(traj, k, t0, t1, z0, z1):
    """Bisection on the matched eigenvalue between two bracketing samples."""
    s0 = z0.imag
    width = t1 - t0
    zm = z0
    tm = t0
    for _ in range(200):
        tm = 0.5 * (t0 + t1)
        zs = np.asarray(traj.evaluator(tm), dtype=complex)
        frac = (tm - t0) / (t1 - t0) if t1 > t0 else 0.5
        pred = z0 + (z1 - z0) * frac
        d = np.abs(zs - pred)
        order = np.argsort(d)
        if d.size > 1 and abs(d[order[0]] - d[order[1]]) < 1e-12:
            raise TrackingAmbiguity(
                f"eigenvalue matching tie while refining a crossing near t={tm:.6g}"
            )
        zm = zs[order[0]]
        width = t1 - t0
        if abs(zm.imag) <= IM_BAND and width <= 1e-10:
            break
        if (zm.imag > 0) == (s0 > 0):
            t0, z0 = tm, zm
        else:
            t1, z1 = tm, zm
        width = t1 - t0
        if width <= 1e-10 and abs(zm.imag) <= 1e-9:
            break
    return CrossingEvent(k, float(tm), float(zm.real), float(width))


def detect_crossings(traj: ZeroTrajectory) -> list:
    """Real-axis crossing events of every tracked zero over the trajectory.

    Sign changes of ``Im lambda_k`` between consecutive samples are refined
    by bisection on the closed-form eigenvalues (matched to the path by
    nearest-to-prediction) down to a window of 1e-10; samples already on
    the axis (|Im| < 1e-12) are recorded directly.  A zero whose imaginary
    part stays inside the band for the whole period is reported once with
    the ``always_real`` flag.  Events closer than 1e-6 in t are merged.
    """
    if traj.evaluator is None:
        raise InvalidParameter("crossing detection needs a closed-form-backed trajectory")
    if traj.times.size < 256:
        raise InvalidParameter("crossing detection needs at least 256 samples")
    events = []
    period = 2.0 * math.pi
    for k in range(traj.rank):
        ys = traj.paths[k].imag
        if np.all(np.abs(ys) < IM_BAND):
            events.append(
                CrossingEvent(k, 0.0, float(traj.paths[k, 0].real), 0.0, "always_real")
            )
            continue
        found = []

        def record(ev):
            tmod = ev.t_star % period
            for other in found:
                if abs((other.t_star - tmod + period / 2) % period - period / 2) < 1e-6:
                    return
            found.append(
                CrossingEvent(ev.zero_index, tmod, ev.x_star, ev.refinement_width, ev.flag)
            )

        for i in range(traj.times.size - 1):
            y0, y1 = ys[i], ys[i + 1]
            if abs(y0) < IM_BAND:
                record(
                    CrossingEvent(k, float(traj.times[i]), float(traj.paths[k, i].real), 0.0)
                )
                continue
            if abs(y1) < IM_BAND:
                continue  # picked up as the left endpoint of the next segment
            if (y0 > 0) != (y1 > 0):
                ev = _refine_crossing(
                    traj,
                    k,
                    float(traj.times[i]),
                    float(traj.times[i + 1]),
                    complex(traj.paths[k, i]),
                    complex(traj.paths[k, i + 1]),
                )
                record(ev)
        last = traj.times.size - 1
        if abs(ys[last]) < IM_BAND:
            record(
                CrossingEvent(
                    k, float(traj.times[last]), float(traj.paths[k, last].real), 0.0
                )
            )
        events.extend(found)
    events.sort(key=lambda e: (e.t_star, e.zero_index))
    return events


def gershgorin_check(
    zeros0, g2_0: complex, t_samples: int = 256, g1_0: complex = 0.0
) -> GershgorinReport:
    """Disc-separation report for the phase-shift zero matrix.

    The certified verdict requires ``Im g2 = 0`` (the separation threshold
    ``sqrt((r-1)/|Re g2|)`` is derived for real Gaussian exponents); the
    disc geometry itself is evaluated on the exact matrix, including the
    interaction contribution to the centers that the plain ellipse picture
    ignores.
    """
    zeros0 = [complex(z) for z in zeros0]
    r = len(zeros0)
    ts = np.linspace(0.0, 2.0 * math.pi, max(2, t_samples), endpoint=False)
    threshold = math.sqrt(max(r - 1, 0) / abs(complex(g2_0).real))
    if r < 2:
        radii = np.zeros((r, ts.size))
        return GershgorinReport(ts, radii, math.inf, threshold, True, True,
                                abs(complex(g2_0).imag) <= 1e-12)
    lam = np.array(zeros0, dtype=complex)
    inv_abs = np.zeros(r)
    for j in range(r):
        inv_abs[j] = sum(1.0 / abs(lam[j] - lam[m]) for m in range(r) if m != j)
    radii = np.abs(np.sin(ts))[None, :] * inv_abs[:, None]
    vel = -2j * complex(g2_0) * lam - 1j * complex(g1_0) - 1j * _interaction_sums(zeros0)
    centers = (
        lam[:, None] * np.exp(-1j * ts)[None, :]
        + (vel + 1j * lam)[:, None] * np.sin(ts)[None, :]
    )
    disjoint = True
    for i in range(r):
        for j in range(i + 1, r):
            sep = np.abs(centers[i] - centers[j]) - radii[i] - radii[j]
            if np.min(sep) <= 0:
                disjoint = False
    min_sep = min(abs(lam[i] - lam[j]) for i in range(r) for j in range(i + 1, r))
    return GershgorinReport(
        ts,
        radii,
        float(min_sep),
        float(threshold),
        bool(disjoint),
        bool(min_sep >= threshold),
        abs(complex(g2_0).imag) <= 1e-12,
    )


def crossing_guarantee_audit(st: StellarState, samples: int = 513) -> AuditResult:
    """Count one period of real-axis crossings against the separation certificate.

    When the hypothesis holds (real Gaussian exponent and initial zeros
    separated by at least the threshold) the audit demands at least ``2 r``
    crossing events; ``GuaranteedButMissed`` is a contract violation, never
    an acceptable outcome.
    """
    wf = build_wavefunction(st)
    if wf.rank == 0:
        return AuditResult("NotGuaranteedNone", 0, (), False)
    report = gershgorin_check(wf.zeros, wf.g2, 256, wf.g1)
    guaranteed = report.certified and report.separation_ok
    traj = phase_trajectory(wf.zeros, wf.g2, wf.g1, samples)
    events = detect_crossings(traj)
    crossings = [e for e in events if e.flag == "crossing"]
    count = len(crossings)
    if guaranteed:
        outcome = (
            "GuaranteedAndObserved" if count >= 2 * wf.rank else "GuaranteedButMissed"
        )
    else:
        outcome = "NotGuaranteedObserved" if count >= 1 else "NotGuaranteedNone"
    return AuditResult(outcome, count, tuple(events), guaranteed, report)


def imbalance(zeros):
    """Counts of zeros strictly above/below the axis (band 1e-12 excluded)."""
    n_plus = sum(1 for z in zeros if complex(z).imag > IM_BAND)
    n_minus = sum(1 for z in zeros if complex(z).imag < -IM_BAND)
    return n_plus, n_minus


def antipodal_check(traj: ZeroTrajectory, t: float) -> float:
    """Assignment distance between the zero sets at ``t`` and ``-(t + pi)``.

    The propagation matrix satisfies ``M(t + pi) = -M(t)`` exactly, so the
    zero multisets must match under negation; for closed-form trajectories
    the returned distance is at roundoff level (contract: below 1e-8).
    """
    if traj.rank == 0:
        return 0.0
    if traj.evaluator is None:
        raise InvalidParameter("antipodal check needs a closed-form-backed trajectory")
    zs = np.asarray(traj.evaluator(t), dtype=complex)
    zs_pi = np.asarray(traj.evaluator(t + math.pi), dtype=complex)
    _, dists = match_sets(zs, -zs_pi)
    return float(np.max(dists)) if dists.size else 0.0
