"""Phase-shift dynamics: zero ellipses, real-axis crossings, certificates.

Under ``H = (x^2 + p^2)/2`` the general zero matrix of
:mod:`stellar_zeros.dynamics` specializes to

    ``X(t) = Lambda0 cos t + L sin t``,

whose diagonal traces ellipses ``lam_j (cos t - 2i g2 sin t)`` (plus small
drift and interaction shifts) and whose off-diagonal part has Gershgorin
radii ``|sin t| * sum_j 1/|lam_i - lam_j|``.  When the initial zeros are
separated by at least ``sqrt((r-1)/|Re g2|)`` (real ``g2``), the discs stay
disjoint, each zero is trapped near its ellipse, and must land on the real
axis at least twice per period; with unbalanced numbers of zeros above and
below the axis at least one crossing happens regardless.  This module
detects and certifies those crossing events.  A zero is real exactly when
``X(t)`` and ``conj(X(t))`` share an eigenvalue, so every crossing time in
the period comes from one QZ solve of an ``r^2 x r^2`` Kronecker pencil,
with no sampling between the times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals

from .errors import InvalidParameter
from .dynamics import (
    QuadraticHamiltonian,
    ZeroTrajectory,
    _min_gap,
    _track_step,
    lax_data,
    match_sets,
    sample_closed_form,
)
from .rootfind import DEFECTIVE_TOL, _cluster
from .states import StellarState
from .wavefunction import WavefunctionForm, build_wavefunction

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


def phase_trajectory(
    zeros0, g2_0: complex, g1_0: complex = 0.0, samples: int = 513
) -> ZeroTrajectory:
    """Closed-form phase-shift trajectory over one full period ``[0, 2 pi]``.

    This is :func:`~stellar_zeros.dynamics.sample_closed_form` at
    ``H = (x^2 + p^2)/2``: each sample costs one small eigen-solve plus the
    tracker's rare bisection steps, and the Gaussian coefficients ride along
    in closed form.
    """
    if samples < 257:
        raise InvalidParameter("phase trajectories need at least 257 samples")
    return sample_closed_form(
        WavefunctionForm(g2_0, g1_0, 0.0, zeros0, 1.0),
        QuadraticHamiltonian.phase_shift(),
        np.linspace(0.0, 2.0 * math.pi, samples),
    )


def _pencil_times(lax) -> np.ndarray:
    """Sorted times in ``[0, 2 pi)`` where ``X(t)`` and its conjugate share an eigenvalue.

    That is where ``K(t) = cos t K0 + sin t K1``, with ``K = M (x) I - I (x)
    conj(M)`` built from ``M = Lambda0`` and ``M = L``, is singular: one QZ
    solve of the pencil ``(K0, -K1)`` whose real eigenvalues are ``tan t``.
    """
    lambda0, lmat, _ = lax.terms
    eye = np.eye(lax.rank)
    k0 = np.kron(lambda0, eye) - np.kron(eye, lambda0.conj())
    k1 = np.kron(lmat, eye) - np.kron(eye, lmat.conj())
    alpha, beta = eigvals(k0, -k1, homogeneous_eigvals=True)
    # w = (beta + i alpha)/(beta - i alpha) = e^{2it} for a real root
    # tan t = alpha/beta.  A vanishing denominator marks the singular part
    # of the pencil (alpha ~ beta ~ 0, a zero pinned on the axis) or a root
    # far off the unit circle; both are dropped.
    num, den = beta + 1j * alpha, beta - 1j * alpha
    keep = np.abs(den) > DEFECTIVE_TOL * np.abs([k0, k1]).max(initial=0.0)
    # A double root (mirror zeros crossing at the same t) splits by about
    # sqrt(eps) off the circle; its mean lies back on it to roundoff.
    w = np.array(_cluster((num[keep] / den[keep]).tolist(), DEFECTIVE_TOL))
    half = np.angle(w[np.abs(np.abs(w) - 1.0) <= DEFECTIVE_TOL]) / 2.0 % math.pi
    return np.unique(np.concatenate([half, half + math.pi]) % (2.0 * math.pi))


def detect_crossings(traj: ZeroTrajectory) -> list:
    """Real-axis crossing events of every tracked zero over one phase-shift period.

    Every time at which some zero is real is a root of one Kronecker-pencil
    eigenproblem (:func:`_pencil_times`; Horn & Johnson, *Topics in Matrix
    Analysis*, 1991, sec. 4.4).  The sampled zeros just before each such
    time are carried to it by the trajectory's tracker, and every zero whose
    imaginary part is then within ``REAL_TOL`` of the axis gives one event
    at its real part.  A zero whose imaginary part stays inside 1e-12 at
    every sample is reported once with the ``always_real`` flag instead.
    The trajectory must be a closed-form phase-shift trajectory sampled over
    ``[0, 2 pi]`` at 256 or more times; the floor keeps that reading honest,
    since on a 2-sample grid ``X(0) = X(2 pi)`` and a zero real at t = 0
    would read as pinned.
    """
    lax = traj.lax
    if lax is None or lax.omega2 != 1.0 or np.any(lax.terms[2]):
        raise InvalidParameter("crossing detection needs a closed-form phase-shift trajectory")
    if traj.times.size < 256:
        raise InvalidParameter("crossing detection needs at least 256 samples")
    if traj.times[0] != 0.0 or traj.times[-1] < 2.0 * math.pi:
        raise InvalidParameter("crossing detection needs samples over [0, 2 pi]")
    pinned = np.all(np.abs(traj.paths.imag) < IM_BAND, axis=1)
    events = [
        CrossingEvent(k, 0.0, float(traj.paths[k, 0].real), "always_real")
        for k in np.flatnonzero(pinned).tolist()
    ]
    for t in _pencil_times(lax).tolist():
        i = int(np.searchsorted(traj.times, t, side="right")) - 1
        zs = _track_step(traj.paths[:, i], float(traj.times[i]), t, traj.zeros_at)
        scale = REAL_TOL * max(1.0, float(np.max(np.abs(zs))))
        for k in np.flatnonzero(~pinned & (np.abs(zs.imag) <= scale)).tolist():
            events.append(CrossingEvent(k, t, float(zs[k].real)))
    events.sort(key=lambda e: (e.t_star, e.zero_index))
    return events


def gershgorin_check(
    zeros0, g2_0: complex, t_samples: int = 256, g1_0: complex = 0.0
) -> GershgorinReport:
    """Disc-separation report for the phase-shift zero matrix.

    The certified verdict requires ``Im g2 = 0`` (the separation threshold
    ``sqrt((r-1)/|Re g2|)`` is derived for real Gaussian exponents); the
    discs are those of the exact zero matrix ``X(t) = Lambda0 cos t + L sin t``:
    centers ``lam_j cos t + L_jj sin t``, which include the interaction
    contribution that the plain ellipse picture ignores, and radii
    ``|sin t| sum_{m != j} |L_jm|``.
    """
    zeros0 = [complex(z) for z in zeros0]
    r = len(zeros0)
    ts = np.linspace(0.0, 2.0 * math.pi, max(2, t_samples), endpoint=False)
    threshold = math.sqrt(max(r - 1, 0) / abs(complex(g2_0).real))
    if r < 2:
        radii = np.zeros((r, ts.size))
        return GershgorinReport(ts, radii, math.inf, threshold, True, True,
                                abs(complex(g2_0).imag) <= 1e-12)
    wf = WavefunctionForm(g2_0, g1_0, 0.0, zeros0, 1.0)
    lambda0, lmat, _ = lax_data(wf, QuadraticHamiltonian.phase_shift()).terms  # kappa = 0
    off = np.abs(lmat)
    np.fill_diagonal(off, 0.0)
    radii = np.abs(np.sin(ts))[None, :] * off.sum(axis=1)[:, None]
    centers = (
        np.diag(lambda0)[:, None] * np.cos(ts)[None, :]
        + np.diag(lmat)[:, None] * np.sin(ts)[None, :]
    )
    disjoint = True
    for i in range(r):
        for j in range(i + 1, r):
            sep = np.abs(centers[i] - centers[j]) - radii[i] - radii[j]
            if np.min(sep) <= 0:
                disjoint = False
    min_sep = _min_gap(zeros0)
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

    The phase-shift zero matrix satisfies ``X(t + pi) = -X(t)``, so the
    zero multisets must match under negation; for closed-form trajectories
    the returned distance is at roundoff level (contract: below 1e-8).
    """
    if traj.rank == 0:
        return 0.0
    _, dists = match_sets(traj.zeros_at(t), -traj.zeros_at(t + math.pi))
    return float(np.max(dists)) if dists.size else 0.0
