"""Zero motion under quadratic Hamiltonians: ODE integration and closed form.

For ``H = A x^2 + B p^2 + C (xp + px)/2 + D x + E p + F`` the Gaussian
exponent coefficients and the wavefunction zeros obey the coupled system
(writing ``a = g2``, ``b = g1``)::

    da/dt       = 4iB a^2 - 2C a - iA
    db/dt       = 4iB a b - C b - 2E a - iD
    dlam_k/dt   = lam_k (C - 4iB a) - 2iB b + E - 2iB sum_{m!=k} 1/(lam_k - lam_m)

which decouples into an inverse-cube pair interaction at second order::

    d2lam_k/dt2 = -omega^2 lam_k + kappa + 8B^2 sum_{m!=k} (lam_k - lam_m)^{-3}

with ``omega^2 = 4AB - C^2`` and ``kappa = CE - 2BD``: a harmonic
Calogero-Moser system (Moser 1975; Olshanetsky & Perelomov 1981).  Its
solution is one matrix formula for every such Hamiltonian: the zeros at
time t are exactly the eigenvalues of

    X(t) = Lambda0 c(t) + L s(t) + kappa q(t) I,

    c = cos(omega t),  s = sin(omega t)/omega,  q = (1 - cos(omega t))/omega^2,

where ``Lambda0 = diag(lam)`` and the Lax matrix ``L`` holds the initial
velocities on its diagonal and ``2iB/(lam_j - lam_k)`` off it.  ``c``, ``s``
and ``q`` are entire in ``omega^2``, so ``omega^2 = 0`` and ``B = 0`` need no
special case.  The Gaussian pair follows the same coefficients through the
classical flow ``c I + s M`` of its Riccati equation (see
:func:`_gaussian_flow`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateInitialZeros,
    InvalidParameter,
    StepFailure,
    TrackingAmbiguity,
    ZeroCollision,
)
from .rootfind import eigenvalues_small
from .wavefunction import WavefunctionForm, eval_form

__all__ = [
    "QuadraticHamiltonian",
    "ZeroTrajectory",
    "LaxData",
    "ode_rhs",
    "second_order_acceleration",
    "integrate",
    "lax_data",
    "closed_form_matrix",
    "closed_form",
    "sample_closed_form",
    "evolve_form",
    "match_sets",
    "matching_distance",
]

COLLISION_GAP = 1e-9
RTOL, ATOL = 1e-10, 1e-12  # integrate's relative and absolute tolerances


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Real coefficients of ``A x^2 + B p^2 + C (xp+px)/2 + D x + E p + F``."""

    A: float = 0.0
    B: float = 0.0
    C: float = 0.0
    D: float = 0.0
    E: float = 0.0
    F: float = 0.0

    def __post_init__(self):
        for name in "ABCDEF":
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise InvalidParameter("Hamiltonian coefficients must be finite")
            object.__setattr__(self, name, val)

    @property
    def omega2(self) -> float:
        return 4.0 * self.A * self.B - self.C * self.C

    @classmethod
    def phase_shift(cls) -> "QuadraticHamiltonian":
        """Number operator plus one half: ``(x^2 + p^2)/2``."""
        return cls(A=0.5, B=0.5)

    def negated(self) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(-self.A, -self.B, -self.C, -self.D, -self.E, -self.F)

    def as_tuple(self):
        return (self.A, self.B, self.C, self.D, self.E, self.F)


@dataclass
class ZeroTrajectory:
    """Continuity-matched zero paths plus the Gaussian coefficient track.

    ``lax`` is the matrix solution behind a closed-form trajectory and
    ``None`` for an integrated one.
    """

    times: np.ndarray
    paths: np.ndarray       # (rank, n_times) complex
    gauss_path: np.ndarray  # (2, n_times) complex: g2(t), g1(t)
    lax: LaxData | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.paths.shape[0]

    def zeros_at(self, t: float) -> np.ndarray:
        """Unordered zero multiset at time t from the matrix solution."""
        if self.lax is None:
            raise InvalidParameter("zeros off the grid need a closed-form trajectory")
        return np.array(eigenvalues_small(closed_form_matrix(self.lax, t)), dtype=complex)


@dataclass(frozen=True)
class LaxData:
    """Initial data of the matrix solution ``X(t) = c Lambda0 + s L + q kappa I``.

    ``terms`` stacks ``Lambda0 = diag(initial zeros)``, the Lax matrix ``L``
    (initial velocities on the diagonal, ``2iB/(lam_j - lam_k)`` off it) and
    ``kappa I``; ``omega2`` fixes the coefficients ``c, s, q``.
    """

    terms: np.ndarray  # (3, rank, rank)
    omega2: float

    @property
    def rank(self) -> int:
        return self.terms.shape[1]


def _min_gap(zeros):
    r = len(zeros)
    if r < 2:
        return math.inf
    return min(abs(zeros[j] - zeros[k]) for j in range(r) for k in range(j + 1, r))


def ode_rhs(g2: complex, g1: complex, zeros, H: QuadraticHamiltonian):
    """Right-hand sides ``(dg2, dg1, dzeros)`` of the first-order system."""
    zeros = [complex(z) for z in zeros]
    if _min_gap(zeros) <= COLLISION_GAP:
        raise ZeroCollision("pairwise zero gap at or below 1e-9")
    da, db, *dz = _rhs_raw([complex(g2), complex(g1), *zeros], H)
    return da, db, dz


def second_order_acceleration(zeros, H: QuadraticHamiltonian):
    """Decoupled second-order accelerations of the zeros."""
    zeros = [complex(z) for z in zeros]
    A, B, C, D, E, _ = H.as_tuple()
    const = C * E - 2.0 * B * D
    out = []
    for k, lk in enumerate(zeros):
        s = sum((lk - lm) ** -3 for m, lm in enumerate(zeros) if m != k)
        out.append((C * C - 4.0 * A * B) * lk + const + 8.0 * B * B * s)
    return out


def _rhs_raw(y, H):
    """System rhs on the packed state [g2, g1, zeros...]; NaN on an exact collision.

    NaN makes the integrator's error norm NaN, so the step is rejected and
    retried shorter.
    """
    a, b = y[0], y[1]
    A, B, C, D, E, _ = H.as_tuple()
    out = [
        4j * B * a * a - 2.0 * C * a - 1j * A,
        4j * B * a * b - C * b - 2.0 * E * a - 1j * D,
    ]
    lam = y[2:]
    # The interaction enters with -2iB: verified against the exactly
    # solvable two-zero phase-shift evolution and the Fock-basis oracle
    # (the opposite sign propagates an inconsistent velocity into the Lax
    # matrix and breaks oracle agreement at rank >= 2).
    coef = C - 4j * B * a
    drift = -2j * B * b + E
    for k, lk in enumerate(lam):
        s = 0.0 + 0.0j
        for m, lm in enumerate(lam):
            if m != k:
                d = lk - lm
                if d == 0:
                    return [complex(math.nan, math.nan)] * len(y)
                s += 1.0 / d
        out.append(lk * coef + drift - 2j * B * s)
    return out


def integrate(wf: WavefunctionForm, H: QuadraticHamiltonian, t_grid) -> ZeroTrajectory:
    """Integrate the coupled system, sampling on ``t_grid``.

    One pass of SciPy's DOP853 (Dormand-Prince 8(5,3), Hairer, Norsett &
    Wanner, *Solving ODEs I*, 1993, II.5-6) over ``[0, t_grid[-1]]`` at
    ``RTOL``/``ATOL``; each grid sample comes from the 7th-order dense output
    of the accepted step that covers it.  ``t_grid`` must increase from 0;
    the initial zeros must be pairwise separated by more than 1e-6.  ``g0``
    is not integrated (the phase equation is not needed for zeros);
    trajectories carry ``(g2, g1)`` only.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or abs(ts[0]) > 1e-12 or np.any(np.diff(ts) <= 0):
        raise InvalidParameter("t_grid must increase from 0")
    if _min_gap(wf.zeros) <= 1e-6:
        raise DegenerateInitialZeros("initial zeros closer than 1e-6")
    # Imported here: scipy.integrate costs every importer of the package
    # about 0.05 s and 3 MB, and most never integrate.
    from scipy.integrate import DOP853

    y0 = np.array([wf.g2, wf.g1, *wf.zeros], dtype=complex)
    out = np.empty((y0.size, ts.size), dtype=complex)
    out[:, 0] = y0
    solver = DOP853(
        lambda t, y: _rhs_raw(y.tolist(), H), 0.0, y0, ts[-1], rtol=RTOL, atol=ATOL
    )
    i = 1
    while i < ts.size:
        # A NaN stage (exact collision) makes the error norm NaN, which
        # rejects the step; the NaN arithmetic there is expected.
        with np.errstate(invalid="ignore"):
            failed = solver.step() is not None
        t, gap = solver.t, _min_gap(solver.y[2:])
        if failed and gap < 1e-6:
            raise ZeroCollision(
                f"step collapse near zero collision at t~{t:.6g}", t_estimate=t
            )
        if failed:
            raise StepFailure(f"step size underflow at t={t:.6g}")
        if gap <= COLLISION_GAP:
            raise ZeroCollision(f"zero collision detected at t~{t:.6g}", t_estimate=t)
        j = int(np.searchsorted(ts, t, side="right"))
        if j > i:
            out[:, i:j] = solver.dense_output()(ts[i:j])
            i = j
    return ZeroTrajectory(ts, out[2:], out[:2])


def _flow_coefficients(w2: float, t: float):
    """``(cos wt, sin(wt)/w, (1 - cos wt)/w^2)`` at ``w^2 = w2``, entire in ``w2``.

    With ``theta = w t`` these are ``cos theta``, ``t sin(theta)/theta`` and
    ``(t^2/2) (sin(theta/2)/(theta/2))^2``: nothing cancels as ``w2 -> 0``,
    and ``w2 < 0`` makes ``theta`` imaginary and the three hyperbolic.
    """
    theta = cmath.sqrt(w2) * t
    if not theta:
        return 1.0, t, 0.5 * t * t
    half = 0.5 * theta
    return (
        cmath.cos(theta).real,
        t * (cmath.sin(theta) / theta).real,
        0.5 * t * t * ((cmath.sin(half) / half) ** 2).real,
    )


def _gaussian_flow(g2, g1, H: QuadraticHamiltonian, c, s, q):
    """``(g2, g1)`` at the time(s) whose flow coefficients are ``c, s, q``.

    ``g2 = p/w`` is a Moebius map: ``(p, w) = (c I + s M)(g2_0, 1)`` with
    ``M = [[-C, -iA], [-4iB, C]]`` (``M^2 = -omega^2 I``), the classical flow
    of the Riccati equation.  ``g1 w`` obeys ``(g1 w)' = -2E p - iD w``, so
    ``g1 = (g1_0 - 2E P - iD W)/w`` with ``(P, W) = (s I + q M)(g2_0, 1)``,
    the time integral of ``(p, w)``.
    """
    mg, mw = -H.C * g2 - 1j * H.A, -4j * H.B * g2 + H.C  # M (g2_0, 1)
    w = c + s * mw
    g1t = g1 - 2.0 * H.E * (s * g2 + q * mg) - 1j * H.D * (s + q * mw)
    return (c * g2 + s * mg) / w, g1t / w


def lax_data(wf: WavefunctionForm, H: QuadraticHamiltonian) -> LaxData:
    """``Lambda0 = diag(zeros)``, the Lax matrix and ``kappa = CE - 2BD`` of ``H``."""
    if _min_gap(wf.zeros) <= COLLISION_GAP:
        raise DegenerateInitialZeros("initial zeros must be pairwise distinct")
    lam = np.array(wf.zeros, dtype=complex)
    _, _, vel = ode_rhs(wf.g2, wf.g1, wf.zeros, H)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    lmat = 2j * H.B / diff
    np.fill_diagonal(lmat, vel)
    kappa = H.C * H.E - 2.0 * H.B * H.D
    return LaxData(np.array([np.diag(lam), lmat, kappa * np.eye(lam.size)]), H.omega2)


def closed_form_matrix(lax: LaxData, t: float) -> np.ndarray:
    """Matrix ``c Lambda0 + s L + q kappa I`` whose eigenvalues are the zeros at time t."""
    c, s, q = _flow_coefficients(lax.omega2, t)
    r = lax.rank
    # One complex product rather than three scaled copies: this runs once
    # per sample and per tracking bisection step.
    return (np.array([c, s, q], dtype=complex) @ lax.terms.reshape(3, r * r)).reshape(r, r)


def closed_form(wf: WavefunctionForm, H: QuadraticHamiltonian, t: float):
    """Zero multiset at time t from the matrix solution."""
    return eigenvalues_small(closed_form_matrix(lax_data(wf, H), t))


def match_sets(a, b):
    """Optimal assignment of multiset b onto a; returns (permutation, distances)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise InvalidParameter("multisets must have equal size")
    if a.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(a.size, dtype=int)
    perm[rows] = cols
    return perm, cost[np.arange(a.size), perm]


def matching_distance(a, b) -> float:
    """Largest matched pair distance between two equal-size multisets."""
    _, dists = match_sets(a, b)
    return float(np.max(dists)) if dists.size else 0.0


def _track_step(prev, t0, t1, evaluator):
    """Order evaluator(t1) against prev, bisecting the step while matching is unsafe.

    An assignment is safe when every matched displacement stays below half
    the smallest pairwise gap of ``prev``: then no zero can have been
    matched to a neighbour's successor.  Bisection stops at a step of 1e-9,
    where :class:`TrackingAmbiguity` is raised instead of guessing.
    """
    prev = np.asarray(prev, dtype=complex)
    cur = np.asarray(evaluator(t1), dtype=complex)
    if cur.size < 2:
        return cur
    perm, dists = match_sets(prev, cur)
    gaps = np.abs(prev[:, None] - prev[None, :])
    gaps.flat[:: prev.size + 1] = np.inf
    gap = float(np.min(gaps))
    disp = float(np.max(dists))
    if disp < 0.5 * gap:
        return cur[perm]
    if t1 - t0 <= 1e-9:
        raise TrackingAmbiguity(
            f"zero assignment unresolved at t={t1:.17g}: displacement {disp:.3g}"
            f" against minimum gap {gap:.3g}",
            t=t1,
            gap=gap,
            displacement=disp,
        )
    tm = 0.5 * (t0 + t1)
    mid = _track_step(prev, t0, tm, evaluator)
    return _track_step(mid, tm, t1, evaluator)


def sample_closed_form(wf: WavefunctionForm, H: QuadraticHamiltonian, times) -> ZeroTrajectory:
    """Closed-form trajectory on the given times, continuity-matched.

    Eigenvalue orderings are arbitrary, so consecutive samples are matched
    by optimal assignment.  A step whose largest matched displacement
    reaches half the smallest gap between the previous zeros is bisected
    until every sub-step is safe; a step that stays unsafe down to a width
    of 1e-9 (an exact collision on the grid) raises
    :class:`TrackingAmbiguity`.  The Gaussian coefficients come from their
    own closed-form flow on the whole grid at once.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or ts[0] < 0 or np.any(np.diff(ts) <= 0):
        raise InvalidParameter("times must be strictly increasing from t >= 0")
    lax = lax_data(wf, H)
    c, s, q = np.array([_flow_coefficients(H.omega2, t) for t in ts.tolist()]).T
    gauss = np.array(_gaussian_flow(wf.g2, wf.g1, H, c, s, q))
    traj = ZeroTrajectory(ts, np.zeros((wf.rank, ts.size), dtype=complex), gauss, lax)
    prev, t_prev = np.array(wf.zeros, dtype=complex), 0.0
    for i, t in enumerate(ts.tolist()):
        if t > t_prev:
            prev = _track_step(prev, t_prev, t, traj.zeros_at)
        traj.paths[:, i], t_prev = prev, t
    return traj


def evolve_form(
    wf: WavefunctionForm,
    H: QuadraticHamiltonian,
    t: float,
    phase_reference=None,
) -> WavefunctionForm:
    """Full wavefunction form at time t.

    Zeros come from the matrix solution and the Gaussian coefficients from
    their closed-form flow; ``g0`` is recovered by normalization.  The
    global phase is left free unless ``phase_reference`` (a callable
    ``z -> psi(z)`` realizing the desired convention, typically a Fock-basis
    propagation) is supplied, in which case the phase is aligned at one
    reference point.
    """
    if t < 0:
        raise InvalidParameter("evolve_form needs t >= 0")
    g2t, g1t = _gaussian_flow(wf.g2, wf.g1, H, *_flow_coefficients(H.omega2, t))
    zeros = closed_form(wf, H, t)
    out = WavefunctionForm(g2t, g1t, 0.0, zeros, 1.0).normalized()
    if phase_reference is not None:
        xs = np.linspace(-2.5, 2.5, 11)
        vals = eval_form(out, xs)
        j = int(np.argmax(np.abs(vals)))
        ref = complex(phase_reference(complex(xs[j])))
        cur = complex(vals[j])
        if abs(ref) > 0 and abs(cur) > 0:
            theta = cmath.phase(ref / cur)
            out = WavefunctionForm(
                out.g2, out.g1, out.g0 + 1j * theta, out.zeros, out.leading
            )
    return out
