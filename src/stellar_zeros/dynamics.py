"""Zero motion under quadratic Hamiltonians: ODE integration and closed form.

For ``H = A x^2 + B p^2 + C (xp + px)/2 + D x + E p + F`` the Gaussian
exponent coefficients and the wavefunction zeros obey the coupled system
(writing ``a = g2``, ``b = g1``)::

    da/dt       = 4iB a^2 - 2C a - iA
    db/dt       = 4iB a b - C b - 2E a - iD
    dlam_k/dt   = lam_k (C - 4iB a) - 2iB b + E - 2iB sum_{m!=k} 1/(lam_k - lam_m)

which decouples into an inverse-cube pair interaction at second order::

    d2lam_k/dt2 = (C^2 - 4AB) lam_k + CE - 2BD + 8B^2 sum_{m!=k} (lam_k - lam_m)^{-3}

After the affine rescaling ``lam = scale * mu + shift`` with
``scale = (4B^2)^{1/4}`` and ``shift = (CE - 2BD)/omega^2``
(``omega^2 = 4AB - C^2``), the zeros at time t are exactly the eigenvalues
of ``X(t) = scale * (Lambda0 e^{-i omega t} + L sin(omega t)/omega) + shift I``
where ``L`` is the Lax matrix built from the scaled initial positions and
velocities.  Two sign/exponent choices in this formula admit an alternative
reading; the implemented combination is the one that reproduces the
first-order system above (and the independent Fock-basis propagation); the
alternative rotation sign is kept behind ``rotation_sign=+1`` for tests to
show it fails.
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
    UnsupportedHamiltonian,
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
    """Continuity-matched zero paths plus the Gaussian coefficient track."""

    times: np.ndarray
    paths: np.ndarray       # (rank, n_times) complex
    gauss_path: np.ndarray  # (2, n_times) complex: g2(t), g1(t)
    method: str             # "ode" | "closed"
    evaluator: object = field(default=None, repr=False)  # t -> unordered zero ndarray

    @property
    def rank(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True)
class LaxData:
    """Scaled initial data of the matrix solution."""

    Lambda0: np.ndarray
    Lmat: np.ndarray
    omega: complex
    shift: complex
    scale: float

    @property
    def rank(self) -> int:
        return self.Lmat.shape[0]


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
    a, b = complex(g2), complex(g1)
    A, B, C, D, E, _ = H.as_tuple()
    da = 4j * B * a * a - 2.0 * C * a - 1j * A
    db = 4j * B * a * b - C * b - 2.0 * E * a - 1j * D
    dz = []
    # The interaction enters with -2iB: verified against the exactly
    # solvable two-zero phase-shift evolution and the Fock-basis oracle
    # (the opposite sign propagates an inconsistent velocity into the Lax
    # matrix and breaks oracle agreement at rank >= 2).
    for k, lk in enumerate(zeros):
        s = sum(1.0 / (lk - lm) for m, lm in enumerate(zeros) if m != k)
        dz.append(lk * (C - 4j * B * a) - 2j * B * b + E - 2j * B * s)
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


# Dormand-Prince 5(4) tableau.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _rhs_raw(y, H):
    """System rhs on the packed state [g2, g1, zeros...]; never raises."""
    a, b = y[0], y[1]
    A, B, C, D, E, _ = H.as_tuple()
    out = [
        4j * B * a * a - 2.0 * C * a - 1j * A,
        4j * B * a * b - C * b - 2.0 * E * a - 1j * D,
    ]
    lam = y[2:]
    coef = C - 4j * B * a
    drift = -2j * B * b + E
    for k, lk in enumerate(lam):
        s = 0.0 + 0.0j
        for m, lm in enumerate(lam):
            if m != k:
                d = lk - lm
                if d == 0:
                    return None
                s += 1.0 / d
        out.append(lk * coef + drift - 2j * B * s)
    return out


def _dp45(y0, t0, t1, H, rtol, atol, min_gap_guard=True):
    """Advance from t0 to t1, yielding the state at t1.

    Plain Dormand-Prince with PI-free step control; the state is a python
    list of complex (systems here have at most a couple dozen entries).
    """
    n = len(y0)
    y = list(y0)
    t = t0
    span = t1 - t0
    if span <= 0:
        return y
    h = min(0.05, span)
    k1 = _rhs_raw(y, H)
    if k1 is None:
        raise ZeroCollision("zero collision in initial state", t_estimate=t0)
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        if h < 1e-13:
            if min_gap_guard and _min_gap(y[2:]) < 1e-6:
                raise ZeroCollision(
                    f"step collapse near zero collision at t~{t:.6g}", t_estimate=t
                )
            raise StepFailure(f"step size underflow at t={t:.6g}")
        ks = [k1]
        failed = False
        for row in _DP_A:
            ytmp = [
                y[i] + h * sum(row[j] * ks[j][i] for j in range(len(row)))
                for i in range(n)
            ]
            knext = _rhs_raw(ytmp, H)
            if knext is None:
                failed = True
                break
            ks.append(knext)
        if not failed:
            ynew = [
                y[i] + h * sum(_DP_B5[j] * ks[j][i] for j in range(6))
                for i in range(n)
            ]
            k7 = _rhs_raw(ynew, H)
            failed = k7 is None
        if failed:
            h *= 0.25
            continue
        ks.append(k7)
        errsq = 0.0
        for i in range(n):
            e = h * sum(_DP_E[j] * ks[j][i] for j in range(7))
            sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
            errsq += (abs(e) / sc) ** 2
        errnorm = math.sqrt(errsq / n)
        if errnorm <= 1.0:
            t += h
            y = ynew
            k1 = k7  # first-same-as-last
            if min_gap_guard and _min_gap(y[2:]) <= COLLISION_GAP:
                raise ZeroCollision(
                    f"zero collision detected at t~{t:.6g}", t_estimate=t
                )
        factor = 0.9 * errnorm**-0.2 if errnorm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y


def integrate(
    wf: WavefunctionForm,
    H: QuadraticHamiltonian,
    t_grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ZeroTrajectory:
    """Integrate the coupled system, sampling on ``t_grid``.

    ``t_grid`` must increase from 0; the initial zeros must be pairwise
    separated by more than 1e-6.  ``g0`` is not integrated (the phase
    equation is not needed for zeros); trajectories carry ``(g2, g1)`` only.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or abs(ts[0]) > 1e-12 or np.any(np.diff(ts) <= 0):
        raise InvalidParameter("t_grid must increase from 0")
    if _min_gap(wf.zeros) <= 1e-6:
        raise DegenerateInitialZeros("initial zeros closer than 1e-6")
    r = wf.rank
    y = [wf.g2, wf.g1, *wf.zeros]
    paths = np.zeros((r, ts.size), dtype=complex)
    gauss = np.zeros((2, ts.size), dtype=complex)
    gauss[:, 0] = (wf.g2, wf.g1)
    paths[:, 0] = wf.zeros
    for i in range(1, ts.size):
        y = _dp45(y, ts[i - 1], ts[i], H, rtol, atol)
        gauss[:, i] = (y[0], y[1])
        paths[:, i] = y[2:]
    return ZeroTrajectory(ts, paths, gauss, "ode")


def lax_data(wf: WavefunctionForm, H: QuadraticHamiltonian) -> LaxData:
    """Scaled initial positions, velocities and Lax matrix for the closed form."""
    if abs(H.B) < 1e-12:
        raise UnsupportedHamiltonian("closed form needs B != 0")
    w2 = H.omega2
    if abs(w2) < 1e-12:
        raise UnsupportedHamiltonian("closed form needs omega^2 != 0")
    if _min_gap(wf.zeros) <= COLLISION_GAP:
        raise DegenerateInitialZeros("initial zeros must be pairwise distinct")
    omega = cmath.sqrt(complex(w2))
    shift = (H.C * H.E - 2.0 * H.B * H.D) / w2
    scale = (4.0 * H.B * H.B) ** 0.25
    lam = np.array(wf.zeros, dtype=complex)
    _, _, dz = ode_rhs(wf.g2, wf.g1, wf.zeros, H) if wf.rank else (0, 0, [])
    lam_t = (lam - shift) / scale
    vel_t = np.array(dz, dtype=complex) / scale
    r = lam.size
    lmat = np.zeros((r, r), dtype=complex)
    for j in range(r):
        lmat[j, j] = vel_t[j] + 1j * omega * lam_t[j]
        for k in range(r):
            if k != j:
                lmat[j, k] = 1j / (lam_t[j] - lam_t[k])
    if not np.all(np.isfinite(lmat.view(float))):
        raise DegenerateInitialZeros("non-finite Lax matrix entries")
    return LaxData(np.diag(lam_t), lmat, omega, shift, scale)


def closed_form_matrix(lax: LaxData, t: float, rotation_sign: int = -1) -> np.ndarray:
    """Matrix whose eigenvalues are the zeros at time t."""
    if rotation_sign not in (-1, 1):
        raise InvalidParameter("rotation_sign must be -1 or +1")
    rot = cmath.exp(rotation_sign * 1j * lax.omega * t)
    xt = lax.Lambda0 * rot + lax.Lmat * (cmath.sin(lax.omega * t) / lax.omega)
    return lax.scale * xt + lax.shift * np.eye(lax.rank, dtype=complex)


def closed_form(
    wf: WavefunctionForm, H: QuadraticHamiltonian, t: float, rotation_sign: int = -1
):
    """Zero multiset at time t from the matrix solution."""
    if wf.rank == 0:
        if abs(H.B) < 1e-12 or abs(H.omega2) < 1e-12:
            raise UnsupportedHamiltonian("closed form needs B != 0 and omega^2 != 0")
        return []
    lax = lax_data(wf, H)
    return eigenvalues_small(closed_form_matrix(lax, t, rotation_sign))


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
    perm, dists = match_sets(prev, cur)
    if dists.size < 2:
        return cur[perm]
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


def sample_closed_form(
    wf: WavefunctionForm, H: QuadraticHamiltonian, times, rotation_sign: int = -1
) -> ZeroTrajectory:
    """Closed-form trajectory on the given times, continuity-matched.

    Eigenvalue orderings are arbitrary, so consecutive samples are matched
    by optimal assignment.  A step whose largest matched displacement
    reaches half the smallest gap between the previous zeros is bisected
    until every sub-step is safe; a step that stays unsafe down to a width
    of 1e-9 (an exact collision on the grid) raises
    :class:`TrackingAmbiguity`.  The Gaussian coefficients are integrated
    separately (their subsystem does not involve the zeros).
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or np.any(np.diff(ts) <= 0):
        raise InvalidParameter("times must be strictly increasing")
    r = wf.rank
    lax = lax_data(wf, H) if r else None

    def evaluator(t):
        if r == 0:
            return np.zeros(0, dtype=complex)
        return np.asarray(eigenvalues_small(closed_form_matrix(lax, t, rotation_sign)))

    paths = np.zeros((r, ts.size), dtype=complex)
    if r:
        if ts[0] > 0:
            paths[:, 0] = _track_step(np.array(wf.zeros), 0.0, ts[0], evaluator)
        else:
            paths[:, 0] = wf.zeros
        for i in range(1, ts.size):
            paths[:, i] = _track_step(paths[:, i - 1], ts[i - 1], ts[i], evaluator)
    gauss = np.zeros((2, ts.size), dtype=complex)
    y = [wf.g2, wf.g1]
    gauss[:, 0] = y
    start = ts[0]
    if abs(start) > 1e-12:
        y = _dp45(y, 0.0, start, H, 1e-10, 1e-12, min_gap_guard=False)
        gauss[:, 0] = y
    for i in range(1, ts.size):
        y = _dp45(y, ts[i - 1], ts[i], H, 1e-10, 1e-12, min_gap_guard=False)
        gauss[:, i] = y
    return ZeroTrajectory(ts, paths, gauss, "closed", evaluator=evaluator)


def evolve_form(
    wf: WavefunctionForm,
    H: QuadraticHamiltonian,
    t: float,
    phase_reference=None,
) -> WavefunctionForm:
    """Full wavefunction form at time t.

    Zeros come from the closed form when available (``B != 0``,
    ``omega^2 != 0``), otherwise from integrating the full system; the
    Gaussian coefficients always come from their own subsystem; ``g0`` is
    recovered by normalization.  The global phase is left free unless
    ``phase_reference`` (a callable ``z -> psi(z)`` realizing the desired
    convention, typically a Fock-basis propagation) is supplied, in which
    case the phase is aligned at one reference point.
    """
    if t < 0:
        raise InvalidParameter("evolve_form needs t >= 0")
    y = _dp45([wf.g2, wf.g1], 0.0, t, H, 1e-10, 1e-12, min_gap_guard=False)
    g2t, g1t = y
    if wf.rank == 0:
        zeros = []
    else:
        try:
            traj = sample_closed_form(wf, H, [0.0, t] if t > 0 else [0.0])
            zeros = list(traj.paths[:, -1])
        except UnsupportedHamiltonian:
            traj = integrate(wf, H, [0.0, t] if t > 0 else [0.0])
            zeros = list(traj.paths[:, -1])
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
