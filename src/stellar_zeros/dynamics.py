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
Calogero-Moser system (Moser 1975; Olshanetsky & Perelomov 1981), solved
here without the ODE.  The state alone gives the zeros' positions and
momenta: the pair ``X0 = diag(lam)`` and ``P0``, with ``i/(lam_j - lam_k)``
off the diagonal and ``-i (2 g2 lam_k + g1 + sum_{m!=k} 1/(lam_k - lam_m))``
on it, which obeys ``[X0, P0] = i(11^T - I)`` (Kazhdan, Kostant & Sternberg
1978); the Gaussian is the line ``p = k x + m``, ``k = -2i g2``, ``m = -i g1``.
H moves both by its classical flow F, the affine map of ``(x, p, 1)`` under
``dx/dt = 2Bp + Cx + E`` and ``dp/dt = -2Ax - Cp - D``::

    F = [[c + sC, 2Bs, sE + q kappa], [-2As, c - sC, -sD + q (CD - 2AE)], [0, 0, 1]]
    c = cos(omega t),  s = sin(omega t)/omega,  q = (1 - cos(omega t))/omega^2

The zeros at time t are the eigenvalues of ``F11 X0 + F12 P0 + F13 I`` and
the line goes to ``k' = (F21 + F22 k)/(F11 + F12 k)``,
``m' = F22 m + F23 - k'(F12 m + F13)``.  ``c``, ``s`` and ``q`` are entire in
``omega^2``, so ``omega^2 = 0`` and ``B = 0`` need no special case.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .errors import (
    DegenerateInitialZeros,
    InvalidParameter,
    StepFailure,
    TrackingAmbiguity,
    ZeroCollision,
)
from .rootfind import _min_gap, _scipy_module, eigenvalues_small
from .wavefunction import WavefunctionForm

__all__ = [
    "QuadraticHamiltonian",
    "ZeroTrajectory",
    "ZeroPair",
    "second_order_acceleration",
    "integrate",
    "zero_pair",
    "closed_form_matrix",
    "closed_form",
    "sample_closed_form",
    "matching_distance",
]

COLLISION_GAP = 1e-9
RTOL, ATOL = 1e-10, 1e-12  # integrate's relative and absolute tolerances
# SciPy's step controller (scipy.integrate._ivp.rk): safety factor and step-size change bounds,
# and DOP853's error estimator order.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ORDER = 0.9, 0.2, 10, 7


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
            try:
                val = float(getattr(self, name))
            except OverflowError:  # an integer past the double range
                val = math.inf
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

    def as_tuple(self):
        return (self.A, self.B, self.C, self.D, self.E, self.F)


@dataclass
class ZeroTrajectory:
    """Continuity-matched zero paths plus the Gaussian coefficient track.

    A closed-form trajectory keeps its state's ``pair`` and the Hamiltonian
    ``H`` that moves it; an integrated one has ``None`` for both.
    """

    times: np.ndarray
    paths: np.ndarray       # (rank, n_times) complex
    gauss_path: np.ndarray  # (2, n_times) complex: g2(t), g1(t)
    pair: ZeroPair | None = field(default=None, repr=False)
    H: QuadraticHamiltonian | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.paths.shape[0]

    def zeros_at(self, t) -> np.ndarray:
        """Unordered zero multiset at time t (``(..., rank)`` at an array of times)."""
        if self.pair is None:
            raise InvalidParameter("zeros off the grid need a closed-form trajectory")
        return _zeros_at(self.pair, self.H, t)


@dataclass(frozen=True)
class ZeroPair:
    """Zero positions ``X0``, momenta ``P0`` and the Gaussian line ``p = k x + m`` of one state.

    ``terms`` stacks ``X0``, ``P0`` and the identity, so that ``F11 X0 + F12 P0 + F13 I``
    is one product for a whole array of times.  :func:`zero_pair` shares one pair among
    all its callers on a form, so ``terms`` is read-only.
    """

    terms: np.ndarray  # (3, rank, rank): X0 (diagonal), P0, I
    k: complex
    m: complex


def second_order_acceleration(zeros, H: QuadraticHamiltonian):
    """Decoupled second-order accelerations of the zeros.

    :class:`InvalidParameter` if a zero is not finite, :class:`DegenerateInitialZeros` if two
    are exactly equal.
    """
    try:
        zeros = [complex(z) for z in zeros]
    except OverflowError:  # an integer past the double range
        raise InvalidParameter("zeros must be finite") from None
    if not all(map(cmath.isfinite, zeros)):
        raise InvalidParameter("zeros must be finite")
    A, B, C, D, E, _ = H.as_tuple()
    const = C * E - 2.0 * B * D
    out = []
    try:
        for k, lk in enumerate(zeros):
            s = sum((lk - lm) ** -3 for m, lm in enumerate(zeros) if m != k)
            out.append((C * C - 4.0 * A * B) * lk + const + 8.0 * B * B * s)
    except ZeroDivisionError:
        raise DegenerateInitialZeros("zeros must be pairwise distinct") from None
    return out


# _rhs's two functions at one rank, as straight-line code: `{zeros}` names the zeros l0, l1, ...,
# `{pairs}` assigns q{j}_{k} = 1.0 / (l{j} - l{k}) for each j < k and `{rows}` lists the zeros'
# rows.  `bind` closes them over one Hamiltonian's constants.
_RHS_TEMPLATE = """\
def bind(b4, b2, drift_b, C, c2, e2, ia, id_, E):
    def f(t, y):
        a, b, {zeros} = y if isinstance(y, list) else y.tolist()
{body}
    def stage(y, dy, hz):
        ya, yb, {y_zeros} = y
        da, db, {dy_zeros} = dy
        a = ya + da * hz
        b = yb + db * hz
{inputs}
{body}
    return f, stage
"""
_RHS_BODY = """\
        coef, drift = C - b4 * a, drift_b * b + E
        try:
{pairs}
            return [b4 * a * a - c2 * a - ia, b4 * a * b - C * b - e2 * a - id_, {rows}]
        except ZeroDivisionError:  # two zeros exactly equal
            return [NAN] * {size}"""


@cache
def _rhs_factory(rank: int):
    """``_RHS_TEMPLATE`` filled in and compiled at ``rank``: its ``bind`` (see :func:`_rhs`)."""
    ks = range(rank)
    pairs = "\n".join(f"            q{j}_{k} = 1.0 / (l{j} - l{k})" for k in ks for j in range(k))
    # Row k's interaction sum, m ascending: 1/(l_k - l_m) is -q{m}_{k} below k and q{k}_{m} above.
    interaction = [" ".join(f"- q{m}_{k}" if m < k else f"+ q{k}_{m}" for m in ks if m != k)
                   for k in ks]
    rows = ", ".join(f"l{k} * coef + drift - b2 * (0j {s})" for k, s in zip(ks, interaction))
    body = _RHS_BODY.format(pairs=pairs, rows=rows, size=rank + 2)
    source = _RHS_TEMPLATE.format(
        zeros=", ".join(f"l{k}" for k in ks), y_zeros=", ".join(f"y{k}" for k in ks),
        dy_zeros=", ".join(f"d{k}" for k in ks), body=body,
        inputs="\n".join(f"        l{k} = y{k} + d{k} * hz" for k in ks))
    namespace = {"NAN": complex(math.nan, math.nan)}
    exec(compile(source, f"<right-hand side, rank {rank}>", "exec"), namespace)
    return namespace["bind"]


def _rhs(H: QuadraticHamiltonian, rank: int):
    """The system's right-hand side on the packed state [g2, g1, zeros...]: ``(f, stage)``.

    ``f(t, y)`` takes ``y`` as a list of Python complex numbers or as an
    array; ``stage(y, dy, hz)`` is ``f`` at ``[p + q * hz for p, q in zip(y,
    dy)]``, the input of a Runge-Kutta stage, formed inside it.  Both return a
    list, all NaN on an exact collision: NaN makes the integrator's error norm
    NaN, so the step is rejected and retried shorter.

    Both are straight-line code, generated and compiled once per rank
    (:func:`_rhs_factory`) and bound to H's constant products here.  Each pair
    takes one division, ``q_jk = 1.0 / (l_j - l_k)`` for ``j < k``, and row k
    sums its interaction from ``0j`` in ascending m, subtracting ``q_mk`` below
    k and adding ``q_km`` above.  That is bitwise the double loop
    ``s += 1.0 / (l_k - l_m)``: ``l_k - l_m`` is exactly ``-(l_m - l_k)``,
    CPython's complex division only changes its sign when its divisor is
    negated, and ``s - x`` is ``s + (-x)`` in IEEE arithmetic.  Two equal
    entries of ``y`` are a tie, whether or not they are one object.
    """
    A, B, C, D, E, _ = H.as_tuple()
    # The interaction enters with -2iB: verified against the exactly
    # solvable two-zero phase-shift evolution and the Fock-basis oracle
    # (the opposite sign breaks agreement with the closed form's P0 and
    # with the oracle at rank >= 2).
    return _rhs_factory(rank)(4j * B, 2j * B, -2j * B, C, 2.0 * C, 2.0 * E, 1j * A, 1j * D, E)


def _real_times(t) -> np.ndarray:
    """``t`` as a float array, or :class:`InvalidParameter` if it is not real: complex dtypes too,
    which NumPy would cast to their real parts with only a warning."""
    ts = np.asarray(t)
    if ts.dtype.char != "d":  # off the float64 path: another real dtype, or not a real number
        try:
            if ts.dtype.kind == "c":
                raise TypeError
            ts = ts.astype(float)
        except OverflowError:  # an integer past the double range
            raise InvalidParameter("time t is not a finite double") from None
        except (TypeError, ValueError):
            raise InvalidParameter(f"time t={t!r} is not a real number") from None
    return ts


def _time_grid(t) -> np.ndarray:
    """``t`` as a float array, or :class:`InvalidParameter` unless it is a sampling grid."""
    ts = _real_times(t)
    if ts.ndim == 1 and ts.size and np.isfinite(ts).all() and ts[0] >= 0 and (np.diff(ts) > 0).all():
        return ts
    raise InvalidParameter("time grid must be finite, 1-d and strictly increasing from t >= 0")


def integrate(wf: WavefunctionForm, H: QuadraticHamiltonian, t_grid) -> ZeroTrajectory:
    """Integrate the coupled system, sampling on ``t_grid``.

    One pass of Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, *Solving
    ODEs I*, 1993, II.5-6) over ``[0, t_grid[-1]]`` at ``RTOL``/``ATOL``.  The
    package runs SciPy's DOP853 in its own loop: the tableau read from SciPy's
    coefficients file (:func:`_dop853`), SciPy's first step after ``f(0, y0)``
    (:func:`_first_step`) and its step controller, with SciPy's arithmetic in
    SciPy's order, so the steps, the right-hand-side calls and the samples are
    bitwise those of stepping with SciPy's ``DOP853.step`` and calling its
    interpolants; ``scipy.integrate`` itself is never imported.  Each accepted step
    that covers grid samples keeps its ends and a copy of its stages, the raw rows
    of its 7th-order dense output (II.6); after the last step :func:`_dense_samples`
    builds every interpolant and evaluates every sample in one vectorized pass.
    ``t_grid`` must be finite and strictly increasing from ``t >= 0``; a
    sample at ``t = 0`` is the initial state itself.  The initial zeros must
    be pairwise separated by more than 1e-6.  ``g0`` is not integrated (the
    phase equation is not needed for zeros); trajectories carry ``(g2, g1)``
    only.
    """
    ts = _time_grid(t_grid)
    if _min_gap(wf.zeros) <= 1e-6:
        raise DegenerateInitialZeros("initial zeros closer than 1e-6")
    y = np.array([wf.g2, wf.g1, *wf.zeros], dtype=complex)
    out = np.empty((y.size, ts.size), dtype=complex)
    start = int(ts[0] == 0.0)
    out[:, :start] = y[:, None]
    (fun, stage), t, t_end = _rhs(H, len(wf.zeros)), 0.0, float(ts[-1])
    f0 = np.asarray(fun(t, y), dtype=complex)
    h_abs = _first_step(fun, y, f0, t_end)
    # The tableau's rows are cast to complex once, exactly, as np.dot would cast
    # them at every stage.  K[:13] holds a step's stages and K[13:] the
    # interpolant's extra ones; each stage reads a fixed view of those before it.
    tab = _dop853()
    b, e3, e5, d = (tab[x].astype(complex) for x in ("B", "E3", "E5", "D"))
    K = np.empty((d.shape[1], y.size), dtype=complex)
    last, exponent = tab["n_stages"], -1 / (_ORDER + 1)
    # The system is autonomous, so a stage needs no time, only its input (see _rhs).
    stages = [(K[:s].T, a[:s].astype(complex), s) for s, a in enumerate(tab["A"]) if s]
    extra = [(K[:s].T, a[:s].astype(complex), s) for s, a in enumerate(tab["A_EXTRA"], last + 1)]
    kt_b, kt_e = K[:last].T, K[: last + 1].T
    K[0] = f0
    ry, y, grid = np.abs(y) * RTOL, y.tolist(), ts.tolist()
    steps, owned, i = [], [], start  # covering steps' raw rows (see _dense_samples), sample counts
    # A NaN or overflowing stage (a collision, a hyperbolic blow-up) makes the
    # error norm NaN or inf, which rejects the step; samples are checked after.
    with np.errstate(invalid="ignore", over="ignore"):
        while i < ts.size:
            # SciPy's RungeKutta._step_impl, rk_step and DOP853._estimate_error_norm; y + dot * h
            # on Python numbers, h complex as NumPy casts it, rounds as NumPy's does.  |y| * rtol
            # carries over: max(|y|, |y_new|) * rtol is the max of the products.
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while not (failed := h_abs < min_step):  # until a step is accepted or too small
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                h_abs, hz = abs(h), complex(h)
                for kt, a, s in stages:
                    K[s] = stage(y, np.dot(kt, a).tolist(), hz)
                y_new = [p + hz * q for p, q in zip(y, np.dot(kt_b, b).tolist())]
                K[last] = fun(t + h, y_new)
                scale = ATOL + np.maximum(ry, ry_new := np.abs(y_new) * RTOL)
                err5 = np.dot(kt_e, e5) / scale
                err3 = np.dot(kt_e, e3) / scale
                # np.linalg.norm's own arithmetic, squared as SciPy squares it.
                norm5 = math.sqrt(err5.real.dot(err5.real) + err5.imag.dot(err5.imag)) ** 2
                norm3 = math.sqrt(err3.real.dot(err3.real) + err3.imag.dot(err3.imag)) ** 2
                if norm5 == 0 and norm3 == 0:
                    error_norm = 0.0
                else:
                    error_norm = abs(h) * norm5 / math.sqrt((norm5 + 0.01 * norm3) * len(y))
                if error_norm < 1:
                    factor = _MAX_FACTOR if error_norm == 0 else min(
                        _MAX_FACTOR, _SAFETY * error_norm ** exponent)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** exponent)
                rejected = True
            if not failed:
                t_old, y_old, t, y, ry = t, y, t_new, y_new, ry_new
            lam = y[2:]
            gap = min([abs(p - q) for k, p in enumerate(lam) for q in lam[:k]], default=math.inf)
            if failed and gap < 1e-6:
                raise ZeroCollision(f"step collapse near zero collision at t~{t:.6g}", t_estimate=t)
            if failed:
                raise StepFailure(f"step size underflow at t={t:.6g}")
            if gap <= COLLISION_GAP:
                raise ZeroCollision(f"zero collision detected at t~{t:.6g}", t_estimate=t)
            if t >= grid[i]:
                # SciPy's DOP853._dense_output_impl, before K[0] takes the new f.
                for kt, a, s in extra:
                    K[s] = stage(y_old, np.dot(kt, a).tolist(), hz)
                steps.append((t_old, h, y_old, y, K.copy()))
                j = bisect_right(grid, t, i)
                owned.append(j - i)
                i = j
            K[0] = K[last]
        if steps:
            _dense_samples(steps, owned, d, last, ts[start:], out[:, start:])
    out = _finite(out, ts, "integrated solution", axis=0)
    return ZeroTrajectory(ts, out[2:], out[:2])


@cache
def _dop853() -> dict:
    """SciPy's DOP853 tableau as :func:`integrate` reads it (no stage times), by attribute name.

    Loaded from SciPy's coefficients file by path, which imports only NumPy, and sliced as
    ``scipy.integrate._ivp.rk`` slices it; ``scipy.integrate`` itself would
    load ``scipy.optimize`` and ``scipy.special``.
    """
    c = _scipy_module("integrate._ivp.dop853_coefficients")
    n, a = c.N_STAGES, c.A
    return {"A": a[:n, :n], "B": c.B, "E3": c.E3, "E5": c.E5, "D": c.D, "A_EXTRA": a[n + 1:],
            "n_stages": n}


def _first_step(fun, y0, f0, t_end: float) -> float:
    """SciPy's ``select_initial_step`` (Hairer, Norsett & Wanner, II.4) from 0 up to ``t_end``.

    ``y0`` and ``f0 = fun(0, y0)`` are complex arrays; the tolerances are
    ``RTOL``/``ATOL``, with no step bound.  SciPy's arithmetic in SciPy's
    order, so the step is bitwise its solver's ``h_abs``.
    """
    if t_end == 0.0:
        return 0.0
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = (np.linalg.norm(x / scale) / x.size ** 0.5 for x in (y0, f0))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    df = np.asarray(fun(h0, y0 + h0 * f0), dtype=complex) - f0
    d2 = np.linalg.norm(df / scale) / df.size ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), t_end)
    return min(100 * h0, (0.01 / max(d1, d2)) ** (1 / (_ORDER + 1)), t_end)


def _dense_samples(steps, owned, d, last: int, ts, y) -> None:
    """Fill ``y`` (components x samples) from the DOP853 interpolants of ``steps``.

    ``steps[k]`` is one step's raw rows ``(t_old, h, y_old, y, K)``, ``K`` its
    stages and the interpolant's, with the step's last stage at ``K[last]``; it
    owns the next ``owned[k]`` samples, in order.  All steps' ``D K`` come from
    one stacked product, as BLAS forms each step's alone, and all their ``F``
    from SciPy's ``DOP853._dense_output_impl`` elementwise operations at once;
    then, as ``Dop853DenseOutput._call_impl`` in its order: from
    ``x = (t - t_old)/h``, take the rows of ``F`` in reverse, alternately
    ``y += f; y *= x`` and ``y += f; y *= 1 - x``, then add ``y_old``.  So
    every sample is bitwise what calling its step's interpolant gives.
    """
    owner = np.repeat(np.arange(len(steps)), owned)
    t_old, h, y_old, y_new, stages = (np.array(x) for x in zip(*steps))
    x, h, delta = (ts - t_old[owner]) / h[owner], h[:, None, None], (y_new - y_old)[:, None]
    first, final = stages[:, :1], stages[:, last : last + 1]
    # (powers, components, steps): each power's rows gather into one reused buffer.  The
    # owners are in range by construction; mode "raise" would copy through a temporary.
    F = np.concatenate([delta, h * first - delta, 2 * delta - h * (final + first),
                        h * np.matmul(d, stages)], axis=1).transpose(1, 2, 0)
    buf = np.empty_like(y)
    y.fill(0)
    for k, f in enumerate(F[::-1]):
        y += np.take(f, owner, axis=1, out=buf, mode="clip")
        y *= x if k % 2 == 0 else 1 - x
    y += np.take(y_old.T, owner, axis=1, out=buf, mode="clip")


def _finite(x: np.ndarray, t, what: str, axis) -> np.ndarray:
    """``x``, or :class:`InvalidParameter` at the first time of ``t`` where it is not finite.

    ``axis`` lists the axes of ``x`` other than time.  Only a hyperbolic flow overflows,
    unless the time itself is not finite.
    """
    if not np.isfinite(x).all():
        bad = np.ravel(t)[np.argmin(np.isfinite(x).all(axis=axis))]
        if not math.isfinite(bad):
            raise InvalidParameter(f"time t={bad} is not finite")
        raise InvalidParameter(f"{what} overflows at t={bad:.6g}")
    return x


def zero_pair(wf: WavefunctionForm) -> ZeroPair:
    """The matrix pair ``(X0, P0)`` and the Gaussian line of ``wf`` (see the module docstring).

    Built once per form object and kept on it, so every call on ``wf`` returns the same
    pair, with read-only ``terms``.  The key is the object, never its value: forms equal
    under ``==``, as with zeros ``0.0`` and ``-0.0``, can differ in their pairs' bits.
    """
    pair = wf.__dict__.get("_zero_pair")
    if pair is not None:
        return pair
    lam = np.array(wf.zeros, dtype=complex)
    diff, eye = lam[:, None] - lam, np.eye(lam.size)
    diff.flat[:: lam.size + 1] = np.inf  # the diagonal: only pairs can fail the test, and i/inf = 0
    if np.abs(diff).min(initial=np.inf) <= COLLISION_GAP:
        raise DegenerateInitialZeros("initial zeros must be pairwise distinct")
    p0, k, m = 1j / diff, -2j * wf.g2, -1j * wf.g1
    # The Gaussian line's momentum k lam + m, less row k's sum of i/(lam_k - lam_m).
    p0.flat[:: lam.size + 1] = k * lam + m - p0.sum(axis=1)
    terms = np.array([eye * lam, p0, eye])
    terms.flags.writeable = False
    pair = ZeroPair(terms, k, m)
    object.__setattr__(wf, "_zero_pair", pair)  # past the frozen dataclass's guard
    return pair


def _classical_flow(H: QuadraticHamiltonian, t) -> tuple:
    """Row ``(F11, F12, F13)`` of H's affine flow and its ``(c, s, q)``, entries shaped like ``t``.

    The flow is linear in ``c = cos theta``, ``s = t sinc theta`` and
    ``q = (t^2/2) sinc^2(theta/2)``, with ``theta = |omega| t``: nothing
    cancels as ``omega^2 -> 0`` or ``t -> 0``, and ``omega^2 < 0`` makes the
    three hyperbolic (``cosh``, ``sinh``).  The zero matrix needs only the
    first row; :func:`_gaussian_at` forms the second from ``(c, s, q)``.  The
    callers ignore overflow in ``np.errstate``; :func:`_finite` finds it in
    their products.
    """
    t = np.asarray(t, dtype=float)[()]  # one time: a NumPy scalar, 10x cheaper than 0-d
    sin, cos = (np.sin, np.cos) if H.omega2 >= 0 else (np.sinh, np.cosh)
    theta = math.sqrt(abs(H.omega2)) * t
    y = np.where(theta, theta, 1e-20)[()]  # sin(y)/y is exactly 1 at y = 1e-20
    half = 0.5 * y
    c, s, q = cos(theta), t * (sin(y) / y), 0.5 * t * t * (sin(half) / half) ** 2
    _, B, C, D, E, _ = H.as_tuple()
    return (c + s * C, 2.0 * B * s, s * E + q * (C * E - 2.0 * B * D)), (c, s, q)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gaussian_at(pair: ZeroPair, H: QuadraticHamiltonian, t) -> np.ndarray:
    """``(g2, g1) = (i k'/2, i m')`` at time(s) ``t``, on a leading axis: the flow moves the line."""
    (f11, f12, f13), (c, s, q) = _classical_flow(H, t)
    A, _, C, D, E, _ = H.as_tuple()
    f21, f22, f23 = -2.0 * A * s, c - s * C, q * (C * D - 2.0 * A * E) - s * D
    k = (f21 + f22 * pair.k) / (f11 + f12 * pair.k)
    m = f22 * pair.m + f23 - k * (f12 * pair.m + f13)
    return _finite(np.array([0.5j * k, 1j * m]), t, "Gaussian flow", axis=0)


@np.errstate(over="ignore", invalid="ignore")
def closed_form_matrix(pair: ZeroPair, H: QuadraticHamiltonian, t) -> np.ndarray:
    """Matrix ``F11 X0 + F12 P0 + F13 I`` whose eigenvalues are the zeros at time t.

    An array of times gives the stack ``(..., rank, rank)``.
    """
    ts = _real_times(t)
    row = np.array(_classical_flow(H, ts)[0]).reshape(3, -1).T  # (F11, F12, F13) per time
    mats = (row @ pair.terms.reshape(3, -1)).reshape(*ts.shape, *pair.terms.shape[1:])
    if not mats.size:  # rank 0: no entry carries a time that is not finite
        _finite(ts, ts, "time", axis=())
    return _finite(mats, ts, "zero matrix", axis=(-2, -1))


def _zeros_at(pair: ZeroPair, H: QuadraticHamiltonian, t) -> np.ndarray:
    """Unordered zero multiset(s) of the matrix solution at time(s) t."""
    return eigenvalues_small(closed_form_matrix(pair, H, t))


def closed_form(wf: WavefunctionForm, H: QuadraticHamiltonian, t):
    """Zero multiset at time t from the matrix solution; n times give an ``(n, rank)`` stack."""
    return _zeros_at(zero_pair(wf), H, t)


def _assignment(cost: list) -> list:
    """Column of each row in a minimum-cost assignment of the square matrix ``cost`` (nested lists).

    The shortest augmenting path of Crouse (IEEE TAES 52(4), 2016) as SciPy's
    ``linear_sum_assignment`` runs it: each path scans the remaining columns
    from the last and takes the first lowest reduced cost, on a tie an
    unassigned column, so the permutation is SciPy's.
    """
    n = len(cost)
    u, v, path, col4row, row4col = [0.0] * n, [0.0] * n, [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        short, remaining, seen_rows, seen_cols = [math.inf] * n, list(range(n - 1, -1, -1)), [], []
        i, low = cur, 0.0
        while i != -1:  # until the path reaches an unassigned column, the sink
            seen_rows.append(i)
            row, ui, base, index, lowest = cost[i], u[i], low, -1, math.inf
            for it, j in enumerate(remaining):
                r = base + row[j] - ui - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                else:
                    r = short[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest, index = r, it
            if lowest == math.inf:
                raise InvalidParameter("pair distances overflow")
            low, sink = lowest, remaining[index]
            seen_cols.append(sink)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row4col[sink]
        u[cur] += low
        for i in seen_rows[1:]:
            u[i] += low - short[col4row[i]]
        for j in seen_cols:
            v[j] -= low - short[j]
        i, j = -1, sink
        while i != cur:  # augment along the path back to cur
            i = path[j]
            row4col[j], col4row[i], j = i, j, col4row[i]
    return col4row


def matching_distance(a, b) -> float:
    """Largest pair distance of a minimum-cost assignment between two equal-size 1-d multisets."""
    try:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
    except OverflowError:  # an integer past the double range
        raise InvalidParameter("multisets must be finite") from None
    if a.ndim != 1 or b.ndim != 1:
        raise InvalidParameter("multisets must be 1-d")
    if a.size != b.size:
        raise InvalidParameter("multisets must have equal size")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidParameter("multisets must be finite")
    cost = np.abs(a[:, None] - b[None, :]).tolist()
    # _track's half-gap rule: then the nearest pairs are the only optimal assignment.  The
    # test is doubled so that a gap overflowing to inf passes no cost above half the largest
    # double, and its 1e-12 margin covers the rounding of the costs and the gap.
    near = max(map(min, cost), default=0.0)
    own = np.abs(a[:, None] - a[None, :]).tolist()
    gap = min((d for k, row in enumerate(own) for d in row[:k]), default=math.inf)
    if 2.0 * near < (1.0 - 1e-12) * gap:
        return near
    return max((row[j] for row, j in zip(cost, _assignment(cost))), default=0.0)


def _track(ts, zs, zeros_at, anchors=None) -> np.ndarray:
    """The zero sets ``zs`` at the times ``ts``, each row ordered like the anchor before it.

    ``zs`` is the already-solved stack ``(len(ts), rank)``.  The rows that
    the mask ``anchors`` marks (by default ``zs[0]`` alone) are in the order
    to keep and each starts a run of increasing times; the other rows are
    unordered.  ``zeros_at`` maps an array of times to unordered zero sets.
    A step is safe when every zero has a nearest successor closer than half
    the smallest gap among the zeros it leaves: those discs are disjoint, so
    each holds one successor, and that pairing is the only optimal
    assignment.  Each pass solves the midpoints of all unsafe steps, in every
    run, at once; an unsafe step of width 1e-9 (an exact collision), or one
    that leaves an exact tie, raises :class:`TrackingAmbiguity` instead of
    guessing.
    """
    ts, zs = np.asarray(ts, dtype=float), np.asarray(zs, dtype=complex)
    if zs.shape[1] < 2:
        return zs
    asked = np.ones(ts.size, dtype=bool)
    anchors = np.arange(ts.size) == 0 if anchors is None else np.asarray(anchors, dtype=bool)
    while True:
        gap = _min_gap(zs[:-1])
        dist = np.abs(zs[:-1, :, None] - zs[1:, None, :])
        # Each zero's nearest successor, and the largest of those distances per step.
        succ = np.argmin(dist, axis=2)
        near = dist.reshape(-1, zs.shape[1])[np.arange(succ.size), succ.ravel()]
        near = near.reshape(succ.shape).max(axis=1)
        bad = np.flatnonzero((near >= 0.5 * gap) & ~anchors[1:])
        if bad.size == 0:
            break
        # Stuck: a step leaving an exact tie never passes, one of width 1e-9 ends in a collision.
        stuck = bad[(gap[bad] == 0) | (ts[bad + 1] - ts[bad] <= 1e-9)]
        if stuck.size:
            j = stuck[0]
            t, g, d = float(ts[j + (gap[j] != 0)]), float(gap[j]), float(near[j])
            msg = f"zero assignment unresolved at t={t:.17g}: displacement {d:.3g}, gap {g:.3g}"
            raise TrackingAmbiguity(msg, t=t, gap=g, displacement=d)
        mid = 0.5 * (ts[bad] + ts[bad + 1])
        ts, zs = np.insert(ts, bad + 1, mid), np.insert(zs, bad + 1, zeros_at(mid), axis=0)
        asked, anchors = np.insert(asked, bad + 1, False), np.insert(anchors, bad + 1, False)
    # The order (where each tracked zero sits in a row) changes only at an anchor or at a
    # step whose nearest successors are not the identity; each run between keeps it.
    ident = np.arange(zs.shape[1])
    change = anchors[1:] | (succ != ident).any(axis=1)
    order = [ident]
    for k in np.flatnonzero(change).tolist():
        order.append(ident if anchors[k + 1] else succ[k][order[-1]])
    run = np.concatenate([[0], np.cumsum(change)])[asked]
    return np.take_along_axis(zs[asked], np.array(order)[run], axis=1)


def sample_closed_form(wf: WavefunctionForm, H: QuadraticHamiltonian, times) -> ZeroTrajectory:
    """Closed-form trajectory on the given times, continuity-matched.

    Eigenvalue orderings are arbitrary, so the grid is solved in one stacked
    eigen-solve and ordered by :func:`_track`, which halves unsafe steps
    until each is safe and raises :class:`TrackingAmbiguity` at an exact
    collision on the grid.  The Gaussian coefficients come from the same
    classical flow on the whole grid at once.
    """
    ts = _time_grid(times)
    pair = zero_pair(wf)
    gauss = _gaussian_at(pair, H, ts)
    later = ts[ts > 0]
    at = partial(_zeros_at, pair, H)
    start = np.asarray(wf.zeros, dtype=complex).reshape(1, -1)
    paths = _track(np.concatenate([[0.0], later]), np.concatenate([start, at(later)]), at)
    return ZeroTrajectory(ts, paths[int(ts[0] > 0) :].T, gauss, pair, H)

