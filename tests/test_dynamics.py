"""Zero dynamics: coupled ODE system vs the exact matrix solution."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from conftest import (
    distinct_random_state,
    fock_state,
    ode_rhs,
    ring_state,
    wrong_sign_closed_form,
)

from stellar_zeros import dynamics
from stellar_zeros.rootfind import _min_gap
from stellar_zeros import (
    DegenerateInitialZeros,
    InvalidParameter,
    QuadraticHamiltonian,
    StepFailure,
    TrackingAmbiguity,
    WavefunctionForm,
    ZeroCollision,
    build_wavefunction,
    closed_form,
    evolve_fock,
    eval_entire,
    eval_form,
    form_norm_squared,
    integrate,
    matching_distance,
    random_stellar_state,
    sample_closed_form,
    second_order_acceleration,
    stellar_state_from_zeros,
    stellar_to_fock,
    zero_pair,
    zeros_from_fock,
)

HP = QuadraticHamiltonian.phase_shift()
# Outside the old closed form's domain: B = 0 (with C != 0 the zeros still
# move) and omega^2 = 4AB - C^2 = 0 exactly.
H_B0 = QuadraticHamiltonian(A=0.3, C=0.2, D=0.1, E=0.1)
H_W0 = QuadraticHamiltonian(A=0.5, B=0.5, C=1.0, D=0.1, E=-0.1)


def rank2_exact_zero(t):
    """Exact zero path of the state with zeros +-1 under the phase shift."""
    return np.sqrt((1 + np.exp(2j * t)) / 2)


class TestOdeRhs:
    def test_vacuum_is_stationary(self):
        dg2, dg1, dz = ode_rhs(-0.5, 0.0, [], HP)
        assert dg2 == 0
        assert dg1 == 0
        assert dz == []

    def test_fock_one_zero_pinned(self):
        _, _, dz = ode_rhs(-0.5, 0.0, [0.0], HP)
        assert dz == [0.0]

    def test_constant_hamiltonian_freezes_everything(self):
        H = QuadraticHamiltonian(F=2.5)
        dg2, dg1, dz = ode_rhs(-0.5, 0.3, [1.0, -2j], H)
        assert dg2 == 0 and dg1 == 0 and dz == [0.0, 0.0]

    def test_interaction_sign_against_exact_solution(self):
        # zeros +-1 with the vacuum packet: the analytic path gives
        # d(lambda_+)/dt = +i/2 at t = 0 (harmonic +i, interaction -i/2).
        _, _, dz = ode_rhs(-0.5, 0.0, [1.0, -1.0], HP)
        assert abs(dz[0] - 0.5j) < 1e-15
        assert abs(dz[1] + 0.5j) < 1e-15

    def test_collision_raises(self):
        with pytest.raises(ZeroCollision):
            ode_rhs(-0.5, 0.0, [1.0, 1.0 + 1e-12], HP)

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_rhs_equals_the_plain_double_loop(self, rank):
        # Same products in the same operand order, m ascending with k skipped,
        # so the factory's values are the loop's to the last bit.
        rng = np.random.default_rng(rank)
        for _ in range(5):
            H = QuadraticHamiltonian(*rng.normal(size=6))
            y = rng.normal(size=rank + 2) + 1j * rng.normal(size=rank + 2)
            A, B, C, D, E, _ = H.as_tuple()
            a, b, *lam = y.tolist()
            want = [4j * B * a * a - 2.0 * C * a - 1j * A,
                    4j * B * a * b - C * b - 2.0 * E * a - 1j * D]
            for k, lk in enumerate(lam):
                s = 0j
                for m, lm in enumerate(lam):
                    if m != k:
                        s += 1.0 / (lk - lm)
                want.append(lk * (C - 4j * B * a) + (-2j * B * b + E) - 2j * B * s)
            assert dynamics._rhs(H)(0.0, y) == want

    def test_exact_tie_gives_the_all_nan_row(self):
        y = np.array([-0.5, 0.1, 0.3 + 1j, -1.0, 0.3 + 1j], dtype=complex)
        row = dynamics._rhs(HP)(0.0, y)
        assert len(row) == y.size and np.all(np.isnan(row))

    @pytest.mark.parametrize("rank", range(6))
    def test_a_list_and_an_array_give_the_same_row(self, rank):
        # integrate passes the state as a list of Python complex numbers and
        # SciPy's solver as an array: both must give the same bits.
        rng = np.random.default_rng(100 + rank)
        for _ in range(5):
            f = dynamics._rhs(QuadraticHamiltonian(*rng.normal(size=6)))
            y = rng.normal(size=rank + 2) + 1j * rng.normal(size=rank + 2)
            want = f(0.0, y)
            assert np.array(f(0.0, y.tolist())).tobytes() == np.array(want).tobytes()

    def test_an_exact_tie_in_a_list_gives_the_all_nan_row(self):
        # tolist() makes one object per entry, as integrate's stage sums do.
        y = np.array([-0.5, 0.1, 0.3 + 1j, -1.0, 0.3 + 1j], dtype=complex).tolist()
        row = dynamics._rhs(HP)(0.0, y)
        assert len(row) == len(y) and np.all(np.isnan(row))

    def test_second_order_acceleration_exact(self):
        # the same fixture: lambda''(0) = -omega^2 * 1 + 8 B^2 / 2^3 = -3/4
        acc = second_order_acceleration([1.0, -1.0], HP)
        assert abs(acc[0] + 0.75) < 1e-15


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
class TestZeroPair:
    SEEDS = range(4)

    def test_calogero_moser_constraint(self, rank):
        # [X0, P0] = i (11^T - I) (Kazhdan, Kostant & Sternberg 1978).
        want = 1j * (np.ones((rank, rank)) - np.eye(rank))
        for seed in self.SEEDS:
            x0, p0, _ = zero_pair(build_wavefunction(random_stellar_state(rank, seed))).terms
            got = x0 @ p0 - p0 @ x0
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_lax_diagonal_is_the_ode_velocity(self, rank):
        rng = np.random.default_rng(rank)
        for seed in self.SEEDS:
            wf = build_wavefunction(random_stellar_state(rank, seed))
            x0, p0, eye = zero_pair(wf).terms
            for _ in range(3):
                H = QuadraticHamiltonian(*rng.uniform(-1.0, 1.0, 6))
                lax = 2.0 * H.B * p0 + H.C * x0 + H.E * eye
                want = np.array(ode_rhs(wf.g2, wf.g1, wf.zeros, H)[2])
                assert np.max(np.abs(np.diag(lax) - want)) <= 1e-12 * np.max(np.abs(want)), H


class TestIntegrate:
    def test_fock_one_zero_stays_at_origin(self):
        wf = build_wavefunction(fock_state(1))
        tr = integrate(wf, HP, np.linspace(0, 2 * math.pi, 33))
        assert np.max(np.abs(tr.paths)) < 1e-12

    def test_rank0_riccati_fixed_point(self):
        wf = build_wavefunction(fock_state(0))
        tr = integrate(wf, HP, np.linspace(0, 2 * math.pi, 17))
        assert np.max(np.abs(tr.gauss_path[0] + 0.5)) < 1e-12
        assert tr.paths.shape == (0, 17)

    def test_rank2_antipodal_at_pi(self):
        st = stellar_state_from_zeros([1.0, -1.0])
        wf = build_wavefunction(st)
        tr = integrate(wf, HP, np.linspace(0, math.pi, 65))
        assert matching_distance(tr.paths[:, -1], [1.0, -1.0]) < 1e-8

    def test_rank2_exact_path(self):
        st = stellar_state_from_zeros([1.0, -1.0])
        wf = build_wavefunction(st)
        ts = np.linspace(0, 1.3, 14)
        tr = integrate(wf, HP, ts)
        for i, t in enumerate(ts):
            lam = rank2_exact_zero(t)
            assert matching_distance(tr.paths[:, i], [lam, -lam]) < 1e-8

    def test_integrates_past_a_true_collision(self):
        # The +-1 fixture collides head-on at the origin at t = pi/2.  In
        # floating point the trajectory deflects around the branch point
        # (an exact hit is measure-zero) and the zero SET downstream is
        # still correct; the closed form is exact through the collision.
        st = stellar_state_from_zeros([1.0, -1.0])
        wf = build_wavefunction(st)
        ts = np.linspace(0, 2.2, 23)
        tr = integrate(wf, HP, ts)
        lam = rank2_exact_zero(2.2)
        assert matching_distance(tr.paths[:, -1], [lam, -lam]) < 1e-4

    def test_grid_validation(self):
        wf = build_wavefunction(fock_state(1))
        with pytest.raises(InvalidParameter):
            integrate(wf, HP, [-0.5, 1.0])
        with pytest.raises(InvalidParameter):
            integrate(wf, HP, [0.0, 0.5, 0.4])

    def test_grid_may_start_after_zero(self):
        # The solver starts at 0 whatever the grid; the steps do not depend
        # on the samples, so the later samples are the same interpolants' values.
        _, wf = distinct_random_state(3, 2, scale=0.8, min_gap=0.12)
        full = integrate(wf, HP, [0.0, 0.5, 1.0])
        late = integrate(wf, HP, [0.5, 1.0])
        assert np.array_equal(late.times, [0.5, 1.0])
        assert np.array_equal(late.paths, full.paths[:, 1:])
        assert np.array_equal(late.gauss_path, full.gauss_path[:, 1:])
        assert np.array_equal(full.paths[:, 0], wf.zeros)
        assert np.array_equal(full.gauss_path[:, 0], [wf.g2, wf.g1])

    @pytest.mark.parametrize("grid", [[0.0, math.nan, math.nan], [0.0, 1.0, math.inf]])
    def test_non_finite_grid_rejected(self, grid):
        # NaN fails every ordering comparison, so the ordering checks pass
        # it; DOP853 never returns on a NaN end time.
        wf = build_wavefunction(random_stellar_state(1, 1))
        with pytest.raises(InvalidParameter):
            integrate(wf, HP, grid)

    def test_initial_gap_guard(self):
        wf = WavefunctionForm(-0.5, 0.0, 0.0, (0.3, 0.3 + 1e-8))
        with pytest.raises(DegenerateInitialZeros):
            integrate(wf, HP, [0.0, 1.0])

    def test_riccati_consistency(self):
        _, wf = distinct_random_state(2, 3, scale=0.7)
        H = QuadraticHamiltonian(A=0.5, B=0.4, C=0.2, D=0.1, E=-0.3)
        ts = np.linspace(0, 2.0, 801)
        tr = integrate(wf, H, ts)
        g2 = tr.gauss_path[0]
        h = ts[1] - ts[0]
        # fourth-order stencil keeps the finite-difference bias below the target
        gdot = (-g2[4:] + 8 * g2[3:-1] - 8 * g2[1:-3] + g2[:-4]) / (12 * h)
        mid = g2[2:-2]
        rhs = 4j * H.B * mid**2 - 2 * H.C * mid - 1j * H.A
        assert np.max(np.abs(gdot - rhs)) < 1e-6 * max(1.0, float(np.max(np.abs(rhs))))

    def test_reversibility(self):
        for rank, seed in ((2, 1), (3, 4)):
            _, wf = distinct_random_state(rank, seed, scale=0.7)
            H = QuadraticHamiltonian(A=0.45, B=0.5, C=0.15, D=0.2, E=-0.1)
            ts = np.linspace(0, 1.7, 18)
            tr = integrate(wf, H, ts)
            end = WavefunctionForm(
                tr.gauss_path[0, -1], tr.gauss_path[1, -1], 0.0,
                list(tr.paths[:, -1]),
            )
            back = integrate(end, QuadraticHamiltonian(*(-v for v in H.as_tuple())), ts)
            assert matching_distance(back.paths[:, -1], wf.zeros) < 1e-7

    def test_nan_rhs_is_a_step_failure(self, monkeypatch):
        # The 1j zero rides 1j e^{it}; past Re z = -0.5 (t = pi/6) every
        # right-hand side is NaN, so each step there is rejected until the
        # step size underflows.  The zero has no neighbour, so this is a
        # StepFailure rather than a ZeroCollision.
        wf = build_wavefunction(stellar_state_from_zeros([1j]))
        rhs = dynamics._rhs

        def poisoned(H):
            f = rhs(H)

            def g(t, y):
                return [complex(math.nan, math.nan)] * len(y) if y[2].real < -0.5 else f(t, y)

            return g

        monkeypatch.setattr(dynamics, "_rhs", poisoned)
        with pytest.raises(StepFailure, match=r"t=0\.523"):
            integrate(wf, HP, np.linspace(0, 2.0, 9))

    def test_accepted_step_inside_the_collision_gap_raises(self, monkeypatch):
        # An injected right-hand side pulls the +-1 pair together like e^{-t},
        # so the gap falls to 1e-9 at t = ln(2e9) on smooth, accepted steps;
        # the first accepted step past it raises, before the grid's end.
        wf = build_wavefunction(stellar_state_from_zeros([1.0, -1.0]))

        def pulled(H):
            def f(t, y):
                half = 0.5 * (y[2] - y[3])
                return [0j, 0j, -half, half]

            return f

        monkeypatch.setattr(dynamics, "_rhs", pulled)
        with pytest.raises(ZeroCollision, match="detected") as excinfo:
            integrate(wf, HP, np.linspace(0, 30.0, 31))
        assert math.log(2e9) <= excinfo.value.t_estimate < 30.0

    def test_step_collapse_at_a_square_root_collision(self, monkeypatch):
        # An injected right-hand side pulls the +-0.5 pair together as
        # gap^2 = 1 - 2t: the speed blows up at t = 0.5, the step size
        # underflows there while the gap is still above 1e-9, and the
        # failure is reported as the collision it is.
        wf = build_wavefunction(stellar_state_from_zeros([0.5, -0.5]))

        def attracted(H):
            def f(t, y):
                pull = 0.5 / (y[2] - y[3])
                return [0j, 0j, -pull, pull]

            return f

        monkeypatch.setattr(dynamics, "_rhs", attracted)
        with pytest.raises(ZeroCollision, match="step collapse") as excinfo:
            integrate(wf, HP, np.linspace(0, 1.0, 5))
        assert abs(excinfo.value.t_estimate - 0.5) < 1e-9

    @pytest.mark.parametrize("rank,seed", [(1, 0), (3, 3), (4, 3), (5, 1)])
    def test_dense_grid_costs_fewer_rhs_than_samples(self, monkeypatch, rank, seed):
        # Grid samples come from the dense output of the steps that cover
        # them, so the right-hand side is evaluated for the steps the
        # dynamics need, not once or more per sample.
        _, wf = distinct_random_state(rank, seed, scale=0.8, min_gap=0.12, max_extent=2.5)
        ts = np.linspace(0, 6, 3721)
        rhs, calls = dynamics._rhs, [0]

        def counted(H):
            f = rhs(H)

            def g(t, y):
                calls[0] += 1
                return f(t, y)

            return g

        monkeypatch.setattr(dynamics, "_rhs", counted)
        for H in (HP, QuadraticHamiltonian(0.5, 0.45, 0.08, 0.12, -0.1)):
            calls[0] = 0
            integrate(wf, H, ts)
            assert calls[0] < ts.size, (H, calls[0])


# A hyperbolic Hamiltonian: omega^2 = 4AB - C^2 = -1, so cosh(t) overflows past t ~ 710.
H_HYP = QuadraticHamiltonian(B=0.5, C=1.0)
H_ELLIPTIC = QuadraticHamiltonian(0.5, 0.45, 0.08, 0.12, -0.1)


def dense_output_reference(wf, H, ts):
    """``integrate`` stepped by SciPy's own ``DOP853.step``: ``(samples, right-hand-side calls)``.

    ``DOP853.step`` takes the steps and each covering step's interpolant is
    called; the collision, step-failure and overflow checks and their messages
    are ``integrate``'s.
    """
    from scipy.integrate import DOP853

    ts = np.asarray(ts, dtype=float)
    y0 = np.array([wf.g2, wf.g1, *wf.zeros], dtype=complex)
    out = np.empty((y0.size, ts.size), dtype=complex)
    i = int(ts[0] == 0.0)
    out[:, :i] = y0[:, None]
    solver = DOP853(dynamics._rhs(H), 0.0, y0, ts[-1], rtol=dynamics.RTOL, atol=dynamics.ATOL)
    with np.errstate(invalid="ignore", over="ignore"):
        while i < ts.size:
            failed = solver.step() is not None
            t, lam = solver.t, solver.y[2:]
            gap = min([abs(p - q) for k, p in enumerate(lam) for q in lam[:k]], default=math.inf)
            if failed and gap < 1e-6:
                raise ZeroCollision(f"step collapse near zero collision at t~{t:.6g}", t_estimate=t)
            if failed:
                raise StepFailure(f"step size underflow at t={t:.6g}")
            if gap <= dynamics.COLLISION_GAP:
                raise ZeroCollision(f"zero collision detected at t~{t:.6g}", t_estimate=t)
            j = int(np.searchsorted(ts, solver.t, side="right"))
            if j > i:
                out[:, i:j] = solver.dense_output()(ts[i:j])
                i = j
    return dynamics._finite(out, ts, "integrated solution", axis=0), solver.nfev


def _nan_past_half(H, rhs=dynamics._rhs):
    # `rhs` is bound here, before a test patches `dynamics._rhs` with this function.
    f = rhs(H)
    return lambda t, y: [complex(math.nan, math.nan)] * len(y) if y[2].real < -0.5 else f(t, y)


def _attracted(H):
    def f(t, y):
        pull = 0.5 / (y[2] - y[3])
        return [0j, 0j, -pull, pull]

    return f


def _pulled(H):
    def f(t, y):
        half = 0.5 * (y[2] - y[3])
        return [0j, 0j, -half, half]

    return f


# The initial zeros, injected right-hand sides and grids of TestIntegrate's
# NaN step failure, square-root head-on collision and e^{-t} collision.
INJECTED_FAILURES = {
    "nan-rhs": ([1j], _nan_past_half, np.linspace(0, 2.0, 9)),
    "head-on": ([0.5, -0.5], _attracted, np.linspace(0, 1.0, 5)),
    "inside-gap": ([1.0, -1.0], _pulled, np.linspace(0, 30.0, 31)),
}


class TestDenseSamples:
    """``integrate`` evaluates every step's interpolant in one pass, bitwise SciPy's own call."""

    GRIDS = {
        "window": np.linspace(0.0, 2.0 * math.pi, 3721),
        "verify": np.array([0.0, 0.3, 1.1, 2.9]),
        "late": np.array([0.3, 1.1, 2.9]),
        "origin": np.array([0.0]),
    }

    def test_interpolant_keeps_the_attributes_the_pass_reads(self):
        # `integrate` runs SciPy's DOP853 arithmetic in its own loop: it reads
        # the tableau from SciPy's coefficients file and restates the step
        # controller's constants, so a SciPy release that moves the file or
        # changes one of them fails here by name.
        from scipy.integrate import DOP853
        from scipy.integrate._ivp import rk

        tableau = dynamics._dop853()
        for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
            got, want = tableau[name], getattr(DOP853, name)
            assert got.shape == want.shape and np.array_equal(got, want), f"DOP853.{name} changed"
        assert tableau["n_stages"] == DOP853.n_stages == 12
        assert dynamics._ORDER == DOP853.error_estimator_order == 7
        for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
            assert getattr(rk, name) == getattr(dynamics, "_" + name), f"rk.{name} changed"
        solver = DOP853(lambda t, y: -y, 0.0, np.ones(3, dtype=complex), 1.0)
        assert solver.step() is None
        interp = solver.dense_output()
        for name in ("t_old", "h", "F", "y_old"):
            assert hasattr(interp, name), f"SciPy's DOP853 interpolant has no {name!r} any more"
        assert interp.t_old == solver.t_old and interp.h == solver.t - solver.t_old
        assert interp.F.shape == (7, 3) and interp.y_old.shape == (3,)

    @pytest.mark.parametrize("H", [HP, H_ELLIPTIC, H_HYP], ids=["phase", "elliptic", "hyperbolic"])
    def test_first_step_is_scipys(self, H):
        # `integrate` restates SciPy's `select_initial_step`: on this class's
        # states and exact-zero states, to each grid's end (t = 0 too), the
        # step is exactly the solver's `h_abs`.
        from scipy.integrate import DOP853

        forms = [distinct_random_state(rank, 7, scale=0.8, min_gap=0.12, max_extent=2.5)[1]
                 for rank in range(6)]
        forms += [build_wavefunction(stellar_state_from_zeros(z)) for z in self.EXACT.values()]
        fun = dynamics._rhs(H)
        for wf in forms:
            y0 = np.array([wf.g2, wf.g1, *wf.zeros], dtype=complex)
            f0 = np.asarray(fun(0.0, y0), dtype=complex)
            for t_end in sorted({float(grid[-1]) for grid in self.GRIDS.values()}):
                solver = DOP853(fun, 0.0, y0, t_end, rtol=dynamics.RTOL, atol=dynamics.ATOL)
                assert f0.tobytes() == solver.f.tobytes()
                h_abs = dynamics._first_step(fun, y0, f0, t_end)
                assert h_abs == solver.h_abs, (wf.zeros, t_end, h_abs, solver.h_abs)
                assert (h_abs == 0) == (t_end == 0)

    CASES = [(rank, "phase", "window") for rank in range(6)] + [(3, "hyperbolic", "window")]
    CASES += [(rank, h, g) for rank in range(6) for h in ("phase", "elliptic", "hyperbolic")
              for g in ("verify", "late")]
    CASES += [(2, h, "origin") for h in ("phase", "hyperbolic")]

    @pytest.mark.parametrize("rank,h,grid", CASES)
    def test_samples_equal_each_step_interpolant_called(self, rank, h, grid):
        H = {"phase": HP, "elliptic": H_ELLIPTIC, "hyperbolic": H_HYP}[h]
        _, wf = distinct_random_state(rank, 7, scale=0.8, min_gap=0.12, max_extent=2.5)
        ts = self.GRIDS[grid]
        tr = integrate(wf, H, ts)
        want, _ = dense_output_reference(wf, H, ts)
        assert np.array_equal(tr.gauss_path, want[:2])
        assert np.array_equal(tr.paths, want[2:])

    # Cores without a packet (alpha = chi = 0), so g1 = 0 exactly: exact zeros in the
    # state are where the loop's Python-number stage sums could part from NumPy's.
    EXACT = {"vacuum": [], "origin": [0.0], "pair": [1.0, -1.0], "cross": [1j, -1j, 0.0]}

    @pytest.mark.parametrize("zeros", list(EXACT))
    @pytest.mark.parametrize("h", ["phase", "hyperbolic"])
    @pytest.mark.parametrize("grid", ["window", "verify"])
    def test_exact_zeros_sample_bitwise_as_scipys_solver(self, zeros, h, grid):
        H = {"phase": HP, "hyperbolic": H_HYP}[h]
        wf = build_wavefunction(stellar_state_from_zeros(self.EXACT[zeros]))
        assert wf.g1 == 0
        ts = self.GRIDS[grid]
        tr = integrate(wf, H, ts)
        want, _ = dense_output_reference(wf, H, ts)
        # Bitwise, signed zeros too.
        assert tr.gauss_path.tobytes() == want[:2].tobytes()
        assert tr.paths.tobytes() == want[2:].tobytes()

    @pytest.mark.parametrize("H", [HP, H_HYP], ids=["phase", "hyperbolic"])
    def test_no_interpolant_is_called_and_at_most_one_built_per_step(self, monkeypatch, H):
        # The loop builds each covering step's interpolant itself: it calls the
        # right-hand side exactly as often as SciPy's own stepping, which builds one
        # per covering step, and it neither builds nor calls a DenseOutput.
        from scipy.integrate import DenseOutput

        _, wf = distinct_random_state(4, 3, scale=0.8, min_gap=0.12, max_extent=2.5)
        ts = np.linspace(0.0, 6.0, 3721)
        _, nfev = dense_output_reference(wf, H, ts)
        counts = {"rhs": 0, "built": 0, "called": 0}
        rhs, build, call = dynamics._rhs, DenseOutput.__init__, DenseOutput.__call__

        def counting_rhs(H):
            f = rhs(H)

            def g(t, y):
                counts["rhs"] += 1
                return f(t, y)

            return g

        def counting_build(interp, *args):
            counts["built"] += 1
            return build(interp, *args)

        def counting_call(interp, t):
            counts["called"] += 1
            return call(interp, t)

        monkeypatch.setattr(dynamics, "_rhs", counting_rhs)
        monkeypatch.setattr(DenseOutput, "__init__", counting_build)
        monkeypatch.setattr(DenseOutput, "__call__", counting_call)
        integrate(wf, H, ts)
        assert counts == {"rhs": nfev, "built": 0, "called": 0}, (counts, nfev)

    @staticmethod
    def _outcome(run):
        """``(type, message, t_estimate)`` of the typed error ``run()`` raises."""
        with pytest.raises((StepFailure, ZeroCollision, InvalidParameter)) as excinfo:
            run()
        return type(excinfo.value), str(excinfo.value), getattr(excinfo.value, "t_estimate", None)

    @pytest.mark.parametrize("case", list(INJECTED_FAILURES))
    def test_failures_match_scipys_solver(self, monkeypatch, case):
        zeros, rhs, ts = INJECTED_FAILURES[case]
        wf = build_wavefunction(stellar_state_from_zeros(zeros))
        monkeypatch.setattr(dynamics, "_rhs", rhs)
        want = self._outcome(lambda: dense_output_reference(wf, HP, ts))
        assert self._outcome(lambda: integrate(wf, HP, ts)) == want

    @pytest.mark.parametrize("t_end", [705.0, 710.0])
    def test_hyperbolic_blow_up_fails_like_scipys_solver(self, t_end):
        # The sample at t = 705 overflows; past it the step size underflows.
        wf = build_wavefunction(random_stellar_state(2, 0))
        H = QuadraticHamiltonian(B=0.5, C=1.0)
        ts = np.linspace(0.0, t_end, 3)
        want = self._outcome(lambda: dense_output_reference(wf, H, ts))
        assert want[0] is (InvalidParameter if t_end == 705.0 else StepFailure)
        assert self._outcome(lambda: integrate(wf, H, ts)) == want


def flow_reference(w2, t):
    """``cos wt``, ``sin(wt)/w`` and ``(1 - cos wt)/w^2`` from ``math``, or hyperbolic forms."""
    if abs(w2) < 1e-100:  # w t underflows; the w -> 0 limits are exact in double precision
        return 1.0, t, 0.5 * t * t
    w = math.sqrt(abs(w2))
    if w2 > 0:
        return math.cos(w * t), math.sin(w * t) / w, (1.0 - math.cos(w * t)) / w2
    return math.cosh(w * t), math.sinh(w * t) / w, (1.0 - math.cosh(w * t)) / w2


def flow_coefficients(w2, t):
    """``(c, s, q)``: with ``B = 1/2``, ``D = -1`` and ``C = E = 0`` they are ``(F11, F12, F13)``."""
    H = QuadraticHamiltonian(A=0.5 * w2, B=0.5, D=-1.0)  # omega^2 = 4AB = w2
    return np.array(dynamics._classical_flow(H, t)[0])


class TestFlowCoefficients:
    TIMES = np.concatenate([[0.0, 1e-9], np.linspace(0.05, 8.0, 40)])

    @pytest.mark.parametrize("w2", [1.0, 0.7, 0.0, 1e-300, -1e-300, -0.05, -2.0])
    def test_matches_the_trigonometric_and_hyperbolic_forms(self, w2):
        got = flow_coefficients(w2, self.TIMES)
        assert got.shape == (3, self.TIMES.size) and got.dtype == float
        want = np.array([flow_reference(w2, t) for t in self.TIMES]).T
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("w2", [0.7, 0.0, -2.0])
    def test_a_scalar_time_gives_one_triple(self, w2):
        got = flow_coefficients(w2, 1.3)
        assert got.shape == (3,)
        assert np.array_equal(got, flow_coefficients(w2, [1.3])[:, 0])

    def test_overflow_is_a_typed_error_naming_the_time(self):
        pair = zero_pair(distinct_random_state(2, 0)[1])
        with pytest.raises(InvalidParameter, match="t=800"):
            dynamics.closed_form_matrix(pair, H_HYP, [1.0, 800.0])
        # cosh(710) is still finite; the matrix built from it is not.
        with pytest.raises(InvalidParameter, match="t=710"):
            dynamics.closed_form_matrix(pair, H_HYP, [1.0, 710.0])

    def test_a_vanishing_gaussian_denominator_is_a_typed_error(self):
        # B = 0 and omega^2 = -C^2 make F11 = c + s C = exp(-|C| t), which
        # rounds to 0 long before c overflows: a division by zero, not a warning.
        H = QuadraticHamiltonian(A=-0.7, C=-0.52, D=-0.2, E=-0.8)
        wf = build_wavefunction(random_stellar_state(3, 20))
        with pytest.raises(InvalidParameter, match="Gaussian flow"):
            sample_closed_form(wf, H, np.linspace(0.0, 1400.0, 400))


class TestClosedForm:
    def test_time_zero_identity(self):
        _, wf = distinct_random_state(3, 2, scale=0.7)
        assert matching_distance(closed_form(wf, HP, 0.0), wf.zeros) < 1e-12

    def test_fock_one_pinned(self):
        wf = build_wavefunction(fock_state(1))
        for t in (0.3, 1.7, 5.0):
            assert abs(closed_form(wf, HP, t)[0]) < 1e-12

    def test_rank1_ellipse(self):
        st = stellar_state_from_zeros([1j])
        wf = build_wavefunction(st)
        for t in np.linspace(0, 2 * math.pi, 9):
            want = 1j * np.exp(1j * t)
            assert abs(closed_form(wf, HP, t)[0] - want) < 1e-12

    def test_rank2_exact_including_collision(self):
        st = stellar_state_from_zeros([1.0, -1.0])
        wf = build_wavefunction(st)
        for t in (0.4, 1.3, 2.2):
            lam = rank2_exact_zero(t)
            assert matching_distance(closed_form(wf, HP, t), [lam, -lam]) < 1e-12
        # at t = pi/2 the zeros collide at the origin; the matrix solution
        # passes straight through
        zs = closed_form(wf, HP, math.pi / 2)
        assert max(abs(z) for z in zs) < 1e-8

    def test_an_array_of_times_gives_one_zero_set_per_time(self):
        _, wf = distinct_random_state(3, 2, scale=0.7)
        H = QuadraticHamiltonian(0.7, 0.3, 0.1, 0.0, 0.05, 0.0)
        times = [0.3, 1.1, 2.9]
        got = closed_form(wf, H, times)
        assert got.shape == (3, 3)
        for row, t in zip(got, times):
            assert matching_distance(row, closed_form(wf, H, t)) < 1e-14

    def test_b_zero_and_omega2_zero(self):
        _, wf = distinct_random_state(3, 1, scale=0.7)
        ts = np.linspace(0, 2.0, 9)
        for H in (H_B0, H_W0):
            tr = integrate(wf, H, ts)
            dev = max(
                matching_distance(tr.paths[:, i], closed_form(wf, H, t))
                for i, t in enumerate(ts)
            )
            assert dev < 1e-8, H

    def test_degenerate_zeros(self):
        wf = WavefunctionForm(-0.5, 0.0, 0.0, (0.5, 0.5 + 1e-11))
        with pytest.raises(DegenerateInitialZeros):
            zero_pair(wf)

    def test_wrong_rotation_sign_fails_ode_check(self):
        st = stellar_state_from_zeros([1j])
        wf = build_wavefunction(st)
        ts = np.linspace(0, 2.0, 9)
        tr = integrate(wf, HP, ts)
        good = max(
            matching_distance(tr.paths[:, i], closed_form(wf, HP, t))
            for i, t in enumerate(ts)
        )
        bad = max(
            matching_distance(tr.paths[:, i], wrong_sign_closed_form(wf, HP, t))
            for i, t in enumerate(ts)
        )
        assert good < 1e-9
        assert bad > 1e-3

    def test_omega2_negative(self):
        _, wf = distinct_random_state(2, 7, scale=0.6)
        H = QuadraticHamiltonian(A=0.1, B=-0.4, C=0.15, D=0.05, E=0.1)
        assert H.omega2 < 0
        ts = np.linspace(0, 3.0, 13)
        tr = integrate(wf, H, ts)
        dev = max(
            matching_distance(tr.paths[:, i], closed_form(wf, H, t))
            for i, t in enumerate(ts)
        )
        assert dev < 1e-7

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_a_time_that_is_not_finite_is_named(self, t):
        # The zero matrix at such a time is not finite; the error names the time, not an overflow.
        _, wf = distinct_random_state(3, 2, scale=0.7)
        traj = sample_closed_form(wf, HP, [0.0, 1.0])
        with pytest.raises(InvalidParameter, match=r"time t=.*(nan|inf).* is not finite"):
            closed_form(wf, HP, t)
        with pytest.raises(InvalidParameter, match=r"time t=.*(nan|inf).* is not finite"):
            traj.zeros_at(t)

    def test_a_complex_time_is_a_typed_error(self):
        _, wf = distinct_random_state(3, 2, scale=0.7)
        with pytest.raises(InvalidParameter, match=r"time t=1j is not a real number"):
            closed_form(wf, HP, 1j)


class TestSampleClosedForm:
    def test_matches_integrate(self):
        st = ring_state(3, 5)
        wf = build_wavefunction(st)
        H = QuadraticHamiltonian(A=0.5, B=0.45, C=0.1, D=0.2, E=-0.15)
        ts = np.linspace(0, 3.0, 49)
        ode = integrate(wf, H, ts)
        cf = sample_closed_form(wf, H, ts)
        assert np.max(np.abs(ode.paths - cf.paths)) < 1e-7

    def test_paths_are_continuous(self):
        st = ring_state(4, 9)
        wf = build_wavefunction(st)
        ts = np.linspace(0, 2 * math.pi, 257)
        cf = sample_closed_form(wf, HP, ts)
        steps = np.abs(np.diff(cf.paths, axis=1))
        assert np.max(steps) < 0.2

    def test_zeros_at_matches_closed_form(self):
        st = ring_state(2, 3)
        wf = build_wavefunction(st)
        cf = sample_closed_form(wf, HP, np.linspace(0, 1, 5))
        zs = cf.zeros_at(0.5)
        assert matching_distance(zs, closed_form(wf, HP, 0.5)) < 1e-12
        with pytest.raises(InvalidParameter):
            integrate(wf, HP, np.linspace(0, 1, 5)).zeros_at(0.5)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_coarse_and_fine_grids_track_alike(self, rank):
        # Both grids share every 32nd time exactly, so any difference there is
        # a different assignment, i.e. one of the two trackers swapped zeros.
        coarse, fine = np.linspace(0, 6, 13), np.linspace(0, 6, 385)
        for seed in range(10):
            _, wf = distinct_random_state(rank, seed)
            for H in (HP, QuadraticHamiltonian(0.5, 0.45, 0.08, 0.12, -0.1)):
                a = sample_closed_form(wf, H, coarse).paths
                b = sample_closed_form(wf, H, fine).paths[:, ::32]
                assert np.max(np.abs(a - b)) <= 1e-8, (seed, H)

    def test_grid_may_start_after_zero(self):
        _, wf = distinct_random_state(3, 4)
        ts = np.linspace(0, 6, 13)
        full = sample_closed_form(wf, HP, ts).paths
        assert np.max(np.abs(sample_closed_form(wf, HP, ts[1:]).paths - full[:, 1:])) < 1e-12

    def test_grid_validation(self):
        wf = build_wavefunction(fock_state(1))
        with pytest.raises(InvalidParameter):
            sample_closed_form(wf, HP, [-0.5, 1.0])
        with pytest.raises(InvalidParameter):
            sample_closed_form(wf, HP, [0.0, 0.5, 0.4])

    @pytest.mark.parametrize("grid", [[0.0, math.nan, math.nan], [0.0, 1.0, math.inf]])
    def test_non_finite_grid_rejected(self, grid):
        wf = build_wavefunction(random_stellar_state(1, 1))
        with pytest.raises(InvalidParameter):
            sample_closed_form(wf, HP, grid)

    @staticmethod
    def _evolved_form(wf, H, t):
        """The whole form at time t: zeros and (g2, g1) from the flow, g0 from the norm."""
        tr = sample_closed_form(wf, H, [t])
        (g2, g1), zeros = tr.gauss_path[:, 0], tr.paths[:, 0]
        g0 = -0.5 * math.log(form_norm_squared(WavefunctionForm(g2, g1, 0.0, zeros)))
        return WavefunctionForm(g2, g1, g0, zeros)

    def test_evolved_form_matches_the_oracle(self):
        # Its global phase is free: align it where |psi| peaks.
        st = ring_state(3, 7)
        t = 0.7
        xs = np.arange(-3.0, 3.01, 0.5)
        got = eval_form(self._evolved_form(build_wavefunction(st), HP, t), xs)
        want = eval_entire(evolve_fock(stellar_to_fock(st, 120), HP, t), xs)
        j = int(np.argmax(np.abs(want)))
        got = got * (want[j] / got[j]) / abs(want[j] / got[j])
        assert np.max(np.abs(got - want)) < 1e-6

    def test_evolved_form_at_time_zero_is_the_initial_one(self):
        _, wf = distinct_random_state(2, 2, scale=0.7)
        out = self._evolved_form(wf, HP, 0.0)
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(np.abs(eval_form(out, xs)) - np.abs(eval_form(wf, xs)))) < 1e-9
        assert matching_distance(out.zeros, wf.zeros) < 1e-9

    def test_constant_hamiltonian_moves_only_the_phase(self):
        _, wf = distinct_random_state(2, 5, scale=0.7)
        out = self._evolved_form(wf, QuadraticHamiltonian(F=1.3), 0.8)
        assert matching_distance(out.zeros, wf.zeros) < 1e-10
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(np.abs(eval_form(out, xs)) - np.abs(eval_form(wf, xs)))) < 1e-9

    @pytest.mark.parametrize("H", [H_B0, H_W0], ids=["B0", "omega2_0"])
    def test_evolved_form_matches_integrate_where_the_flow_degenerates(self, H):
        # B = 0 and omega^2 = 0 take the closed form's limiting branches.
        _, wf = distinct_random_state(2, 8, scale=0.6)
        out = self._evolved_form(wf, H, 0.5)
        tr = integrate(wf, H, [0.0, 0.5])
        assert matching_distance(out.zeros, tr.paths[:, -1]) < 1e-8
        assert abs(out.g2 - tr.gauss_path[0, -1]) < 1e-8
        assert abs(out.g1 - tr.gauss_path[1, -1]) < 1e-8
        assert abs(form_norm_squared(out) - 1.0) < 1e-12

    def test_exact_collision_on_grid_raises(self):
        # The +-1 pair meets at the origin at t = pi/2, a grid point here:
        # no assignment through the collision can be justified.
        wf = build_wavefunction(stellar_state_from_zeros([1.0, -1.0]))
        with pytest.raises(TrackingAmbiguity) as excinfo:
            sample_closed_form(wf, HP, np.linspace(0, math.pi, 9))
        err = excinfo.value
        assert abs(err.t - math.pi / 2) < 1e-9
        assert err.displacement >= 0.5 * err.gap


@functools.lru_cache(maxsize=None)
def _separated_form(rank, seed):
    return distinct_random_state(rank, seed, scale=0.7, min_gap=0.3)[1]


def _regime_hamiltonian(regime, a, b, c, d, e):
    """A Hamiltonian of the named regime from draws ``a, b > 0`` and ``0 < |c| < 2 sqrt(ab)``."""
    if regime == "omega2_pos":
        return QuadraticHamiltonian(A=a, B=b, C=c, D=d, E=e)
    if regime == "omega2_neg":
        return QuadraticHamiltonian(A=-a, B=b, C=c, D=d, E=e)
    if regime == "omega2_zero":
        return QuadraticHamiltonian(A=a, B=b, C=2.0 * math.sqrt(a * b), D=d, E=e)
    return QuadraticHamiltonian(A=a, B=0.0, C=c, D=d, E=e)


class TestEveryQuadraticHamiltonian:
    @pytest.mark.parametrize("regime", ["omega2_pos", "omega2_neg", "omega2_zero", "b_zero"])
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        a=hst.floats(0.2, 0.7),
        b=hst.floats(0.2, 0.7),
        c=hst.floats(0.1, 0.35) | hst.floats(-0.35, -0.1),
        d=hst.floats(-0.3, 0.3),
        e=hst.floats(-0.3, 0.3),
        rank=hst.integers(1, 4),
        seed=hst.integers(0, 5),
        t_end=hst.floats(0.2, 1.5),
    )
    def test_closed_form_matches_integrate(self, regime, a, b, c, d, e, rank, seed, t_end):
        H = _regime_hamiltonian(regime, a, b, c, d, e)
        wf = _separated_form(rank, seed)
        ts = np.linspace(0.0, t_end, 7)
        ode = integrate(wf, H, ts)
        cf = sample_closed_form(wf, H, ts)
        assert np.max(np.abs(ode.paths - cf.paths)) < 1e-7
        assert np.max(np.abs(ode.gauss_path - cf.gauss_path)) < 1e-7

    @pytest.mark.parametrize(
        "H, t", [(H_B0, 0.3), (H_B0, 1.1), (H_W0, 0.3)], ids=["B0-0.3", "B0-1.1", "omega2_0-0.3"]
    )
    def test_fock_oracle(self, H, t):
        # At omega^2 = 0 the packet spreads without bound; by t = 1.1 it
        # leaks out of the cutoff-80 basis (TruncationLeakage).
        st = ring_state(3, 4)
        wf = build_wavefunction(st)
        vt = evolve_fock(stellar_to_fock(st, 80), H, t)
        want = closed_form(wf, H, t)
        got = zeros_from_fock(vt, 3)
        assert matching_distance(got, want) < 1e-8


class TestMatching:
    def test_nearest_assignment(self):
        a = np.array([1.0, 2.0, 3.0], dtype=complex)
        b = np.array([3.01, 1.02, 1.98], dtype=complex)
        assert dynamics._assignment(np.abs(a[:, None] - b[None, :]).tolist()) == [1, 2, 0]
        assert abs(matching_distance(a, b) - 0.02) < 1e-12

    def test_matching_distance_empty(self):
        assert matching_distance([], []) == 0.0

    @staticmethod
    def _points(kind, n, rng):
        """Random points, integer points on the real line, or Gaussian-integer lattice points."""
        if kind in ("random", "near"):
            return rng.normal(size=n) + 1j * rng.normal(size=n)
        if kind == "integer":
            return rng.integers(-3, 4, n).astype(complex)
        return rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)

    @staticmethod
    def _near(a, rng):
        """A permutation of ``a``, each point moved by less than half of its smallest gap."""
        gap = min(float(_min_gap(a)), 1.0)
        moves = rng.uniform(0.0, 0.49, a.size) * gap * np.exp(2j * math.pi * rng.random(a.size))
        return (a + moves)[rng.permutation(a.size)]

    @pytest.mark.parametrize("kind", ["random", "integer", "lattice", "near"])
    def test_permutation_is_scipys(self, kind):
        # `matching_distance` solves the assignment itself, with SciPy's algorithm
        # and tie rule, so on tied costs too it picks the permutation SciPy picks
        # and reports its largest cost to the bit.  On "near" pairs it takes the
        # half-gap rule instead, and the nearest pairs are that permutation.
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(11)
        for n in [*range(61), 300]:
            for _ in range(3 if n <= 60 else 1):
                a = self._points(kind, n, rng)
                b = self._near(a, rng) if kind == "near" else self._points(kind, n, rng)
                cost = np.abs(a[:, None] - b[None, :])
                rows, want = linear_sum_assignment(cost)
                assert np.array_equal(rows, np.arange(n))
                assert dynamics._assignment(cost.tolist()) == want.tolist(), (kind, n)
                got = np.float64(matching_distance(a, b))
                assert got.tobytes() == cost[rows, want].max(initial=0.0).tobytes(), (kind, n)

    def test_half_gap_rule_skips_the_assignment(self, monkeypatch):
        calls, assign = [], dynamics._assignment
        monkeypatch.setattr(dynamics, "_assignment", lambda cost: calls.append(len(cost)) or assign(cost))
        a = np.array([0.0, 1.0, 1j, 2.0 + 2j])  # smallest gap 1
        b = a + 0.3 * np.exp(1j * np.array([0.1, 2.0, 4.0, 5.5]))
        assert matching_distance(a, b[[2, 0, 3, 1]]) == np.abs(a - b).max()
        assert calls == []
        # A duplicate in `a` has gap 0, which no distance is below.
        assert matching_distance([1.0, 1.0, 2.0], [2.0, 1.0, 1.0]) == 0.0
        assert calls == [3]
        # One point moved past half the gap.
        b[0] = 0.6
        assert matching_distance(a, b) == 0.6
        assert calls == [3, 4]

    def test_integer_cost_matrices_are_assigned_as_scipy_assigns_them(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(12)
        for n in range(61):
            for high in (1, 2, 5):
                cost = rng.integers(0, high + 1, (n, n)).astype(float)
                assert dynamics._assignment(cost.tolist()) == linear_sum_assignment(cost)[1].tolist()

    def test_overflowing_distances_are_rejected(self):
        # Finite points whose every distance overflows leave no finite assignment
        # (SciPy's solver calls it infeasible).
        with np.errstate(over="ignore"), pytest.raises(InvalidParameter, match="overflow"):
            matching_distance([1e308, 1.5e308], [-1e308, -1.5e308])

    def test_size_mismatch(self):
        with pytest.raises(InvalidParameter):
            matching_distance([1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match="1-d"):
            matching_distance(1.0, 1.0)
        with pytest.raises(InvalidParameter, match="1-d"):
            matching_distance([[1, 2], [3, 4]], [[1, 2], [3, 4]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_entry_is_rejected(self, bad):
        with pytest.raises(InvalidParameter, match="finite"):
            matching_distance([1.0, bad], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match="finite"):
            matching_distance([1.0, 2.0], [bad, 1.0])


def per_row_track(ts, zs, zeros_at, anchors=None):
    """``dynamics._track`` composing the order at every row: the reference for its change-only pass."""
    ts, zs = np.asarray(ts, dtype=float), np.asarray(zs, dtype=complex)
    if zs.shape[1] < 2:
        return zs
    asked = np.ones(ts.size, dtype=bool)
    anchors = np.arange(ts.size) == 0 if anchors is None else np.asarray(anchors, dtype=bool)
    while True:
        gap = _min_gap(zs[:-1])
        dist = np.abs(zs[:-1, :, None] - zs[1:, None, :])
        bad = np.flatnonzero((np.min(dist, axis=2).max(axis=1) >= 0.5 * gap) & ~anchors[1:])
        if bad.size == 0:
            break
        mid = 0.5 * (ts[bad] + ts[bad + 1])
        ts, zs = np.insert(ts, bad + 1, mid), np.insert(zs, bad + 1, zeros_at(mid), axis=0)
        asked, anchors = np.insert(asked, bad + 1, False), np.insert(anchors, bad + 1, False)
    order = [np.arange(zs.shape[1])]
    for succ, anchor in zip(np.argmin(dist, axis=2), anchors[1:]):
        order.append(order[0] if anchor else succ[order[-1]])
    return np.take_along_axis(zs, np.array(order), axis=1)[asked]


class TestTracker:
    @pytest.mark.parametrize("seed", range(8))
    def test_change_only_order_matches_per_row_composition(self, seed):
        # Zeros on small circles around well-separated centres, each row shuffled by a
        # permutation that a random step swaps; fast circles leave steps to refine.
        rng = np.random.default_rng(seed)
        for rank in range(2, 7):
            centres = 3.0 * np.arange(rank) + 1j * rng.normal(size=rank)
            speed, phase = rng.uniform(0.5, 40.0, rank), rng.uniform(0.0, 2 * math.pi, rank)

            def zeros_at(ts, shuffle=True):
                z = centres + 0.8 * np.exp(1j * (np.outer(ts, speed) + phase))
                return np.random.default_rng(len(ts)).permuted(z, axis=1) if shuffle else z

            ts = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(40, 301))))
            zs, perm = zeros_at(ts, shuffle=False), np.arange(rank)
            for k in range(ts.size):
                if rng.random() < 0.1:
                    i, j = rng.choice(rank, 2, replace=False)
                    perm[[i, j]] = perm[[j, i]]
                zs[k] = zs[k, perm]
            for anchors in (None, rng.random(ts.size) < 0.1):
                got = dynamics._track(ts, zs, zeros_at, anchors)
                want = per_row_track(ts, zs, zeros_at, anchors)
                assert got.tobytes() == want.tobytes(), (seed, rank)

    def test_change_only_order_matches_on_the_mirrored_period(self):
        # phase_trajectory's stack, on criterion 5's fixtures.
        ts = np.linspace(0.0, 2.0 * math.pi, 257)
        for rank in range(1, 7):
            for seed in range(40, 44):
                _, wf = distinct_random_state(rank, seed, scale=0.8, min_gap=0.05)
                at = functools.partial(dynamics._zeros_at, zero_pair(wf), HP)
                half = at(ts[1:129])
                zs = np.concatenate([np.reshape(wf.zeros, (1, rank)), half, -half])
                got, want = dynamics._track(ts, zs, at), per_row_track(ts, zs, at)
                assert got.tobytes() == want.tobytes(), (rank, seed)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hst.data())
    def test_half_gap_rule_agrees_with_optimal_assignment(self, data):
        # Whenever every zero has a successor within half the smallest gap,
        # the nearest successors form the optimal assignment; otherwise the
        # step is halved down to 1e-9 and given up.
        a = np.array(data.draw(hst.lists(
            hst.complex_numbers(max_magnitude=2.0), min_size=2, max_size=6, unique=True
        )))
        gap = np.min(np.abs(a[:, None] - a[None, :]) + np.diag(np.full(a.size, np.inf)))
        assume(gap > 1e-6)
        moves = data.draw(hst.lists(
            hst.tuples(hst.floats(0.0, 0.6), hst.floats(0.0, 2 * math.pi)),
            min_size=a.size, max_size=a.size,
        ))
        perm = data.draw(hst.permutations(range(a.size)))
        b = (a + np.array([f * gap * np.exp(1j * th) for f, th in moves]))[perm]

        def zeros_at(ts):
            return np.tile(b, (len(ts), 1))

        dist = np.abs(a[:, None] - b[None, :])
        if np.all(dist.min(axis=1) < 0.5 * gap):
            nearest = dist.argmin(axis=1)
            assert np.array_equal(nearest, dynamics._assignment(dist.tolist()))
            assert np.array_equal(dynamics._track([0.0, 1.0], [a, b], zeros_at)[1], b[nearest])
        else:
            with pytest.raises(TrackingAmbiguity):
                dynamics._track([0.0, 1.0], [a, b], zeros_at)

    def test_step_leaving_an_exact_tie_raises_at_the_tie(self):
        # No successor is within half of a zero gap, so halving such a step
        # never makes it safe, and with ties at every midpoint the unsafe
        # steps would double on every pass: the tracker gives up at the tie.
        solved = [0]

        def zeros_at(ts):
            solved[0] += len(ts)
            assert solved[0] <= 1000, "tracker refines a tie without end"
            return np.zeros((len(ts), 2), dtype=complex)

        with pytest.raises(TrackingAmbiguity) as excinfo:
            dynamics._track([0.0, 1.0, 2.0], [[1.0, -1.0], [0.0, 0.0], [1j, -1j]], zeros_at)
        assert excinfo.value.t == 1.0 and excinfo.value.gap == 0

    def test_tied_sample_costs_a_bounded_number_of_solves(self, monkeypatch):
        # This B = 0 hyperbolic flow merges the three zeros into an exact tie
        # at a sample before t = 34; tracking on from the tie would double
        # its unsafe steps on every pass.  A counter caps the solved matrices.
        solved, solve = [0], dynamics.eigenvalues_small

        def counted(m):
            solved[0] += len(m)
            assert solved[0] <= 10_000, "tracker refines a tie without end"
            return solve(m)

        monkeypatch.setattr(dynamics, "eigenvalues_small", counted)
        wf = build_wavefunction(random_stellar_state(3, 20))
        H = QuadraticHamiltonian(-0.7, 0, -0.52, -0.2, -0.8)
        with pytest.raises(TrackingAmbiguity) as excinfo:
            sample_closed_form(wf, H, np.linspace(0, 34, 100))
        err = excinfo.value
        assert err.gap == 0 and err.t in np.linspace(0, 34, 100)

    def test_flow_coefficients_once_per_solve_not_per_sample(self, monkeypatch):
        calls, solves = [], []
        flow, solve = dynamics._classical_flow, dynamics.eigenvalues_small
        monkeypatch.setattr(
            dynamics, "_classical_flow", lambda H, t: calls.append(np.size(t)) or flow(H, t)
        )
        monkeypatch.setattr(
            dynamics, "eigenvalues_small", lambda m: solves.append(len(m)) or solve(m)
        )
        _, wf = distinct_random_state(4, 1)
        grid = np.linspace(0.0, 2.0 * math.pi, 513)
        sample_closed_form(wf, HP, grid)
        assert len(solves) >= 2, "this fixture needs refining"
        # One call for the Gaussian flow on the whole grid, then one per solve.
        assert calls == [grid.size] + solves

    def test_one_solve_for_the_grid_and_one_per_refinement_pass(self, monkeypatch):
        solves, times = [], []
        solve, matrix = dynamics.eigenvalues_small, dynamics.closed_form_matrix
        monkeypatch.setattr(
            dynamics, "eigenvalues_small", lambda m: solves.append(len(m)) or solve(m)
        )
        monkeypatch.setattr(
            dynamics, "closed_form_matrix", lambda pair, H, t: times.append(t) or matrix(pair, H, t)
        )
        _, wf = distinct_random_state(4, 1)
        grid = np.linspace(0, 6, 13)
        sample_closed_form(wf, HP, grid)
        assert solves == [len(t) for t in times]
        assert np.array_equal(times[0], grid[1:])
        assert len(times) >= 3, "this fixture needs refining"
        known = grid
        for k, mid in enumerate(times[1:], 1):
            # Pass k halves steps of width 0.5 / 2^(k-1), the grid's spacing
            # halved k - 1 times, all in one solve.
            i = np.searchsorted(known, mid)
            assert np.allclose(mid - known[i - 1], 0.5**k * 0.5, rtol=1e-9)
            assert np.allclose(known[i] - mid, 0.5**k * 0.5, rtol=1e-9)
            known = np.sort(np.concatenate([known, mid]))
