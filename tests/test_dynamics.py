"""Zero dynamics: coupled ODE system vs the exact matrix solution."""

import math

import numpy as np
import pytest

from conftest import distinct_random_state, fock_state, ring_state

from stellar_zeros import (
    DegenerateInitialZeros,
    InvalidParameter,
    QuadraticHamiltonian,
    TrackingAmbiguity,
    UnsupportedHamiltonian,
    WavefunctionForm,
    ZeroCollision,
    build_wavefunction,
    closed_form,
    evolve_fock,
    evolve_form,
    eval_entire,
    eval_form,
    integrate,
    lax_data,
    match_sets,
    matching_distance,
    ode_rhs,
    sample_closed_form,
    second_order_acceleration,
    stellar_state_from_zeros,
    stellar_to_fock,
)

HP = QuadraticHamiltonian.phase_shift()


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

    def test_second_order_acceleration_exact(self):
        # the same fixture: lambda''(0) = -omega^2 * 1 + 8 B^2 / 2^3 = -3/4
        acc = second_order_acceleration([1.0, -1.0], HP)
        assert abs(acc[0] + 0.75) < 1e-15


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
            integrate(wf, HP, [0.5, 1.0])
        with pytest.raises(InvalidParameter):
            integrate(wf, HP, [0.0, 0.5, 0.4])

    def test_initial_gap_guard(self):
        wf = WavefunctionForm(-0.5, 0.0, 0.0, (0.3, 0.3 + 1e-8), 1.0).normalized()
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
                list(tr.paths[:, -1]), 1.0,
            ).normalized()
            back = integrate(end, H.negated(), ts)
            assert matching_distance(back.paths[:, -1], wf.zeros) < 1e-7


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

    def test_unsupported_hamiltonians(self):
        _, wf = distinct_random_state(1, 1)
        with pytest.raises(UnsupportedHamiltonian):
            closed_form(wf, QuadraticHamiltonian(A=1.0, D=0.5), 1.0)  # B = 0
        with pytest.raises(UnsupportedHamiltonian):
            closed_form(wf, QuadraticHamiltonian(A=1.0, B=1.0, C=2.0), 1.0)  # omega^2 = 0

    def test_degenerate_zeros(self):
        wf = WavefunctionForm(-0.5, 0.0, 0.0, (0.5, 0.5 + 1e-11), 1.0).normalized()
        with pytest.raises(DegenerateInitialZeros):
            lax_data(wf, HP)

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
            matching_distance(tr.paths[:, i], closed_form(wf, HP, t, rotation_sign=+1))
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

    def test_evaluator_present(self):
        st = ring_state(2, 3)
        wf = build_wavefunction(st)
        cf = sample_closed_form(wf, HP, np.linspace(0, 1, 5))
        zs = cf.evaluator(0.5)
        assert matching_distance(zs, closed_form(wf, HP, 0.5)) < 1e-12

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

    def test_exact_collision_on_grid_raises(self):
        # The +-1 pair meets at the origin at t = pi/2, a grid point here:
        # no assignment through the collision can be justified.
        wf = build_wavefunction(stellar_state_from_zeros([1.0, -1.0]))
        with pytest.raises(TrackingAmbiguity) as excinfo:
            sample_closed_form(wf, HP, np.linspace(0, math.pi, 9))
        err = excinfo.value
        assert abs(err.t - math.pi / 2) < 1e-9
        assert err.displacement >= 0.5 * err.gap


class TestEvolveForm:
    def test_time_zero_roundtrip_up_to_phase(self):
        _, wf = distinct_random_state(2, 2, scale=0.7)
        out = evolve_form(wf, HP, 0.0)
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(np.abs(eval_form(out, xs)) - np.abs(eval_form(wf, xs)))) < 1e-9
        assert matching_distance(out.zeros, wf.zeros) < 1e-9

    def test_constant_hamiltonian_global_phase_only(self):
        _, wf = distinct_random_state(2, 5, scale=0.7)
        out = evolve_form(wf, QuadraticHamiltonian(F=1.3), 0.8)
        assert matching_distance(out.zeros, wf.zeros) < 1e-10
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(np.abs(eval_form(out, xs)) - np.abs(eval_form(wf, xs)))) < 1e-9

    def test_oracle_cross_validation_with_phase(self):
        st = ring_state(3, 7)
        wf = build_wavefunction(st)
        H = HP
        t = 0.7
        v = stellar_to_fock(st, 120)
        vt = evolve_fock(v, H, t, 120)
        out = evolve_form(wf, H, t, phase_reference=lambda z: eval_entire(vt, z))
        xs = np.arange(-3.0, 3.01, 0.5)
        got = eval_form(out, xs)
        want = eval_entire(vt, xs)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_b_zero_falls_back_to_ode(self):
        _, wf = distinct_random_state(2, 8, scale=0.6)
        H = QuadraticHamiltonian(A=0.3, D=0.2)  # B = 0: pure potential
        out = evolve_form(wf, H, 0.5)
        assert len(out.zeros) == 2


class TestMatching:
    def test_match_sets_permutation(self):
        a = np.array([1.0, 2.0, 3.0], dtype=complex)
        b = np.array([3.01, 1.02, 1.98], dtype=complex)
        perm, dists = match_sets(a, b)
        assert list(perm) == [1, 2, 0]
        assert np.max(dists) < 0.03

    def test_matching_distance_empty(self):
        assert matching_distance([], []) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidParameter):
            match_sets([1.0], [1.0, 2.0])
