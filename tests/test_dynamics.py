"""Zero dynamics: coupled ODE system vs the exact matrix solution."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import distinct_random_state, fock_state, ring_state, wrong_sign_closed_form

from stellar_zeros import dynamics
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

    def test_nan_rhs_is_a_step_failure(self, monkeypatch):
        # The 1j zero rides 1j e^{it}; past Re z = -0.5 (t = pi/6) every
        # right-hand side is NaN, so each step there is rejected until the
        # step size underflows.  The zero has no neighbour, so this is a
        # StepFailure rather than a ZeroCollision.
        wf = build_wavefunction(stellar_state_from_zeros([1j]))
        rhs = dynamics._rhs_raw

        def poisoned(y, H):
            return [complex(math.nan, math.nan)] * len(y) if y[2].real < -0.5 else rhs(y, H)

        monkeypatch.setattr(dynamics, "_rhs_raw", poisoned)
        with pytest.raises(StepFailure, match=r"t=0\.523"):
            integrate(wf, HP, np.linspace(0, 2.0, 9))

    @pytest.mark.parametrize("rank,seed", [(1, 0), (3, 3), (4, 3), (5, 1)])
    def test_dense_grid_costs_fewer_rhs_than_samples(self, monkeypatch, rank, seed):
        # Grid samples come from the dense output of the steps that cover
        # them, so the right-hand side is evaluated for the steps the
        # dynamics need, not once or more per sample.
        _, wf = distinct_random_state(rank, seed, scale=0.8, min_gap=0.12, max_extent=2.5)
        ts = np.linspace(0, 6, 3721)
        rhs, calls = dynamics._rhs_raw, [0]

        def counted(y, H):
            calls[0] += 1
            return rhs(y, H)

        monkeypatch.setattr(dynamics, "_rhs_raw", counted)
        for H in (HP, QuadraticHamiltonian(0.5, 0.45, 0.08, 0.12, -0.1)):
            calls[0] = 0
            integrate(wf, H, ts)
            assert calls[0] < ts.size, (H, calls[0])


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

    def test_grid_validation(self):
        wf = build_wavefunction(fock_state(1))
        with pytest.raises(InvalidParameter):
            sample_closed_form(wf, HP, [-0.5, 1.0])
        with pytest.raises(InvalidParameter):
            sample_closed_form(wf, HP, [0.0, 0.5, 0.4])

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
        vt = evolve_fock(stellar_to_fock(st, 80), H, t, 80)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        got = zeros_from_fock(vt, 3, hw)
        assert matching_distance(got, want) < 1e-8


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

    def test_b_zero_and_omega2_zero_closed_form(self):
        _, wf = distinct_random_state(2, 8, scale=0.6)
        for H in (H_B0, H_W0):
            out = evolve_form(wf, H, 0.5)
            tr = integrate(wf, H, [0.0, 0.5])
            assert matching_distance(out.zeros, tr.paths[:, -1]) < 1e-8, H
            assert abs(out.g2 - tr.gauss_path[0, -1]) < 1e-8, H
            assert abs(out.g1 - tr.gauss_path[1, -1]) < 1e-8, H


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
