"""Phase-shift specialization: ellipses, crossings, certificates."""

import math

import numpy as np
import pytest

from conftest import distinct_random_state, fock_state, separated_state

import stellar_zeros.phase as phase_mod

from stellar_zeros import (
    InvalidParameter,
    QuadraticHamiltonian,
    StellarState,
    antipodal_check,
    build_wavefunction,
    closed_form,
    crossing_guarantee_audit,
    detect_crossings,
    eigenvalues_small,
    gershgorin_check,
    imbalance,
    matching_distance,
    phase_shift_matrix,
    phase_trajectory,
    stellar_state_from_zeros,
)

HP = QuadraticHamiltonian.phase_shift()


class TestPhaseShiftMatrix:
    def test_time_zero_is_diagonal(self):
        zeros = [0.5 + 0.3j, -1.0 + 0.2j]
        m = phase_shift_matrix(zeros, -0.5, 0.0)
        assert np.allclose(m, np.diag(zeros))

    def test_half_turn_negates(self):
        zeros = [0.5 + 0.3j, -1.0 + 0.2j]
        m = phase_shift_matrix(zeros, -0.5, math.pi)
        assert np.max(np.abs(m + np.diag(zeros))) < 1e-14

    def test_rank1_ellipse(self):
        for t in np.linspace(0, 2 * math.pi, 9):
            m = phase_shift_matrix([1j], -0.5, t)
            assert abs(m[0, 0] - 1j * np.exp(1j * t)) < 1e-14

    def test_matches_general_closed_form(self):
        _, wf = distinct_random_state(3, 0)
        dev = 0.0
        for t in np.linspace(0, 2 * math.pi, 64):
            eig = eigenvalues_small(phase_shift_matrix(wf.zeros, wf.g2, t, wf.g1))
            dev = max(dev, matching_distance(eig, closed_form(wf, HP, t)))
        assert dev < 1e-10

    def test_degenerate_zeros_rejected(self):
        with pytest.raises(Exception):
            phase_shift_matrix([1.0, 1.0], -0.5, 0.1)


class TestDetectCrossings:
    def test_rank1_crossing_times_and_positions(self):
        traj = phase_trajectory([1j], -0.5)
        events = detect_crossings(traj)
        assert len(events) == 2
        assert abs(events[0].t_star - math.pi / 2) < 1e-9
        assert abs(events[0].x_star + 1.0) < 1e-9
        assert abs(events[1].t_star - 3 * math.pi / 2) < 1e-9
        assert abs(events[1].x_star - 1.0) < 1e-9
        for e in events:
            assert e.refinement_width <= 1e-10
            lam = traj.evaluator(e.t_star)
            assert min(abs(z.imag) for z in lam) <= 1e-9

    def test_fock_state_always_real(self):
        wf = build_wavefunction(fock_state(1))
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        events = detect_crossings(traj)
        assert len(events) == 1
        assert events[0].flag == "always_real"
        assert abs(events[0].x_star) < 1e-10

    def test_conjugate_pair_events_come_in_antipodal_pairs(self):
        st = stellar_state_from_zeros([0.3j, -0.3j])
        wf = build_wavefunction(st)
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        events = [e for e in detect_crossings(traj) if e.flag == "crossing"]
        assert len(events) >= 2 and len(events) % 2 == 0
        # for every event there is a partner half a period later at -x
        for e in events:
            partner_t = (e.t_star + math.pi) % (2 * math.pi)
            partners = [
                o
                for o in events
                if abs((o.t_star - partner_t + math.pi) % (2 * math.pi) - math.pi) < 1e-6
            ]
            assert partners and min(abs(o.x_star + e.x_star) for o in partners) < 1e-7

    def test_even_crossing_count_per_zero(self):
        for seed in (3, 5):
            st = separated_state(3, seed)
            wf = build_wavefunction(st)
            traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
            events = [e for e in detect_crossings(traj) if e.flag == "crossing"]
            for k in range(3):
                count = sum(1 for e in events if e.zero_index == k)
                assert count % 2 == 0 and count >= 2

    def test_preconditions(self):
        traj = phase_trajectory([1j], -0.5)
        short = type(traj)(
            traj.times[:100], traj.paths[:, :100], traj.gauss_path[:, :100],
            "closed", traj.evaluator,
        )
        with pytest.raises(InvalidParameter):
            detect_crossings(short)
        no_eval = type(traj)(traj.times, traj.paths, traj.gauss_path, "ode", None)
        with pytest.raises(InvalidParameter):
            detect_crossings(no_eval)


class TestGershgorin:
    def test_rank1_trivial(self):
        rep = gershgorin_check([1j], -0.5)
        assert rep.threshold == 0.0
        assert rep.discs_disjoint_all_t and rep.separation_ok and rep.certified

    def test_separated_pair(self):
        rep = gershgorin_check([2.0, -2.0], -0.5)
        assert abs(rep.min_separation - 4.0) < 1e-14
        assert abs(rep.threshold - math.sqrt(2.0)) < 1e-14
        assert rep.separation_ok and rep.discs_disjoint_all_t

    def test_close_pair_fails_condition(self):
        rep = gershgorin_check([0.1, -0.1], -0.5)
        assert not rep.separation_ok

    def test_radius_samples(self):
        rep = gershgorin_check([2.0, -2.0], -0.5, t_samples=64)
        want = np.abs(np.sin(rep.times)) / 4.0
        assert np.max(np.abs(rep.radii[0] - want)) < 1e-14

    def test_complex_g2_not_certified(self):
        rep = gershgorin_check([2.0, -2.0], -0.5 + 0.2j)
        assert not rep.certified


class TestAudit:
    def test_rank1_guaranteed_two_events(self):
        res = crossing_guarantee_audit(stellar_state_from_zeros([1j]))
        assert res.outcome == "GuaranteedAndObserved"
        assert res.count == 2 and res.guaranteed

    def test_rank0(self):
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.2, chi=0.1)
        res = crossing_guarantee_audit(st)
        assert res.outcome == "NotGuaranteedNone"

    def test_separated_rank2_at_least_four(self):
        res = crossing_guarantee_audit(separated_state(2, 1))
        assert res.outcome == "GuaranteedAndObserved"
        assert res.count >= 4

    def test_close_zeros_not_guaranteed_but_observed(self):
        st = stellar_state_from_zeros([0.3j, 0.55j])  # far below the threshold
        res = crossing_guarantee_audit(st)
        assert not res.guaranteed
        assert res.outcome in ("NotGuaranteedObserved", "NotGuaranteedNone")


class TestImbalance:
    def test_balanced_pair(self):
        assert imbalance([1j, -1j]) == (1, 1)

    def test_two_up_one_down(self):
        assert imbalance([1j, 2j, -1j]) == (2, 1)

    def test_real_zero_in_band(self):
        assert imbalance([0.5]) == (0, 0)


class TestAntipodal:
    def test_matrix_identity_holds(self):
        for rank, seed in ((1, 3), (3, 1), (4, 6)):
            _, wf = distinct_random_state(rank, seed, scale=0.8)
            traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
            worst = max(
                antipodal_check(traj, t) for t in np.linspace(0, math.pi, 16, endpoint=False)
            )
            assert worst < 1e-8

    def test_empty_zero_set(self):
        traj = phase_trajectory([], -0.5)
        assert antipodal_check(traj, 0.7) == 0.0


class TestTrackingCost:
    @pytest.mark.parametrize("seed", [42, 43])
    def test_one_period_takes_about_one_solve_per_sample(self, seed, monkeypatch):
        # These rank-5 fixtures once cost 98,792 and 229,836 eigen-solves
        # per period under a scale-invariant refinement test.
        calls = []
        solve = phase_mod.eigenvalues_small

        def counting(m):
            calls.append(1)
            return solve(m)

        monkeypatch.setattr(phase_mod, "eigenvalues_small", counting)
        _, wf = distinct_random_state(5, seed, scale=0.8, min_gap=0.05)
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        assert traj.times.size == 513
        assert len(calls) <= 1024


def test_imbalanced_states_cross(imbalanced_rank=3):
    from conftest import imbalanced_state

    st = imbalanced_state(imbalanced_rank, 2)
    wf = build_wavefunction(st)
    n_plus, n_minus = imbalance(wf.zeros)
    assert n_plus != n_minus
    traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
    events = [e for e in detect_crossings(traj) if e.flag == "crossing"]
    assert len(events) >= 1
