"""Phase-shift specialization: ellipses, crossings, certificates."""

import math

import numpy as np
import pytest

from conftest import (distinct_random_state, eval_entire_envelope, fock_state,
                      imbalanced_state, separated_state)

import stellar_zeros.dynamics as dynamics_mod
import stellar_zeros.phase as phase_mod

from stellar_zeros import (
    DegenerateInitialZeros,
    InvalidParameter,
    QuadraticHamiltonian,
    StellarState,
    TrackingAmbiguity,
    WavefunctionForm,
    antipodal_check,
    build_wavefunction,
    closed_form,
    closed_form_matrix,
    crossing_guarantee_audit,
    detect_crossings,
    eigenvalues_small,
    evolve_fock,
    gershgorin_check,
    imbalance,
    matching_distance,
    phase_trajectory,
    random_stellar_state,
    sample_closed_form,
    stellar_state_from_zeros,
    stellar_to_fock,
    zero_pair,
)

HP = QuadraticHamiltonian.phase_shift()


def phase_zero_matrix(zeros, g2, t, g1=0.0):
    """The general zero matrix at the phase shift."""
    return closed_form_matrix(zero_pair(WavefunctionForm(g2, g1, 0.0, zeros)), HP, t)


def hand_derived_phase_shift_matrix(zeros, g2, g1, t):
    """``Lambda0 e^{-it} + L sin t`` with the phase-shift velocities written out."""
    lam = np.array(zeros, dtype=complex)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, np.inf)
    vel = -2j * g2 * lam - 1j * g1 - 1j * np.sum(1.0 / diff, axis=1)
    lmat = 1j / diff
    np.fill_diagonal(lmat, vel + 1j * lam)
    return np.diag(lam) * np.exp(-1j * t) + lmat * math.sin(t)


def sampled_min_separation(zeros, g2, g1, ts):
    """Smallest gap between two Gershgorin discs of the phase-shift zero matrix at times ``ts``."""
    x0, lmat, _ = zero_pair(WavefunctionForm(g2, g1, 0.0, zeros)).terms  # L = P0 here
    centers = np.outer(np.diag(x0), np.cos(ts)) + np.outer(np.diag(lmat), np.sin(ts))
    off = np.abs(lmat)
    np.fill_diagonal(off, 0.0)
    radii = np.outer(off.sum(axis=1), np.abs(np.sin(ts)))
    i, j = np.triu_indices(len(zeros), 1)
    return float(np.min(np.abs(centers[i] - centers[j]) - radii[i] - radii[j]))


class TestPhaseShiftMatrix:
    def test_time_zero_is_diagonal(self):
        zeros = [0.5 + 0.3j, -1.0 + 0.2j]
        m = phase_zero_matrix(zeros, -0.5, 0.0)
        assert np.allclose(m, np.diag(zeros))

    def test_half_turn_negates(self):
        zeros = [0.5 + 0.3j, -1.0 + 0.2j]
        m = phase_zero_matrix(zeros, -0.5, math.pi)
        assert np.max(np.abs(m + np.diag(zeros))) < 1e-14

    def test_rank1_ellipse(self):
        for t in np.linspace(0, 2 * math.pi, 9):
            m = phase_zero_matrix([1j], -0.5, t)
            assert abs(m[0, 0] - 1j * np.exp(1j * t)) < 1e-14

    def test_matches_general_closed_form(self):
        _, wf = distinct_random_state(3, 0)
        dev = 0.0
        for t in np.linspace(0, 2 * math.pi, 64):
            m = hand_derived_phase_shift_matrix(wf.zeros, wf.g2, wf.g1, t)
            dev = max(dev, matching_distance(eigenvalues_small(m), closed_form(wf, HP, t)))
        assert dev < 1e-10

    def test_degenerate_zeros_rejected(self):
        with pytest.raises(DegenerateInitialZeros):
            phase_zero_matrix([1.0, 1.0], -0.5, 0.1)


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
            lam = traj.zeros_at(e.t_star)
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
            traj.times[:100], traj.paths[:, :100], traj.gauss_path[:, :100], traj.pair, traj.H
        )
        with pytest.raises(InvalidParameter):
            detect_crossings(short)
        no_pair = type(traj)(traj.times, traj.paths, traj.gauss_path)
        with pytest.raises(InvalidParameter):
            detect_crossings(no_pair)
        part = sample_closed_form(WavefunctionForm(-0.5, 0.0, 0.0, [1j]), HP,
                                  np.linspace(0.0, 3.0, 300))
        with pytest.raises(InvalidParameter):
            detect_crossings(part)

    def test_other_hamiltonian_rejected(self):
        # The pencil holds only for X(t) = cos t Lambda0 + sin t L.
        wf = build_wavefunction(random_stellar_state(3, 1))
        H = QuadraticHamiltonian(0.5, 0.45, 0.08, 0.12, -0.1)
        traj = sample_closed_form(wf, H, np.linspace(0.0, 2.0 * math.pi, 513))
        with pytest.raises(InvalidParameter):
            detect_crossings(traj)

    def test_crossing_pair_inside_one_sample_step(self):
        # Zero 1 rises above the axis from t = 0.6202 to 0.6242, a third of
        # the 2 pi / 512 sample step, so a sign-change scan of the samples
        # misses both crossings and their antipodes and reports 10 events.
        st = random_stellar_state(5, 108)
        wf = build_wavefunction(st)
        events = detect_crossings(phase_trajectory(wf.zeros, wf.g2, wf.g1))
        assert len(events) == 14
        assert {e.flag for e in events} == {"crossing"}
        # Independent check: the state rotated by exp(-i t* n) in the Fock
        # basis vanishes at x*, to the series' own roundoff floor.
        v = stellar_to_fock(st, 200)
        for e in events:
            val, env = eval_entire_envelope(evolve_fock(v, HP, e.t_star), e.x_star)
            assert abs(val) <= 1e-6 * env, (e, abs(val) / env)

    def test_zero_pinned_on_axis_makes_the_pencil_singular(self):
        # An odd state keeps a zero at 0 for all t, so cos t K0 + sin t K1
        # is singular at every t; its other two zeros mirror each other.
        st = StellarState(rank=3, core=np.array([0, 0.6, 0, 0.8j]), alpha=0.0, chi=0.0)
        wf = build_wavefunction(st)
        events = detect_crossings(phase_trajectory(wf.zeros, wf.g2, wf.g1))
        pinned = [e for e in events if e.flag == "always_real"]
        crossings = [e for e in events if e.flag == "crossing"]
        assert len(pinned) == 1 and abs(pinned[0].x_star) < 1e-12
        assert len(crossings) == 8
        for e in crossings:
            mirror = [
                o for o in crossings
                if o.zero_index != e.zero_index and abs(o.t_star - e.t_star) < 1e-9
            ]
            assert len(mirror) == 1 and abs(mirror[0].x_star + e.x_star) < 1e-9


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

    def test_exponent_without_decay_is_rejected(self):
        # The threshold divides by |Re g2|; the form's check comes first.
        with pytest.raises(InvalidParameter):
            gershgorin_check([1j, -1j], 0.0)

    def test_close_pair_fails_condition(self):
        rep = gershgorin_check([0.1, -0.1], -0.5)
        assert not rep.separation_ok

    def test_near_tangent_pair_decided_exactly(self):
        # The discs of this pair touch at scale s* = 18/17.  Just below it they
        # overlap by 3.8e-6 near t = 4.494, too briefly for a 256-point grid.
        zeros, g2, g1 = np.array([1.0 + 0.3j, -0.8 - 0.1j]), -0.5, 0.4 + 0.2j
        s_star = 18.0 / 17.0
        inside = list(zeros * s_star * (1.0 - 1e-6))
        assert sampled_min_separation(inside, g2, g1, np.linspace(4.49, 4.50, 10001)) < -3e-6
        assert not gershgorin_check(inside, g2, g1).discs_disjoint_all_t
        outside = list(zeros * s_star * (1.0 + 1e-6))
        assert gershgorin_check(outside, g2, g1).discs_disjoint_all_t

    def test_matches_dense_sampling_away_from_tangency(self):
        ts = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        verdicts = []
        for r in range(2, 7):
            for seed in range(4):
                for make in (separated_state, imbalanced_state, random_stellar_state):
                    wf = build_wavefunction(make(r, seed))
                    sep = sampled_min_separation(wf.zeros, wf.g2, wf.g1, ts)
                    assert abs(sep) > 1e-3  # far from tangency: sampling is decisive
                    rep = gershgorin_check(wf.zeros, wf.g2, wf.g1)
                    assert rep.discs_disjoint_all_t == (sep > 0)
                    verdicts.append(rep.discs_disjoint_all_t)
        assert any(verdicts) and not all(verdicts)

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

    @pytest.mark.parametrize("h", [(0.5, 0.5, 0.0, 0.3, 0.0), (0.5, 0.45, 0.08, 0.12, -0.1)])
    def test_other_hamiltonian_rejected(self, h):
        # omega^2 = 1 with kappa = CE - 2BD = -0.3, and omega^2 != 1: X(t + pi) = -X(t)
        # fails under both, and the distance read 0.600 and 0.582 here.
        wf = build_wavefunction(random_stellar_state(3, 1, scale=0.8))
        traj = sample_closed_form(wf, QuadraticHamiltonian(*h), np.linspace(0.0, 2.0 * math.pi, 257))
        with pytest.raises(InvalidParameter, match="phase-shift"):
            antipodal_check(traj, 0.7)
        with pytest.raises(InvalidParameter, match="phase-shift"):
            detect_crossings(traj)


class TestTrackingCost:
    @pytest.mark.parametrize("seed", [42, 43])
    def test_one_period_takes_about_one_solve_per_sample(self, seed, monkeypatch):
        # These rank-5 fixtures once cost 98,792 and 229,836 eigen-solves
        # per period under a scale-invariant refinement test.
        solved = []  # matrices in each eigen-solve call
        solve = dynamics_mod.eigenvalues_small

        def counting(m):
            solved.append(len(m))
            return solve(m)

        monkeypatch.setattr(dynamics_mod, "eigenvalues_small", counting)
        _, wf = distinct_random_state(5, seed, scale=0.8, min_gap=0.05)
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        assert traj.times.size == 257
        assert sum(solved) <= traj.times.size


def _fixture_forms():
    """Criterion-6 and criterion-7 fixtures, random states of ranks 1-6, and rank 0."""
    states = [separated_state(2 + i % 3, 400 + i) for i in range(20)]
    states += [imbalanced_state(1 + i % 5, 500 + i) for i in range(20)]
    states += [random_stellar_state(r, seed) for r in range(1, 7) for seed in range(2)]
    states.append(StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.2, chi=0.1))
    return [build_wavefunction(st) for st in states]


class TestHalfPeriod:
    """``X(t + pi) = -X(t)``: the second half of a period is the first half negated."""

    def test_matches_sampling_every_time(self):
        grid = np.linspace(0.0, 2.0 * math.pi, 257)
        ranks = set()
        for wf in _fixture_forms():
            half = phase_trajectory(wf.zeros, wf.g2, wf.g1)
            full = sample_closed_form(wf, HP, grid)
            scale = max(1.0, float(np.max(np.abs(full.paths), initial=0.0)))
            assert np.array_equal(half.times, full.times)
            assert np.max(np.abs(half.paths - full.paths), initial=0.0) <= 1e-11 * scale
            assert np.max(np.abs(half.gauss_path - full.gauss_path)) <= 1e-11
            events = [[(e.zero_index, e.flag, e.t_star) for e in detect_crossings(tr)]
                      for tr in (half, full)]
            assert events[0] == events[1], wf.zeros
            ranks.add(wf.rank)
        assert ranks == set(range(7))

    def test_exact_collision_raises_at_the_same_time(self):
        # The +-1 pair meets at the origin at t = pi/2, a grid point.
        wf = build_wavefunction(stellar_state_from_zeros([1.0, -1.0]))
        errors = []
        for run in (
            lambda: phase_trajectory(wf.zeros, wf.g2, wf.g1),
            lambda: sample_closed_form(wf, HP, np.linspace(0.0, 2.0 * math.pi, 513)),
        ):
            with pytest.raises(TrackingAmbiguity) as excinfo:
                run()
            errors.append(excinfo.value)
        assert errors[0].t == errors[1].t and abs(errors[0].t - math.pi / 2) < 1e-9


class TestSolveCounts:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Sizes of the stacks passed to the eigen-solver, one entry per call."""
        sizes = []
        solve = dynamics_mod.eigenvalues_small
        monkeypatch.setattr(
            dynamics_mod, "eigenvalues_small", lambda m: sizes.append(len(m)) or solve(m)
        )
        return sizes

    def test_period_solves_its_first_half_only(self, solves):
        wf = build_wavefunction(separated_state(3, 1))
        phase_trajectory(wf.zeros, wf.g2, wf.g1)
        assert solves == [128]

    def test_crossing_times_take_one_stacked_solve(self, solves):
        wf = build_wavefunction(separated_state(3, 1))
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        del solves[:]
        events = detect_crossings(traj)
        assert len(events) >= 6
        assert solves == [len(phase_mod._pencil_times(traj.pair, traj.H))]

    def test_antipodal_pair_takes_one_solve(self, solves):
        wf = build_wavefunction(separated_state(3, 1))
        traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
        del solves[:]
        assert antipodal_check(traj, 0.7) < 1e-8
        assert solves == [2]


def per_event_crossings(traj):
    """Crossing events with one tracker call per pencil time: the reference for the array pass."""
    pinned = np.all(np.abs(traj.paths.imag) < phase_mod.IM_BAND, axis=1)
    events = [
        phase_mod.CrossingEvent(k, 0.0, float(traj.paths[k, 0].real), "always_real")
        for k in np.flatnonzero(pinned).tolist()
    ]
    t_p = phase_mod._pencil_times(traj.pair, traj.H)
    before = np.searchsorted(traj.times, t_p, side="right") - 1
    for t, i, fresh in zip(t_p.tolist(), before.tolist(), traj.zeros_at(t_p)):
        zs = dynamics_mod._track([traj.times[i], t], [traj.paths[:, i], fresh], traj.zeros_at)[-1]
        scale = phase_mod.REAL_TOL * max(1.0, float(np.max(np.abs(zs))))
        for k in np.flatnonzero(~pinned & (np.abs(zs.imag) <= scale)).tolist():
            events.append(phase_mod.CrossingEvent(k, t, float(zs[k].real)))
    events.sort(key=lambda e: (e.t_star, e.zero_index))
    return events


def event_rows(events):
    return [(e.zero_index, e.flag, e.t_star, e.x_star) for e in events]


@pytest.fixture(scope="module")
def grid_forms():
    """The half-period fixtures, random states of ranks 1-6 (seeds 0-9), and ranks 8 and 10."""
    forms = _fixture_forms()
    states = [random_stellar_state(r, seed) for r in range(1, 7) for seed in range(10)]
    states += [random_stellar_state(8, 0), random_stellar_state(10, 0)]
    return forms + [build_wavefunction(st) for st in states]


class TestGridIndependence:
    """Crossing times come from the pencil, so the sample grid only orders the zeros."""

    def test_events_match_a_2049_sample_period(self, grid_forms):
        dense = np.linspace(0.0, 2.0 * math.pi, 2049)
        for wf in grid_forms:
            coarse = detect_crossings(phase_trajectory(wf.zeros, wf.g2, wf.g1))
            fine = detect_crossings(sample_closed_form(wf, HP, dense))
            assert event_rows(coarse) == event_rows(fine), wf.zeros

    def test_array_pass_matches_per_event_tracking(self, grid_forms, monkeypatch):
        trajectories = [phase_trajectory(wf.zeros, wf.g2, wf.g1) for wf in grid_forms]
        solves, refined = [], 0
        solve = dynamics_mod.eigenvalues_small
        monkeypatch.setattr(
            dynamics_mod, "eigenvalues_small", lambda m: solves.append(len(m)) or solve(m)
        )
        for traj in trajectories:
            del solves[:]
            events = detect_crossings(traj)
            refined += len(solves) - 1  # passes that halve unsafe steps, after the pencil solve
            assert event_rows(events) == event_rows(per_event_crossings(traj)), traj.paths[:, 0]
        assert refined, "these fixtures need steps that fail the half-gap test"


def test_imbalanced_states_cross(imbalanced_rank=3):
    from conftest import imbalanced_state

    st = imbalanced_state(imbalanced_rank, 2)
    wf = build_wavefunction(st)
    n_plus, n_minus = imbalance(wf.zeros)
    assert n_plus != n_minus
    traj = phase_trajectory(wf.zeros, wf.g2, wf.g1)
    events = [e for e in detect_crossings(traj) if e.flag == "crossing"]
    assert len(events) >= 1
