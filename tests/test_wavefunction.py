"""Closed wavefunction form, Hermite-series extension, zero counting."""

import math

import numpy as np
import pytest

from conftest import distinct_random_state, fock_state, standard_grid

from stellar_zeros import (
    InvalidParameter,
    PrecisionLoss,
    StellarState,
    Verdict,
    ZeroOnContour,
    annihilation_matrix,
    apply_creation_polynomial,
    build_wavefunction,
    count_zeros_box,
    energy_moment,
    eval_entire,
    eval_entire_envelope,
    eval_form,
    form_from_json,
    form_norm_squared,
    form_to_json,
    FockVector,
    gaussian_packet_params,
    growth_bound,
    growth_bound_holds,
    hermite_eval_cutoff,
    hudson_test,
    matching_distance,
    random_stellar_state,
    stellar_eval,
    stellar_state_from_zeros,
    stellar_to_fock,
)

PI14 = math.pi ** -0.25


def eval_cutoff_for(st, max_im=3.0, rel=1e-9):
    return hermite_eval_cutoff(abs(st.chi), max_im, rel, st.rank, abs(st.alpha))


class TestGaussianPacket:
    def test_vacuum_parameters(self):
        wf = gaussian_packet_params(0.0, 0.0)
        assert abs(wf.g2 + 0.5) < 1e-15
        assert abs(wf.g1) < 1e-15
        assert abs(wf.g0 + 0.25 * math.log(math.pi)) < 1e-14
        assert wf.zeros == ()

    def test_displaced_peak_position(self):
        wf = gaussian_packet_params(1.0, 0.0)
        # |psi|^2 peaks where the real part of the exponent is stationary.
        peak = -wf.g1.real / (2 * wf.g2.real)
        assert abs(peak - math.sqrt(2)) < 1e-14

        # Oracle: <x> from the Fock representation.
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=1.0, chi=0.0)
        v = stellar_to_fock(st, 60)
        a = annihilation_matrix(61)
        x = (a + a.conj().T) / math.sqrt(2)
        mean_x = np.real(np.vdot(v.coeffs, x @ v.coeffs))
        assert abs(mean_x - math.sqrt(2)) < 1e-10

    @pytest.mark.parametrize("r", (0.4, 0.9))
    def test_squeezed_width_sign(self, r):
        wf = gaussian_packet_params(0.0, r)
        assert abs(wf.g2 + math.exp(2 * r) / 2) < 1e-12

        # Oracle: Var(x) = exp(-2r)/2 for position squeezing.
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.0, chi=r)
        v = stellar_to_fock(st, 80)
        a = annihilation_matrix(81)
        x = (a + a.conj().T) / math.sqrt(2)
        var = np.real(np.vdot(v.coeffs, x @ (x @ v.coeffs)))
        assert abs(var - math.exp(-2 * r) / 2) < 1e-10

    def test_normalized(self):
        wf = gaussian_packet_params(0.7 - 0.2j, 0.3 + 0.4j)
        assert abs(form_norm_squared(wf) - 1.0) < 1e-12

    def test_matches_fock_path_on_sample_points(self):
        alpha, chi = 0.5 + 0.3j, -0.25 + 0.35j
        wf = gaussian_packet_params(alpha, chi)
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=alpha, chi=chi)
        v = stellar_to_fock(st, eval_cutoff_for(st))
        zs = np.linspace(-2.2, 2.2, 20) + 0.15j
        a = eval_form(wf, zs)
        b = eval_entire(v, zs)
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8


class TestBuildWavefunction:
    def test_fock_one_zero_at_origin(self):
        wf = build_wavefunction(fock_state(1))
        assert len(wf.zeros) == 1
        assert abs(wf.zeros[0]) < 1e-12

    def test_fock_two_hermite_roots(self):
        wf = build_wavefunction(fock_state(2))
        assert matching_distance(wf.zeros, [1 / math.sqrt(2), -1 / math.sqrt(2)]) < 1e-10

    def test_rank_matches_zero_count(self):
        for rank in range(6):
            st = random_stellar_state(rank, 5)
            assert len(build_wavefunction(st).zeros) == rank

    def test_normalization(self):
        wf = build_wavefunction(random_stellar_state(4, 2))
        assert abs(form_norm_squared(wf) - 1.0) < 1e-8

    def test_norm_against_dense_quadrature(self):
        wf = build_wavefunction(random_stellar_state(3, 8))
        xs = np.arange(-12.0, 12.0, 5e-4)
        dense = np.trapezoid(np.abs(eval_form(wf, xs)) ** 2, xs)
        assert abs(dense - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "rank,seed", [(14, 24), (15, 2), (16, 3), (17, 2), (18, 1), (19, 2), (20, 1)]
    )
    def test_moderate_ranks_build(self, rank, seed):
        # Zeros out to |z| ~ 40; the state rebuilt from them must be the same state.
        st = random_stellar_state(rank, seed)
        wf = build_wavefunction(st)
        assert len(wf.zeros) == rank
        back = stellar_state_from_zeros(wf.zeros, alpha=st.alpha, chi=st.chi)
        assert abs(np.vdot(back.core, st.core)) > 1.0 - 1e-9

    @pytest.mark.parametrize("alpha,chi", [(0.0, 0.0), (0.4, 0.0), (0.3, 0.5), (-0.2j, 0.2j)])
    def test_rank_one_leading_coefficient(self, alpha, chi):
        # Leading coefficient of (c0 + c1 a†) applied to a packet is
        # c1 (1 + 2a)/sqrt(2) with a = -g2 (exact, pre-normalization).
        packet = gaussian_packet_params(alpha, chi)
        c0, c1 = 0.3 - 0.1j, 0.8 + 0.25j
        poly = apply_creation_polynomial(packet, [c0, c1])
        a = -packet.g2
        want = c1 * (1 + 2 * a) / math.sqrt(2)
        assert abs(poly[-1] - want) < 1e-14 * abs(want)


class TestEvalForm:
    def test_vanishes_at_zero(self):
        wf = build_wavefunction(fock_state(2))
        assert abs(eval_form(wf, wf.zeros[0])) < 1e-14

    def test_vacuum_at_origin(self):
        wf = gaussian_packet_params(0.0, 0.0)
        assert abs(eval_form(wf, 0.0) - PI14) < 1e-14

    def test_cross_path_fock_one(self):
        wf = build_wavefunction(fock_state(1))
        v = stellar_to_fock(fock_state(1), 60)
        assert abs(eval_form(wf, 1.0) - eval_entire(v, 1.0)) < 1e-10


class TestEvalEntire:
    def test_vacuum_at_i(self):
        v = FockVector(np.array([1.0, 0, 0, 0], dtype=complex))
        want = PI14 * math.exp(0.5)
        assert abs(eval_entire(v, 1j) - want) < 1e-13

    def test_single_photon_at_origin(self):
        v = FockVector(np.array([0, 1.0, 0], dtype=complex))
        assert abs(eval_entire(v, 0.0)) < 1e-15

    def test_precision_loss_on_undertruncated_tail(self):
        from stellar_zeros import squeezed_vacuum_fock

        # At chi = 1 the series terms at z = 3i keep growing until n ~ 240,
        # so a cutoff of 100 leaves an obviously unconverged tail.
        v = squeezed_vacuum_fock(1.0, 100)
        with pytest.raises(PrecisionLoss):
            eval_entire(v, 3j)
        # a sufficiently deep cutoff evaluates the same point cleanly
        deep = squeezed_vacuum_fock(1.0, 900)
        assert np.isfinite(eval_entire(deep, 3j).real)

    @staticmethod
    def dual_path_ok(a, b, envelope):
        """Pointwise: relative 1e-7 wherever the evaluation can resolve it,
        the amplitude-accuracy-times-conditioning floor elsewhere."""
        allowed = np.maximum(1e-7 * np.maximum(np.abs(a), np.abs(b)), 30e-11 * envelope)
        return np.all(np.abs(a - b) <= allowed)

    def test_dual_path_rank3(self):
        st, wf = distinct_random_state(3, 5, min_gap=0.0)
        v = stellar_to_fock(st, eval_cutoff_for(st))
        zs = standard_grid()
        a = eval_form(wf, zs)
        b, envelope = eval_entire_envelope(v, zs)
        assert self.dual_path_ok(a, b, envelope)
        # and plain relative 1e-7 wherever conditioning is a non-issue
        clean = 30e-11 * envelope < 1e-7 * np.abs(a)
        assert np.any(clean)
        rel = np.abs(a - b)[clean] / np.abs(a)[clean]
        assert np.max(rel) < 1e-7

    def test_dual_path_fixture_sweep(self):
        # Deep exponent cancellation makes a plain pointwise 1e-7 claim
        # unattainable in double precision at some grid corners (see README
        # numerical notes), so the floor acknowledges the conditioning.
        for rank in range(6):
            for seed in range(10):
                st = random_stellar_state(rank, seed)
                wf = build_wavefunction(st)
                v = stellar_to_fock(st, eval_cutoff_for(st))
                zs = standard_grid()
                a = eval_form(wf, zs)
                b, envelope = eval_entire_envelope(v, zs)
                assert self.dual_path_ok(a, b, envelope), (rank, seed)


class TestGrowthBound:
    def test_l_constant_formula(self):
        v = FockVector(np.array([1.0, 0, 0, 0], dtype=complex))
        gb = growth_bound(v, 4.0, 0.25)
        want = 1 + 2 / math.e + 8 / (4**0.25 - 1)
        assert abs(gb.L_bound - want) < 1e-12

    def test_vacuum_bound_on_disc(self):
        v = FockVector(np.array([1.0] + [0.0] * 40, dtype=complex))
        gb = growth_bound(v, 2.0, 0.25)
        rng = np.random.default_rng(3)
        zs = 5.0 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        assert growth_bound_holds(gb, v, zs)

    def test_k_scales_with_partial_sum(self):
        v1 = FockVector(np.array([1.0, 0, 0, 0, 0], dtype=complex))
        v2 = normalize_like([0.6, 0.8, 0, 0, 0])
        s = 2.0
        k1 = growth_bound(v1, s, 0.25).K_bound
        k2 = growth_bound(v2, s, 0.25).K_bound
        assert k2 > k1  # larger <s^n> partial sum, larger K

    def test_preconditions(self):
        v = FockVector(np.array([1.0, 0, 0], dtype=complex))
        with pytest.raises(InvalidParameter):
            growth_bound(v, 0.9, 0.25)
        with pytest.raises(InvalidParameter):
            growth_bound(v, 2.0, 0.7)
        diverging = stellar_to_fock(
            StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.0, chi=1.2), 400
        )
        with pytest.raises(InvalidParameter):
            growth_bound(diverging, 4.0, 0.25)  # > 1/tanh(1.2)


def normalize_like(amps):
    arr = np.array(amps, dtype=complex)
    return FockVector(arr / np.linalg.norm(arr))


class TestCountZerosBox:
    def test_gaussian_has_no_zeros(self):
        wf = gaussian_packet_params(0.0, 0.0)
        assert count_zeros_box(lambda z: eval_form(wf, z), (-4, 4, -4, 4)) == 0

    def test_fock_two_roots_inside(self):
        wf = build_wavefunction(fock_state(2))
        assert count_zeros_box(lambda z: eval_form(wf, z), (-4, 4, -4, 4)) == 2

    def test_offset_box_excludes_roots(self):
        wf = build_wavefunction(fock_state(2))
        assert count_zeros_box(lambda z: eval_form(wf, z), (1, 4, -1, 1)) == 0

    def test_zero_on_contour_detected(self):
        wf = build_wavefunction(fock_state(2))
        edge = 1 / math.sqrt(2)
        with pytest.raises(ZeroOnContour):
            count_zeros_box(lambda z: eval_form(wf, z), (edge - 1, edge, -1, 1))

    def test_box_validation(self):
        with pytest.raises(InvalidParameter):
            count_zeros_box(lambda z: z, (1, 0, -1, 1))


class TestHudson:
    def test_rank_zero_is_gaussian(self):
        st = random_stellar_state(0, 3, scale=0.7)
        res = hudson_test(st)
        assert res.gaussian and res.zero_count == 0

    def test_single_photon(self):
        res = hudson_test(fock_state(1))
        assert not res.gaussian
        assert res.zero_count == 1

    def test_rank_four_seed_eleven(self):
        st = random_stellar_state(4, 11, scale=0.7)
        res = hudson_test(st)
        assert res.zero_count == 4

    def test_box_must_contain_zeros(self):
        with pytest.raises(InvalidParameter):
            hudson_test(fock_state(2), box_halfwidth=0.1)


class TestStellarEval:
    def test_vacuum_constant(self):
        v = FockVector(np.array([1.0, 0, 0], dtype=complex))
        for z in (0.0, 1.3 - 0.7j, 3j):
            assert abs(stellar_eval(v, z) - 1.0) < 1e-15

    def test_single_photon_linear(self):
        v = FockVector(np.array([0, 1.0, 0, 0], dtype=complex))
        for z in (0.3, -1.2 + 0.4j):
            assert abs(stellar_eval(v, z) - z) < 1e-14

    def test_coherent_state_never_vanishes(self):
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.8, chi=0.0)
        v = stellar_to_fock(st, 120)
        n = count_zeros_box(lambda z: stellar_eval(v, z), (-5, 5, -5, 5))
        assert n == 0

    @pytest.mark.parametrize("rank,seed", [(0, 1), (1, 4), (2, 2), (3, 6)])
    def test_stellar_rank_agreement(self, rank, seed):
        # The stellar-series zero count and the wavefunction zero count both
        # equal the declared rank once the box is large enough.
        st = random_stellar_state(rank, seed, scale=0.7)
        wf = build_wavefunction(st)
        assert len(wf.zeros) == rank
        cutoff = max(160, eval_cutoff_for(st))
        v = stellar_to_fock(st, cutoff)
        hw = 3.0
        while hw < 40:
            try:
                n = count_zeros_box(lambda z: stellar_eval(v, z), (-hw, hw, -hw, hw))
            except ZeroOnContour:
                hw *= 1.17
                continue
            if n == rank:
                break
            hw *= 1.4
        assert n == rank


class TestZeroCountEqualsRank:
    @pytest.mark.parametrize("rank,seed", [(0, 0), (1, 2), (2, 1), (3, 0), (4, 4), (5, 3)])
    def test_argument_principle_count_on_closed_form(self, rank, seed):
        st = random_stellar_state(rank, seed, scale=0.8)
        wf = build_wavefunction(st)
        res = [z.real for z in wf.zeros] or [0.0]
        ims = [z.imag for z in wf.zeros] or [0.0]
        box = (min(res) - 1.0, max(res) + 1.0, min(ims) - 1.0, max(ims) + 1.0)
        assert count_zeros_box(lambda z: eval_form(wf, z), box) == rank


class TestStateFromZeros:
    def test_roundtrip_plain(self):
        zeros = [1.0 + 0.5j, -0.8 - 0.3j, 0.2 + 1.1j]
        st = stellar_state_from_zeros(zeros)
        wf = build_wavefunction(st)
        assert matching_distance(wf.zeros, zeros) < 1e-9

    def test_roundtrip_with_packet(self):
        zeros = [0.9j, -1.1 + 0.2j]
        st = stellar_state_from_zeros(zeros, alpha=0.3 - 0.1j, chi=0.25)
        wf = build_wavefunction(st)
        assert matching_distance(wf.zeros, zeros) < 1e-9

    def test_close_zeros_stay_distinct(self):
        zeros = [3, 3 + 1e-6, -3, 3j, -3j, 2 + 2j]
        wf = build_wavefunction(stellar_state_from_zeros(zeros))
        assert matching_distance(wf.zeros, zeros) < 1e-12


class TestFormJson:
    def test_roundtrip(self):
        wf = build_wavefunction(random_stellar_state(3, 9))
        back = form_from_json(form_to_json(wf))
        assert abs(back.g2 - wf.g2) < 1e-15
        assert abs(back.g1 - wf.g1) < 1e-15
        assert matching_distance(back.zeros, wf.zeros) < 1e-15


def test_energy_moment_convergence_needed_for_growth_bound():
    # x -> exp(-x^4)-style states violate every s > 1 bound and are outside
    # the zero-certification contract; finite-rank fixtures are inside it.
    v = stellar_to_fock(random_stellar_state(2, 1, scale=0.5), 200)
    assert energy_moment(v, 1.05).verdict is Verdict.CONVERGED
