"""Truncated Fock-basis propagation and oracle zero extraction."""

import math

import numpy as np
import pytest

from conftest import fock_state, ring_state

from stellar_zeros import (
    CountMismatch,
    FockVector,
    InvalidParameter,
    QuadraticHamiltonian,
    TruncationLeakage,
    build_wavefunction,
    closed_form,
    evolve_fock,
    hamiltonian_matrix,
    matching_distance,
    normalize,
    stellar_state_from_zeros,
    stellar_to_fock,
    zeros_from_fock,
)

HP = QuadraticHamiltonian.phase_shift()


class TestHamiltonianMatrix:
    def test_number_operator_diagonal(self):
        diag = np.real(np.diag(hamiltonian_matrix(HP, 20)))
        want = np.arange(21) + 0.5
        # entries near the truncation edge deviate by construction
        assert np.max(np.abs(diag[:-2] - want[:-2])) < 1e-13

    def test_position_operator_offdiagonals(self):
        m = hamiltonian_matrix(QuadraticHamiltonian(D=1.0), 10)
        ns = np.arange(10)
        want = np.sqrt(ns + 1) / math.sqrt(2)
        assert np.allclose(np.diag(m, 1), want)
        assert np.allclose(np.diag(m, -1), want)

    def test_constant_term(self):
        m = hamiltonian_matrix(QuadraticHamiltonian(F=2.5), 6)
        assert np.allclose(m, 2.5 * np.eye(7))

    def test_hermitian_defect_tiny(self):
        m = hamiltonian_matrix(
            QuadraticHamiltonian(A=0.7, B=0.3, C=-0.4, D=0.2, E=0.1, F=1.0), 30
        )
        assert np.array_equal(m, m.conj().T)

    def test_cutoff_floor(self):
        with pytest.raises(InvalidParameter):
            hamiltonian_matrix(HP, 3)


class TestEvolveFock:
    def test_vacuum_eigenphase(self):
        v = FockVector(np.array([1.0] + [0.0] * 20, dtype=complex))
        t = 0.9
        out = evolve_fock(v, HP, t)
        assert abs(out.coeffs[0] - np.exp(-0.5j * t)) < 1e-12

    def test_constant_hamiltonian_is_scalar_phase(self):
        v = normalize(FockVector(np.array([0.5, 0.5j, 0.7], dtype=complex))).padded(16)
        out = evolve_fock(v, QuadraticHamiltonian(F=1.7), 2.0)
        assert np.max(np.abs(out.coeffs - v.coeffs * np.exp(-1j * 1.7 * 2.0))) < 1e-12

    def test_single_photon_full_turn(self):
        v = FockVector(np.array([0, 1.0] + [0.0] * 19, dtype=complex))
        out = evolve_fock(v, HP, 2 * math.pi)
        # eigenphase exp(-i (1 + 1/2) 2 pi) = -1
        assert abs(out.coeffs[1] + 1.0) < 1e-12
        assert np.max(np.abs(np.abs(out.coeffs) - np.abs(v.coeffs))) < 1e-12

    def test_unitarity(self):
        st = ring_state(3, 2)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.5, B=0.4, C=0.1, D=0.2, E=-0.1)
        out = evolve_fock(v, H, 1.3, 80)
        assert abs(out.norm() - v.norm()) < 1e-10

    def test_composition(self):
        st = ring_state(2, 4)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.45, B=0.5, C=-0.1, D=0.1, E=0.2)
        two_steps = evolve_fock(evolve_fock(v, H, 0.4, 80), H, 0.9, 80)
        one_step = evolve_fock(v, H, 1.3, 80)
        assert np.max(np.abs(two_steps.coeffs - one_step.coeffs)) < 1e-8

    def test_support_precondition(self):
        bad = np.zeros(41, dtype=complex)
        bad[38] = 1.0
        with pytest.raises(InvalidParameter):
            evolve_fock(FockVector(bad), HP, 0.1)

    def test_leakage_detected(self):
        # strong single-mode squeezing at a tiny cutoff spills amplitude
        v = FockVector(np.array([1.0] + [0.0] * 11, dtype=complex))
        squeezer = QuadraticHamiltonian(A=1.0, B=-1.0)
        with pytest.raises(TruncationLeakage):
            evolve_fock(v, squeezer, 2.0)


class TestZerosFromFock:
    def test_fock_two(self):
        v = stellar_to_fock(fock_state(2), 60)
        zs = zeros_from_fock(v, 2, 2.0)
        assert matching_distance(zs, [1 / math.sqrt(2), -1 / math.sqrt(2)]) < 1e-9

    def test_vacuum_empty(self):
        v = stellar_to_fock(fock_state(0), 60)
        assert zeros_from_fock(v, 0, 3.0) == []

    @pytest.mark.parametrize("cutoff", [90, 400])
    def test_rank3_matches_build(self, cutoff):
        # At cutoff 400 the last coefficient is ~1e-162: the colleague
        # matrix must not carry the 2^n n! scale of the physicists' basis.
        st = ring_state(3, 6)
        wf = build_wavefunction(st)
        v = stellar_to_fock(st, cutoff)
        zs = zeros_from_fock(v, 3, 2.2)
        assert matching_distance(zs, wf.zeros) < 1e-6

    def test_subnormal_tail(self):
        # Without squeezing the amplitudes underflow to subnormals near
        # n = 170; dividing by such a last coefficient would overflow.
        st = stellar_state_from_zeros([0.5j, -0.4], alpha=0.1)
        v = stellar_to_fock(st, 400)
        zs = zeros_from_fock(v, 2, 2.0)
        assert matching_distance(zs, build_wavefunction(st).zeros) < 1e-9

    def test_count_mismatch(self):
        v = stellar_to_fock(fock_state(2), 60)
        with pytest.raises(CountMismatch):
            zeros_from_fock(v, 3, 2.0)

    def test_parameter_validation(self):
        v = stellar_to_fock(fock_state(1), 60)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(v, -1, 2.0)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(v, 1, 0.0)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(FockVector(np.zeros(8, dtype=complex)), 0, 2.0)


class TestOracleLoop:
    def test_rank_conserved_and_zeros_match(self):
        st = ring_state(2, 8)
        wf = build_wavefunction(st)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.5, B=0.45, C=0.08, D=0.12, E=-0.10)
        t = 1.1
        vt = evolve_fock(v, H, t, 80)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        got = zeros_from_fock(vt, 2, hw)
        assert len(got) == 2
        assert matching_distance(got, want) < 1e-4

    def test_partner_cutoff_rejects_truncation_ring(self):
        # At t = 1.1 the rank-4 zeros spread until a truncation-ring zero
        # of the cutoff-80 vector falls inside the box; the cutoff-100
        # vector's ring lies elsewhere, so only the true zeros agree.
        st = ring_state(4, 0, radius=0.85, chi=0.12, alpha=0.08)
        wf = build_wavefunction(st)
        H = QuadraticHamiltonian(A=0.45, B=0.52, C=-0.10, D=-0.10, E=0.08)
        t = 1.1
        v = stellar_to_fock(st, 80)
        vt = evolve_fock(v, H, t, 80)
        partner = evolve_fock(v, H, t, 100)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        with pytest.raises(CountMismatch):
            zeros_from_fock(vt, 4, hw)
        got = zeros_from_fock(vt, 4, hw, partner=partner)
        assert matching_distance(got, want) < 1e-8
