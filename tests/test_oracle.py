"""Exact Fock-basis propagation and oracle zero extraction."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from conftest import annihilation_matrix, fock_state, ring_state

from stellar_zeros import (
    CountMismatch,
    FockVector,
    InvalidParameter,
    PrecisionLoss,
    QuadraticHamiltonian,
    StellarState,
    TruncationLeakage,
    build_wavefunction,
    closed_form,
    evolve_fock,
    matching_distance,
    normalize,
    random_stellar_state,
    state_to_json,
    stellar_state_from_zeros,
    stellar_to_fock,
    zeros_from_fock,
)
from stellar_zeros import oracle, states
from stellar_zeros.cli import main

HP = QuadraticHamiltonian.phase_shift()
# Criterion 3's Hamiltonians, which verify's benchmark also runs.
VERIFY_HAMILTONIANS = (
    HP,
    QuadraticHamiltonian(A=0.50, B=0.45, C=0.08, D=0.12, E=-0.10),
    QuadraticHamiltonian(A=0.45, B=0.52, C=-0.10, D=-0.10, E=0.08),
)
VERIFY_TIMES = (0.3, 1.1, 2.9)


def dense_hamiltonian(H, cutoff):
    """Reference: the Hamiltonian from dense products of the quadratures."""
    a = annihilation_matrix(cutoff + 1)
    ad = a.conj().T
    x = (a + ad) / math.sqrt(2.0)
    p = 1j * (ad - a) / math.sqrt(2.0)
    return (
        H.A * (x @ x)
        + H.B * (p @ p)
        + H.C * 0.5 * (x @ p + p @ x)
        + H.D * x
        + H.E * p
        + H.F * np.eye(cutoff + 1)
    )


def aligned(out, ref):
    """``out`` times the global phase that brings it closest to ``ref``."""
    inner = np.vdot(out, ref)
    return out * (inner / abs(inner))


def displacement_element(alpha, m, n):
    """``<m|D(alpha)|n>`` from the associated Laguerre polynomials."""
    x = abs(alpha) ** 2
    if m < n:  # <m|D(alpha)|n> = conj(<n|D(-alpha)|m>)
        return np.conj(displacement_element(-alpha, n, m))
    log_ratio = 0.5 * (gammaln(n + 1.0) - gammaln(m + 1.0)) - 0.5 * x
    return np.exp(log_ratio) * alpha ** (m - n) * eval_genlaguerre(n, m - n, x)


def padded(v, cutoff):
    """``v`` with zeros up to ``cutoff``: ``evolve_fock`` returns as many rows as it is given."""
    return FockVector(np.pad(v.coeffs, (0, cutoff - v.cutoff)))


class TestEvolveFock:
    # evolve_fock fixes the global phase by a real positive <0|U|0>, so these
    # compare after aligning it.
    def test_vacuum_eigenphase(self):
        v = FockVector(np.array([1.0] + [0.0] * 20, dtype=complex))
        t = 0.9
        out = aligned(evolve_fock(v, HP, t).coeffs, np.exp(-0.5j * t) * v.coeffs)
        assert abs(out[0] - np.exp(-0.5j * t)) < 1e-12

    def test_constant_hamiltonian_is_scalar_phase(self):
        v = FockVector(np.pad(normalize(FockVector(np.array([0.5, 0.5j, 0.7]))).coeffs, (0, 14)))
        want = v.coeffs * np.exp(-1j * 1.7 * 2.0)
        out = aligned(evolve_fock(v, QuadraticHamiltonian(F=1.7), 2.0).coeffs, want)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_single_photon_full_turn(self):
        v = FockVector(np.array([0, 1.0] + [0.0] * 19, dtype=complex))
        out = aligned(evolve_fock(v, HP, 2 * math.pi).coeffs, -v.coeffs)
        # eigenphase exp(-i (1 + 1/2) 2 pi) = -1
        assert abs(out[1] + 1.0) < 1e-12
        assert np.max(np.abs(np.abs(out) - np.abs(v.coeffs))) < 1e-12

    def test_unitarity(self):
        st = ring_state(3, 2)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.5, B=0.4, C=0.1, D=0.2, E=-0.1)
        out = evolve_fock(v, H, 1.3)
        assert abs(out.norm() - v.norm()) < 1e-10

    def test_composition(self):
        st = ring_state(2, 4)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.45, B=0.5, C=-0.1, D=0.1, E=0.2)
        two_steps = evolve_fock(evolve_fock(v, H, 0.4), H, 0.9)
        one_step = evolve_fock(v, H, 1.3)
        assert np.max(np.abs(aligned(two_steps.coeffs, one_step.coeffs) - one_step.coeffs)) < 1e-8

    def test_times_sequence_equals_scalar_calls(self):
        v = padded(stellar_to_fock(ring_state(3, 2), 80), 100)
        H = VERIFY_HAMILTONIANS[1]
        many = evolve_fock(v, H, list(VERIFY_TIMES))
        assert len(many) == len(VERIFY_TIMES)
        for t, out in zip(VERIFY_TIMES, many):
            assert np.max(np.abs(out.coeffs - evolve_fock(v, H, t).coeffs)) < 1e-12

    def test_times_sequence_checks_leakage_at_every_time(self):
        v = FockVector(np.array([1.0] + [0.0] * 11, dtype=complex))
        squeezer = QuadraticHamiltonian(A=1.0, B=-1.0)
        evolve_fock(v, squeezer, [0.02, 0.05])
        with pytest.raises(TruncationLeakage):
            evolve_fock(v, squeezer, [0.02, 2.0, 0.05])

    @pytest.mark.parametrize("t", [math.nan, math.inf, [0.3, math.nan]])
    def test_times_must_be_finite(self, t):
        v = FockVector(np.array([1.0] + [0.0] * 11, dtype=complex))
        with pytest.raises(InvalidParameter, match="finite"):
            evolve_fock(v, HP, t)

    def test_times_must_be_at_most_1d(self):
        v = FockVector(np.array([1.0] + [0.0] * 11, dtype=complex))
        with pytest.raises(InvalidParameter):
            evolve_fock(v, HP, [[0.1, 0.2]])

    def test_leakage_detected(self):
        # strong single-mode squeezing at a tiny cutoff spills amplitude
        v = FockVector(np.array([1.0] + [0.0] * 11, dtype=complex))
        squeezer = QuadraticHamiltonian(A=1.0, B=-1.0)
        with pytest.raises(TruncationLeakage):
            evolve_fock(v, squeezer, 2.0)

    def test_rows_past_the_input_are_exact(self):
        # Rows above the input's cutoff come from the same recurrences, so the
        # vector padded with zeros to more rows starts with the shorter propagation.
        v = stellar_to_fock(ring_state(2, 4), 80)
        short = evolve_fock(v, VERIFY_HAMILTONIANS[2], 1.1)
        long = evolve_fock(padded(v, 120), VERIFY_HAMILTONIANS[2], 1.1)
        assert np.array_equal(long.coeffs[:81], short.coeffs)


class TestKernelPins:
    """The propagation against matrix elements known exactly."""

    def test_phase_shift_is_diagonal(self):
        v = stellar_to_fock(ring_state(3, 2), 80)
        n = np.arange(81)
        for t in VERIFY_TIMES + (2 * math.pi,):
            want = np.exp(-1j * (n + 0.5) * t) * v.coeffs
            out = aligned(evolve_fock(v, HP, t).coeffs, want)
            assert np.max(np.abs(out - want)) < 1e-13, t

    @pytest.mark.parametrize("D, E, t", [(0.3, -0.5, 1.3), (-0.9, 0.6, 1.1)])
    def test_displacement_is_laguerre(self, D, E, t):
        # exp(-i t (D x + E p)) = D(alpha) with alpha = t (E - i D) / sqrt(2).
        alpha = t * complex(E, -D) / math.sqrt(2.0)
        rows, cols = 40, 16
        got = np.stack(
            [evolve_fock(FockVector(np.eye(rows + 1)[n]), QuadraticHamiltonian(D=D, E=E), t).coeffs
             for n in range(cols + 1)], axis=1
        )
        want = np.array(
            [[displacement_element(alpha, m, n) for n in range(cols + 1)] for m in range(rows + 1)]
        )
        assert np.max(np.abs(aligned(got.ravel(), want.ravel()) - want.ravel())) < 1e-13

    def test_rows_match_a_dense_exponential(self):
        # Criterion 3's states and Hamiltonians: rows <= 80 of the exact
        # propagation against a dense expm of the cutoff-160 Hamiltonian,
        # whose own truncation stays far above row 80.
        worst = norm_dev = 0.0
        vs = [
            stellar_to_fock(ring_state(rank, 10 + rank, radius=0.85, chi=0.12, alpha=0.08), 80)
            for rank in (1, 2, 3, 4)
        ]
        for H in VERIFY_HAMILTONIANS:
            dense = [expm(-1j * t * dense_hamiltonian(H, 160))[:81, :81] for t in VERIFY_TIMES]
            for v in vs:
                for u, out in zip(dense, evolve_fock(v, H, VERIFY_TIMES)):
                    want = u @ v.coeffs
                    worst = max(worst, np.max(np.abs(aligned(out.coeffs, want) - want)))
                    norm_dev = max(norm_dev, abs(out.norm() - v.norm()))
        assert worst < 1e-13
        assert norm_dev < 1e-13

    @pytest.mark.parametrize(
        "H",
        [QuadraticHamiltonian(**{name: 0.7}) for name in "ABCDEF"]
        + [QuadraticHamiltonian(A=0.7, B=0.3, C=-0.4, D=0.2, E=0.1, F=1.0)],
        ids=list("ABCDEF") + ["mixed"],
    )
    def test_each_term_matches_a_dense_exponential(self, H):
        # Each term's sign and scale, one at a time, on rows <= 80.
        v = stellar_to_fock(ring_state(2, 4), 40)
        for t in (0.5, 1.3):
            want = expm(-1j * t * dense_hamiltonian(H, 160))[:81, :41] @ v.coeffs
            out = evolve_fock(padded(v, 80), H, t).coeffs
            assert np.max(np.abs(aligned(out, want) - want)) < 1e-13, t

    def test_strong_displacement_stays_finite(self):
        # |gamma|^2 = 1600: <0|U|0> = exp(-800) underflows, while the column
        # without it would reach exp(800); the running scale keeps both apart.
        gamma = 40.0
        H = QuadraticHamiltonian(E=gamma * math.sqrt(2.0))
        vacuum = padded(FockVector(np.ones(1, dtype=complex)), 2100)
        out = evolve_fock(vacuum, H, 1.0).coeffs
        m = np.arange(out.size)
        want = np.exp(-0.5 * gamma**2 + m * math.log(gamma) - 0.5 * gammaln(m + 1.0))
        assert np.max(np.abs(out - want)) < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_unstable_columns_are_a_typed_error(self):
        # The column recurrence amplifies rounding with |gamma| and the number
        # of columns: 80 columns at |gamma| = 40 end in PrecisionLoss, not NaN.
        v = stellar_to_fock(ring_state(3, 2), 80)
        H = QuadraticHamiltonian(E=40.0 * math.sqrt(2.0))
        with pytest.raises(PrecisionLoss):
            evolve_fock(padded(v, 2100), H, 1.0)


# B = 0 (C != 0, so the zeros move) and omega^2 = 4AB - C^2 = 0, verify's edge runs.
EDGE_HAMILTONIANS = (
    QuadraticHamiltonian(A=0.3, C=0.2, D=0.1, E=0.1),
    QuadraticHamiltonian(A=0.5, B=0.5, C=1.0, D=0.1, E=-0.1),
)


def state_path_deviation(st, H, times):
    """Largest deviation of verify's propagation of ``st`` from ``evolve_fock`` of its Fock
    vector at the same rows (those of its series at Im 3), after aligning the global phase."""
    cutoff = states._series(st, 3.0).cutoff
    want = evolve_fock(stellar_to_fock(st, cutoff), H, list(times))
    got = oracle._evolve_stellar(st, H, list(times), cutoff)
    assert len(got) == len(want) == len(times)
    return max(np.max(np.abs(aligned(g.coeffs, w.coeffs) - w.coeffs)) for g, w in zip(got, want))


class TestStatePropagation:
    """verify propagates the state through its core: ``exp(-itH) D(alpha) S(chi)`` is one
    Gaussian unitary on ``r + 1`` columns, with the rows of ``evolve_fock`` on the state's
    whole Fock vector, up to the global phase."""

    @pytest.mark.parametrize("H", VERIFY_HAMILTONIANS, ids=["hp", "h1", "h2"])
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_ring_fixtures_match_evolve_fock(self, rank, H):
        st = ring_state(rank, 1000, radius=0.85, chi=0.12, alpha=0.08)
        assert state_path_deviation(st, H, VERIFY_TIMES) < 1e-13

    @pytest.mark.parametrize("H", EDGE_HAMILTONIANS, ids=["B0", "omega2_0"])
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_edge_hamiltonians_match_evolve_fock(self, H, alpha):
        st = stellar_state_from_zeros([0.8j, -0.5 + 0.2j], alpha=alpha)
        assert state_path_deviation(st, H, [0.15, 0.3]) < 1e-13

    @pytest.mark.parametrize("H", VERIFY_HAMILTONIANS, ids=["hp", "h1", "h2"])
    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_strong_displacement_matches_evolve_fock(self, rank, H):
        # |alpha| = 2: the composed |gamma| reaches about 2 on the core's few columns.
        st = ring_state(rank, 3, alpha=2.0)
        assert state_path_deviation(st, H, VERIFY_TIMES) < 1e-13

    def test_leakage_is_checked_at_every_time(self):
        st = ring_state(2, 4)
        squeezer = QuadraticHamiltonian(A=1.0, B=-1.0)
        assert len(oracle._evolve_stellar(st, squeezer, [0.02, 0.05], 80)) == 2
        with pytest.raises(TruncationLeakage, match=r"evolved state lost .* of \|v\|\^2 past row 80"):
            oracle._evolve_stellar(st, squeezer, [0.02, 2.0, 0.05], 80)

    @pytest.mark.parametrize("t, first", [(720.0, 720), ([0.5, 800.0, 900.0], 800)])
    def test_overflowing_flow_names_its_first_time(self, t, first):
        # Past t = 711 this hyperbolic flow's 3x3 exponential overflows: a typed error
        # names the cause and the time, and no RuntimeWarning escapes.
        st = random_stellar_state(2, 0)
        H = QuadraticHamiltonian(B=0.5, C=1.0)
        match = f"flow of H overflows at t = {first};"
        with pytest.raises(TruncationLeakage, match=match):
            evolve_fock(stellar_to_fock(st, 100), H, t)
        with pytest.raises(TruncationLeakage, match=match):
            oracle._evolve_stellar(st, H, t, 100)

    @pytest.mark.parametrize("D", [0.0, 0.1])
    def test_kernel_past_the_double_range_loses_the_state(self, D):
        # At t = 700 the flow is finite but |gamma|^2 |nu| is not (the state's own
        # displacement, composed, or H's): those rows are zero, so the whole norm is lost.
        st = random_stellar_state(2, 0)
        H = QuadraticHamiltonian(B=0.5, C=1.0, D=D, E=D)
        lost = r"evolved state lost 1\.000e\+00 of \|v\|\^2 past row 100"
        with pytest.raises(TruncationLeakage, match=lost):
            evolve_fock(stellar_to_fock(st, 100), H, 700.0)
        with pytest.raises(TruncationLeakage, match=lost):
            oracle._evolve_stellar(st, H, [0.3, 700.0], 100)


def hermite_zeros(n):
    """Zeros of ``H_n``, those of the number state ``|n>``'s wavefunction."""
    return np.polynomial.hermite.hermroots(np.eye(n + 1)[n]) if n else np.empty(0)


class TestZerosFromFock:
    def test_fock_two(self):
        v = stellar_to_fock(fock_state(2), 60)
        zs = zeros_from_fock(v, 2)
        assert matching_distance(zs, [1 / math.sqrt(2), -1 / math.sqrt(2)]) < 1e-9

    def test_vacuum_empty(self):
        v = stellar_to_fock(fock_state(0), 60)
        assert zeros_from_fock(v, 0) == []

    @pytest.mark.parametrize("cutoff", [90, 400])
    def test_rank3_matches_build(self, cutoff):
        # At cutoff 400 the last coefficient is ~1e-162: the scaled rows and the
        # frame series must not carry the n! scale of the monomials.
        st = ring_state(3, 6)
        wf = build_wavefunction(st)
        v = stellar_to_fock(st, cutoff)
        zs = zeros_from_fock(v, 3)
        assert matching_distance(zs, wf.zeros) < 1e-6

    def test_subnormal_tail(self):
        # Without squeezing the amplitudes underflow to subnormals near n = 170.
        st = stellar_state_from_zeros([0.5j, -0.4], alpha=0.1)
        v = stellar_to_fock(st, 400)
        zs = zeros_from_fock(v, 2)
        assert matching_distance(zs, build_wavefunction(st).zeros) < 1e-9

    @pytest.mark.parametrize("n", range(9))
    def test_number_states_repeat_their_stellar_zero(self, n):
        # |n> has P = b^n, so for n >= 2 the null space has n directions; the
        # one with the largest leading coefficient gives the frame.
        v = stellar_to_fock(fock_state(n), 80)
        assert matching_distance(zeros_from_fock(v, n), hermite_zeros(n)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_displaced_squeezed_number_states(self, n):
        st = StellarState(rank=n, core=np.eye(n + 1)[n], alpha=0.3 - 0.2j, chi=0.25 + 0.1j)
        v = stellar_to_fock(st, 120)
        assert matching_distance(zeros_from_fock(v, n), build_wavefunction(st).zeros) < 1e-12

    def test_count_mismatch(self):
        # Asked for rank 3, |2> has null vectors (P = b^3) but no degree-3 frame term.
        v = stellar_to_fock(fock_state(2), 60)
        with pytest.raises(CountMismatch):
            zeros_from_fock(v, 3)

    def test_count_mismatch_below_a_repeated_zero(self):
        # Asked for rank 1, P = b fits the log-derivative 2/b of |2>, so a null
        # vector exists; the frame series has no degree-1 term.
        v = stellar_to_fock(fock_state(2), 60)
        with pytest.raises(CountMismatch, match="no degree-1 term"):
            zeros_from_fock(v, 1)

    def test_no_null_vector_below_the_rank(self):
        v = stellar_to_fock(ring_state(3, 2), 80)
        with pytest.raises(CountMismatch, match="no polynomial of degree 2 fits"):
            zeros_from_fock(v, 2)

    @pytest.mark.parametrize("rank", [20, 30, 50])
    def test_high_rank_fails_typed(self, rank):
        # The monomial Bargmann basis degrades with rank: each state either
        # agrees with the closed form or raises a typed error, never a wrong set.
        for seed in range(4):
            st = random_stellar_state(rank, seed)
            want = build_wavefunction(st).zeros
            try:
                got = zeros_from_fock(stellar_to_fock(st), rank)
            except (PrecisionLoss, CountMismatch):
                continue
            assert matching_distance(got, want) <= 1e-8 * max(1.0, np.max(np.abs(want))), seed

    @pytest.mark.parametrize("n", [150, 210])
    def test_rank_system_past_the_double_range_fails_typed(self, n):
        # |n>'s rank system has entries c_k sqrt((m+1)!/k!), whose column norms leave
        # the double range from n ~ 150 on: a typed error, with no warning on the way,
        # where a NaN frame (n = 150) or an SVD that did not converge (n = 210) came.
        v = stellar_to_fock(fock_state(n))
        with pytest.raises(PrecisionLoss, match=f"degree-{n} rank system overflows"):
            zeros_from_fock(v, n)

    @pytest.mark.parametrize("rank, seed", [(24, 3), (30, 3)])
    def test_one_rank_too_many_is_refused(self, rank, seed):
        # Asked for rank + 1, the frame's noise puts d_{r+1} just above 1e-9 of
        # max|d| and the terms past it just below: only their ratio to d_{r+1}
        # tells that the extra zero is noise.
        v = stellar_to_fock(random_stellar_state(rank, seed))
        with pytest.raises((PrecisionLoss, CountMismatch)):
            zeros_from_fock(v, rank + 1)

    @pytest.mark.parametrize("e, a", [(1.2, "-0.0909"), (-1.5, "-5")], ids=["E>1", "E<-1"])
    def test_frame_that_is_not_normalizable_is_refused(self, e, a):
        # The first 40 Fock terms of exp(E b^2 / 2), E real: the frame
        # exponent is A = (1 - E) / (1 + E) < 0, a Gaussian that grows.
        n = np.arange(40)
        k = n // 2
        coeffs = np.where(n % 2 == 0, (e / 2) ** k * np.exp(0.5 * gammaln(n + 1) - gammaln(k + 1)), 0)
        v = normalize(FockVector(coeffs.astype(complex)))
        with pytest.raises(PrecisionLoss, match=f"A = {a}.* is not normalizable"):
            zeros_from_fock(v, 0)

    def test_parameter_validation(self):
        v = stellar_to_fock(fock_state(1), 60)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(v, -1)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(FockVector(np.zeros(8, dtype=complex)), 0)


class TestOracleLoop:
    def test_rank_conserved_and_zeros_match(self):
        st = ring_state(2, 8)
        wf = build_wavefunction(st)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.5, B=0.45, C=0.08, D=0.12, E=-0.10)
        t = 1.1
        vt = evolve_fock(v, H, t)
        got = zeros_from_fock(vt, 2)
        assert len(got) == 2
        assert matching_distance(got, closed_form(wf, H, t)) < 1e-4

    def test_partner_cutoff_rejects_truncation_ring(self):
        # At t = 1.1 the rank-6 zeros spread until five truncation-ring zeros
        # of the full cutoff-80 Hermite series fall inside the zeros' box; the
        # stellar frame has only the six Hermite terms of the state itself.
        st = ring_state(6, 0, radius=0.85, chi=0.12, alpha=0.08)
        wf = build_wavefunction(st)
        H = QuadraticHamiltonian(A=0.45, B=0.52, C=-0.10, D=-0.10, E=0.08)
        t = 1.1
        vt = evolve_fock(stellar_to_fock(st, 80), H, t)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        roots = oracle._hermite_roots(vt.coeffs)
        assert np.count_nonzero((np.abs(roots.real) <= hw) & (np.abs(roots.imag) <= hw)) == 11
        assert matching_distance(zeros_from_fock(vt, 6), want) < 1e-8


def spy_on_oracle(monkeypatch):
    """Count propagations, by either path, and the degree of every colleague solve."""
    seen = {"propagations": 0, "orders": []}

    def counting(propagate):
        def counted(*args, **kwargs):
            seen["propagations"] += 1
            return propagate(*args, **kwargs)

        return counted

    def counting_roots(d, hermite_roots=oracle._hermite_roots):
        seen["orders"].append(d.size - 1)
        return hermite_roots(d)

    for name in ("evolve_fock", "_evolve_stellar"):
        monkeypatch.setattr(oracle, name, counting(getattr(oracle, name)))
    monkeypatch.setattr(oracle, "_hermite_roots", counting_roots)
    return seen


def verify_ring_fixture(tmp_path, rank, H):
    """Exit code of ``verify`` on the benchmark's rank-``rank`` ring fixture under ``H``."""
    st = ring_state(rank, 1000, radius=0.85, chi=0.12, alpha=0.08)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(state_to_json(st)), encoding="utf-8")
    return main(["verify", "--state", str(path), "--hamiltonian", ",".join(map(str, H.as_tuple()))])


@pytest.mark.parametrize("H", VERIFY_HAMILTONIANS, ids=["hp", "h1", "h2"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_verify_ring_fixtures_stay_on_the_first_rung(monkeypatch, capsys, tmp_path, rank, H):
    # The benchmark's ring fixtures: one propagation for the three times, and
    # each time certified by its one colleague solve, of the state's own degree.
    seen = spy_on_oracle(monkeypatch)
    assert verify_ring_fixture(tmp_path, rank, H) == 0
    assert "status=PASS" in capsys.readouterr().out
    assert seen == {"propagations": 1, "orders": [rank] * 3}


@pytest.mark.parametrize("rank", [1, 6])
def test_verify_propagates_on_the_core_columns(monkeypatch, capsys, tmp_path, rank):
    # Cost pin: besides the one build that sizes the series, verify runs the kernel
    # recurrence once, for its three times together, on the core's r + 1 columns
    # (O(N r) per time), and never on the series' N + 1 columns through evolve_fock.
    calls, kernel = [], states._kernel_rows

    def recording(mu, nu, gamma, c, rows):
        out = kernel(mu, nu, gamma, c, rows)
        calls.append((out.shape[0], c.size, rows))
        return out

    monkeypatch.setattr(states, "_kernel_rows", recording)
    monkeypatch.setattr(oracle, "_kernel_rows", lambda *a: pytest.fail("evolve_fock's kernel"))
    assert verify_ring_fixture(tmp_path, rank, VERIFY_HAMILTONIANS[1]) == 0
    assert "status=PASS" in capsys.readouterr().out
    (series, _, work), (times, columns, rows) = calls
    assert (series, times, columns) == (1, 3, rank + 1)
    assert rows < work
