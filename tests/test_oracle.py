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
    eval_entire,
    evolve_fock,
    matching_distance,
    normalize,
    random_stellar_state,
    state_to_json,
    stellar_state_from_zeros,
    stellar_to_fock,
    zeros_from_fock,
)
from stellar_zeros import oracle, wavefunction
from stellar_zeros.cli import main
from stellar_zeros.states import _series

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


def dense_partner_keep(roots, partner):
    """Reference: roots with a root of the partner's own colleague solve nearby."""
    others = oracle._hermite_roots(partner)
    gap = np.min(np.abs(roots[:, None] - others[None, :]), axis=1, initial=np.inf)
    return gap <= oracle._AGREE * np.maximum(1.0, np.abs(roots))


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


def roots_in_box(v, hw):
    roots = oracle._hermite_roots(v)
    return roots[(np.abs(roots.real) <= hw) & (np.abs(roots.imag) <= hw)]


def newton_steps(w, z):
    """The two Newton steps of the partner rule, on ``w``'s Hermite series."""
    d = np.zeros_like(w.coeffs)
    d[:-1] = np.sqrt(2.0 * np.arange(1, d.size)) * w.coeffs[1:]
    d = FockVector(d)
    s1 = eval_entire(w, z, check=False) / eval_entire(d, z, check=False)
    s2 = eval_entire(w, z - s1, check=False) / eval_entire(d, z - s1, check=False)
    return np.abs(s1), np.abs(s2)


def count_hermite_solves(monkeypatch):
    """Record every call of the banded Hermite solve, in the oracle and the series alike."""
    calls, hermite_functions = [], wavefunction._hermite_functions

    def counting(n, z):
        calls.append(np.size(z))
        return hermite_functions(n, z)

    monkeypatch.setattr(wavefunction, "_hermite_functions", counting)
    monkeypatch.setattr(oracle, "_hermite_functions", counting)
    return calls


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

    def test_contour_catches_a_zero_the_partner_dropped(self):
        # The partner shares only the zero at 0, so the one at 0.3 is dropped
        # as a truncation artifact; the count around the kept zero (padded by
        # 0.5) still finds it, on the short and the full-degree series alike.
        v = stellar_to_fock(stellar_state_from_zeros([0.0, 0.3]), 60)
        partner = stellar_to_fock(stellar_state_from_zeros([0.0]), 60)
        with pytest.raises(CountMismatch, match="contour around 1 stable zeros counts 2"):
            zeros_from_fock(v, 1, 2.0, partner=partner)

    def test_parameter_validation(self):
        v = stellar_to_fock(fock_state(1), 60)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(v, -1, 2.0)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(v, 1, 0.0)
        for hw in (math.nan, math.inf):
            for rank in (0, 1):
                with pytest.raises(InvalidParameter):
                    zeros_from_fock(v, rank, hw)
        with pytest.raises(InvalidParameter):
            zeros_from_fock(FockVector(np.zeros(8, dtype=complex)), 0, 2.0)


class TestOracleLoop:
    def test_rank_conserved_and_zeros_match(self):
        st = ring_state(2, 8)
        wf = build_wavefunction(st)
        v = stellar_to_fock(st, 80)
        H = QuadraticHamiltonian(A=0.5, B=0.45, C=0.08, D=0.12, E=-0.10)
        t = 1.1
        vt = evolve_fock(v, H, t)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        got = zeros_from_fock(vt, 2, hw)
        assert len(got) == 2
        assert matching_distance(got, want) < 1e-4

    def test_partner_cutoff_rejects_truncation_ring(self):
        # At t = 1.1 the rank-6 zeros spread until five truncation-ring zeros
        # of the full cutoff-80 series fall inside the box; the cutoff-100
        # vector's ring lies elsewhere, so only the true zeros agree.
        st = ring_state(6, 0, radius=0.85, chi=0.12, alpha=0.08)
        wf = build_wavefunction(st)
        H = QuadraticHamiltonian(A=0.45, B=0.52, C=-0.10, D=-0.10, E=0.08)
        t = 1.1
        vt = evolve_fock(stellar_to_fock(st, 80), H, t)
        partner = evolve_fock(stellar_to_fock(st, 100), H, t)
        want = closed_form(wf, H, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        assert roots_in_box(vt, hw).size == 11
        got = zeros_from_fock(vt, 6, hw, partner=partner)
        assert matching_distance(got, want) < 1e-8

    @pytest.mark.parametrize(
        "t, orders", [(0.3, [80, 99]), (1.1, [80]), (2.9, [80, 99, 179])], ids=["0.3", "1.1", "2.9"]
    )
    def test_solve_escalates_through_the_floors(self, monkeypatch, t, orders):
        # With a partner the first solve cuts the series at _AGREE**2 of its
        # largest coefficient, the next at eps, the last at the full degree.
        # At t = 0.3 the first count fails and the eps rung certifies; at
        # t = 2.9 the zero near 5.42+0.40i needs coefficients down to 1e-20,
        # below what both short solves keep, and the full-degree solve finds it.
        st = random_stellar_state(6, 1)
        v = _series(st, 3.0)[0]
        cutoff = v.cutoff
        vt = evolve_fock(v, HP, t)
        partner = evolve_fock(stellar_to_fock(st, cutoff + 20), HP, t)
        want = closed_form(build_wavefunction(st), HP, t)
        hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
        solved, hermite_roots = [], oracle._hermite_roots

        def recording_roots(*args, **kwargs):
            roots = hermite_roots(*args, **kwargs)
            solved.append(roots.size)
            return roots

        monkeypatch.setattr(oracle, "_hermite_roots", recording_roots)
        got = zeros_from_fock(vt, 6, hw, partner=partner)
        assert solved == orders
        assert solved[0] < cutoff
        assert (solved[-1] == cutoff) == (len(solved) == 3)  # only the last rung is the full degree
        assert matching_distance(got, want) < 1e-9


class TestNewtonPartner:
    def test_keeps_what_the_dense_partner_solve_keeps(self):
        rejected = 0
        for rank in range(1, 7):
            st = ring_state(rank, 10 + rank, radius=0.85, chi=0.12, alpha=0.08)
            wf = build_wavefunction(st)
            v, longer = stellar_to_fock(st, 80), stellar_to_fock(st, 100)
            for H in VERIFY_HAMILTONIANS:
                vts = evolve_fock(v, H, VERIFY_TIMES)
                partners = evolve_fock(longer, H, VERIFY_TIMES)
                for t, vt, partner in zip(VERIFY_TIMES, vts, partners):
                    want = closed_form(wf, H, t)
                    hw = max(max(abs(z.real), abs(z.imag)) for z in want) + 0.9
                    roots = roots_in_box(vt, hw)
                    keep, _ = oracle._partner_agrees(partner, roots)
                    assert np.array_equal(keep, dense_partner_keep(roots, partner))
                    assert np.count_nonzero(keep) == rank
                    rejected += roots.size - rank
        # the truncation ring reaches the box in some cases
        assert rejected > 0

    def test_rank1_steps_at_roundoff_are_kept(self):
        # Both steps sit at ~2e-16 to 3e-16, so the second is not half the
        # first: only the roundoff floor keeps the true zero.  That premise
        # rests on the core's last bits, so the core of the zero 1.5j is pinned.
        core = np.array([-0.9045340337332909j, 0.42640143271122105])
        st = StellarState(rank=1, core=core, alpha=0.0, chi=0.0)
        v = _series(st, 3.0)[0]
        vts = evolve_fock(v, HP, VERIFY_TIMES)
        partners = evolve_fock(stellar_to_fock(st, v.cutoff + 20), HP, VERIFY_TIMES)
        for vt, partner in zip(vts, partners):
            roots = roots_in_box(vt, 2.0)
            assert roots.size == 1
            s1, s2 = newton_steps(partner, roots)
            assert np.all(s2 > 0.5 * s1)
            assert np.all(oracle._partner_agrees(partner, roots)[0])

    def test_nan_candidate_leaves_the_true_roots_alone(self, monkeypatch):
        # The NaN candidate's first step is NaN, so both Hermite solves hold
        # a non-finite point; the true roots must not see it.
        st = ring_state(3, 2)
        vt = evolve_fock(stellar_to_fock(st, 80), HP, 1.1)
        partner = evolve_fock(stellar_to_fock(st, 100), HP, 1.1)
        candidates = roots_in_box(vt, 2.5)
        roots = candidates[oracle._partner_agrees(partner, candidates)[0]]
        assert roots.size == 3
        calls = count_hermite_solves(monkeypatch)
        keep, polished = oracle._partner_agrees(partner, roots)
        keep_nan, polished_nan = oracle._partner_agrees(partner, np.append(np.nan, roots))
        assert calls == [3, 3, 4, 4]
        assert np.all(keep) and not keep_nan[0]
        assert np.array_equal(keep_nan[1:], keep)
        assert np.array_equal(polished_nan[1:], polished)

    def test_zero_derivative_rejects_without_warning(self):
        constant = FockVector(np.array([1.0, 0.0, 0.0, 0.0, 0.0], dtype=complex))
        assert not np.any(oracle._partner_agrees(constant, np.array([0.3 + 0j]))[0])


def spy_on_oracle(monkeypatch):
    """Count propagations; per colleague solve, its degree, the last coefficient above
    ``_AGREE**2`` of the largest (the first rung's cut) and the cutoff."""
    seen = {"propagations": 0, "orders": [], "resolved": [], "cutoffs": []}
    propagate, hermite_roots = oracle.evolve_fock, oracle._hermite_roots

    def counting_propagation(*args, **kwargs):
        seen["propagations"] += 1
        return propagate(*args, **kwargs)

    def counting_roots(v, *args, **kwargs):
        roots = hermite_roots(v, *args, **kwargs)
        c = np.abs(v.coeffs)
        seen["orders"].append(roots.size)
        seen["resolved"].append(int(np.flatnonzero(c > oracle._AGREE**2 * c.max())[-1]))
        seen["cutoffs"].append(v.cutoff)
        return roots

    monkeypatch.setattr(oracle, "evolve_fock", counting_propagation)
    monkeypatch.setattr(oracle, "_hermite_roots", counting_roots)
    return seen


def test_verify_makes_one_propagation_and_three_colleague_solves(monkeypatch, capsys, tmp_path):
    # One propagation for all times, its first rows the solved vectors and
    # all of it the partner, and no colleague solve for the partner: a return
    # to one dense solve per time fails here, not only in the benchmark.
    # Each solve is on the degree cut at the partner's resolution, _AGREE**2
    # of the largest coefficient, well below the cutoff.
    seen = spy_on_oracle(monkeypatch)
    path = tmp_path / "r2.json"
    path.write_text(json.dumps(state_to_json(ring_state(2, 1))), encoding="utf-8")
    assert main(["verify", "--state", str(path)]) == 0
    assert "status=PASS" in capsys.readouterr().out
    assert seen["propagations"] == 1 and len(seen["orders"]) == 3
    assert seen["orders"] == seen["resolved"]
    assert all(n < cutoff for n, cutoff in zip(seen["orders"], seen["cutoffs"]))


@pytest.mark.parametrize("H", VERIFY_HAMILTONIANS, ids=["hp", "h1", "h2"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_verify_ring_fixtures_stay_on_the_first_rung(monkeypatch, capsys, tmp_path, rank, H):
    # The benchmark's ring fixtures: each time is certified by one solve at the
    # partner's resolution, and no solve moves on to the eps or full degree.
    st = ring_state(rank, 1000, radius=0.85, chi=0.12, alpha=0.08)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(state_to_json(st)), encoding="utf-8")
    seen = spy_on_oracle(monkeypatch)
    hamiltonian = ",".join(map(str, H.as_tuple()))
    assert main(["verify", "--state", str(path), "--hamiltonian", hamiltonian]) == 0
    assert "status=PASS" in capsys.readouterr().out
    assert len(seen["orders"]) == 3
    assert seen["orders"] == seen["resolved"]


def test_verify_solves_the_hermite_band_ten_times(monkeypatch, capsys, tmp_path):
    # One solve for the dual-path grid, then per time two for the partner's
    # Newton steps and one for the certificate contour's samples.
    calls = count_hermite_solves(monkeypatch)
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(state_to_json(ring_state(3, 2))), encoding="utf-8")
    assert main(["verify", "--state", str(path)]) == 0
    assert "status=PASS" in capsys.readouterr().out
    assert len(calls) == 10
