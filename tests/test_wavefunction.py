"""Closed wavefunction form, Hermite-series extension, zero counting."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from conftest import (
    annihilation_matrix,
    distinct_random_state,
    eval_entire_envelope,
    fock_state,
    standard_grid,
)

from stellar_zeros import (
    InvalidParameter,
    PrecisionLoss,
    StellarState,
    StellarZerosError,
    Verdict,
    WavefunctionForm,
    apply_creation_polynomial,
    build_wavefunction,
    default_cutoff,
    energy_moment,
    eval_entire,
    eval_form,
    form_from_json,
    form_norm_squared,
    form_to_json,
    FockVector,
    growth_bound,
    growth_bound_holds,
    hudson_test,
    matching_distance,
    random_stellar_state,
    stellar_state_from_zeros,
    stellar_to_fock,
)
from stellar_zeros import states
from stellar_zeros.states import _log_hermite_bound, _series, _stellar_rows
from stellar_zeros.wavefunction import _CHUNK, _hermite_functions

PI14 = math.pi ** -0.25
EPS = np.finfo(float).eps
# Zeros of random_stellar_state(rank, seed), keyed "rank,seed", from the
# monomial raising recursion and polynomial roots at 120 digits (mpmath),
# rounded to double.
REFERENCE_ZEROS = json.loads((Path(__file__).parent / "reference_zeros.json").read_text())


def packet(alpha, chi):
    return build_wavefunction(StellarState(0, [1.0], alpha, chi))


def hermite_series_loop(coeffs, z):
    """Reference: the series and its envelope summed along the recurrence, term by term."""
    phi_prev = PI14 * np.exp(-0.5 * z * z)
    acc = coeffs[0] * phi_prev
    envelope = np.abs(acc)
    phi = math.sqrt(2.0) * z * phi_prev
    for k in range(1, coeffs.size):
        term = coeffs[k] * phi
        acc = acc + term
        envelope = envelope + np.abs(term)
        phi_next = math.sqrt(2.0 / (k + 1)) * z * phi - math.sqrt(k / (k + 1.0)) * phi_prev
        phi_prev, phi = phi, phi_next
    return acc, envelope


def solo_solves(n, z):
    """Reference: the Hermite functions solved one point per call."""
    return np.concatenate([_hermite_functions(n, z[j : j + 1]) for j in range(z.size)])


def max_log_abs_hermite_functions(n, z):
    """Reference: ``max_j log|phi_k(z[..., j])|`` for k < n, shaped ``(n, *z.shape[:-1])``.

    The recurrence of :func:`hermite_series_loop`, rescaled at every step and
    the scale kept as a logarithm, so it neither underflows nor overflows.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty((n,) + z.shape[:-1])
    log_scale = math.log(PI14) - 0.5 * (z * z).real
    prev, cur = np.zeros_like(z), np.exp(-0.5j * (z * z).imag)
    with np.errstate(divide="ignore"):  # a point on a zero of phi_k
        for k in range(n):
            out[k] = np.max(log_scale + np.log(np.abs(cur)), axis=-1)
            nxt = math.sqrt(2.0 / (k + 1)) * z * cur - math.sqrt(k / (k + 1.0)) * prev
            m = np.maximum(np.abs(nxt), np.abs(cur))
            prev, cur, log_scale = cur / m, nxt / m, log_scale + np.log(m)
    return out


class TestGaussianPacket:
    def test_vacuum_parameters(self):
        wf = packet(0.0, 0.0)
        assert abs(wf.g2 + 0.5) < 1e-15
        assert abs(wf.g1) < 1e-15
        assert abs(wf.g0 + 0.25 * math.log(math.pi)) < 1e-14
        assert wf.zeros == ()

    def test_displaced_peak_position(self):
        wf = packet(1.0, 0.0)
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
        wf = packet(0.0, r)
        assert abs(wf.g2 + math.exp(2 * r) / 2) < 1e-12

        # Oracle: Var(x) = exp(-2r)/2 for position squeezing.
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.0, chi=r)
        v = stellar_to_fock(st, 80)
        a = annihilation_matrix(81)
        x = (a + a.conj().T) / math.sqrt(2)
        var = np.real(np.vdot(v.coeffs, x @ (x @ v.coeffs)))
        assert abs(var - math.exp(-2 * r) / 2) < 1e-10

    @pytest.mark.parametrize("r", (10.0, 15.0, 18.0, 25.0))
    def test_strong_real_squeezing_has_no_cancellation(self, r):
        # cosh r - sinh r, the difference of two numbers near e^r / 2, once lost
        # g2 to 2e-2 at r = 18 and left Re g2 >= 0 or a zero division from r = 19.
        assert abs(packet(0.3, r).g2 + math.exp(2 * r) / 2) <= 1e-14 * math.exp(2 * r) / 2

    @pytest.mark.parametrize("chi", (19.0, 25.0))
    def test_strongly_squeezed_form_is_built(self, chi):
        wf = build_wavefunction(StellarState(1, [0.6, 0.8], 0.3, chi))
        assert abs(wf.g2 + math.exp(2 * chi) / 2) <= 1e-14 * math.exp(2 * chi) / 2
        assert wf.rank == 1 and np.isfinite(wf.zeros[0])

    def test_normalized(self):
        wf = packet(0.7 - 0.2j, 0.3 + 0.4j)
        assert abs(form_norm_squared(wf) - 1.0) < 1e-12

    def test_matches_fock_path_on_sample_points(self):
        alpha, chi = 0.5 + 0.3j, -0.25 + 0.35j
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=alpha, chi=chi)
        wf = build_wavefunction(st)
        v = _series(st, 3.0)
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

    @pytest.mark.parametrize("n", range(3, 13))
    def test_number_states_have_the_hermite_roots(self, n):
        # The stellar zero of |n> is 0, n times over; its wavefunction's zeros
        # are the n distinct real roots of H_n.
        want = np.polynomial.hermite.hermroots(np.eye(n + 1)[n])
        assert matching_distance(build_wavefunction(fock_state(n)).zeros, want) < 1e-13

    def test_rank_matches_zero_count(self):
        for rank in range(6):
            st = random_stellar_state(rank, 5)
            assert len(build_wavefunction(st).zeros) == rank

    def test_normalization(self):
        # The form is normalized by construction: g0 holds the leading coefficient.
        for rank in (0, 1, 4, 5, 20, 80, 200, 300):
            for seed in range(3):
                wf = build_wavefunction(random_stellar_state(rank, seed))
                assert abs(form_norm_squared(wf) - 1.0) < 1e-12, (rank, seed)

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

    @pytest.mark.parametrize("case", sorted(REFERENCE_ZEROS))
    def test_zeros_match_the_high_precision_reference(self, case):
        rank, seed = map(int, case.split(","))
        want = np.array([complex(*z) for z in REFERENCE_ZEROS[case]])
        wf = build_wavefunction(random_stellar_state(rank, seed))
        assert matching_distance(wf.zeros, want) <= 1e-12 * np.max(np.abs(want))

    def test_rank_120_builds(self):
        # The norm's zero factors once overflowed their product from rank 96 on.
        wf = build_wavefunction(random_stellar_state(120, 0))
        assert len(wf.zeros) == 120
        assert abs(form_norm_squared(wf) - 1.0) < 1e-12

    @pytest.mark.parametrize("rank", [270, 300, 400, 550])
    def test_ranks_past_the_leading_coefficient_underflow_build(self, rank):
        # c_r a1^r / sqrt(r!) underflows a double from rank 270 on; as a logarithm
        # in g0 it does not, and the state comes back from its zeros.
        st = random_stellar_state(rank, 0)
        wf = build_wavefunction(st)
        assert len(wf.zeros) == rank
        back = stellar_state_from_zeros(wf.zeros, alpha=st.alpha, chi=st.chi)
        assert abs(np.vdot(back.core, st.core)) > 1.0 - 1e-12

    @pytest.mark.parametrize("n, fault", [(369, "overflows a double"),
                                          (370, "371-node Gauss-Hermite rule")],
                             ids=["norm", "rule"])
    def test_norm_past_a_double_is_typed(self, n, fault):
        # At n = 369 the norm squared is about e^1801; from n = 370 the rule's
        # weights overflow.
        wf = WavefunctionForm(-0.5, 0.0, 0.0, np.linspace(-6, 6, n) + 0.3j)
        with pytest.raises(PrecisionLoss, match=fault):
            form_norm_squared(wf)

    def test_norm_with_a_zero_on_a_quadrature_node(self):
        # Zeros 0 and 1 at g2 = -1/2: three nodes, the middle one at x = 0,
        # and the integral of x^2 (x - 1)^2 exp(-x^2) is 5 sqrt(pi) / 4.
        wf = WavefunctionForm(-0.5, 0.0, 0.0, (0.0, 1.0))
        assert abs(form_norm_squared(wf) - 1.25 * math.sqrt(math.pi)) < 1e-14

    def test_norm_sums_its_terms_as_scipys_logsumexp_does_to_rounding(self):
        # The norm's log-space quadrature terms span hundreds of orders of
        # magnitude; its max-shifted sum must agree with SciPy's logsumexp on
        # the same terms, also where a real zero sits on a node (a -inf term).
        from scipy.special import logsumexp

        def log_norm_squared(wf):
            beta = -2.0 * wf.g2.real
            mu = wf.g1.real / beta
            nodes, weights = np.polynomial.hermite.hermgauss(wf.rank + 1)
            xs = mu + nodes / math.sqrt(beta)
            with np.errstate(divide="ignore"):
                logs = (np.log(weights)
                        + 2.0 * np.log(np.abs(xs[:, None] - np.array(wf.zeros))).sum(axis=1))
            return 2.0 * wf.g0.real + beta * mu * mu - 0.5 * math.log(beta) + logsumexp(logs)

        rng = np.random.default_rng(3)
        forms = [WavefunctionForm(-0.5, 0.0, 0.0, (0.0, 1.0))]
        for _ in range(200):
            # Up to 360 zeros, spread up to 4: many terms past e^709 (exp overflows),
            # with g0 bringing most totals back into a double's normal range.
            r = int(rng.integers(0, 360))
            zeros = (rng.normal(0, rng.uniform(0.1, 4), r)
                     + 1j * rng.normal(0, rng.uniform(0, 1), r))
            forms.append(WavefunctionForm(complex(-rng.uniform(0.2, 2), rng.normal()),
                                          complex(rng.normal(), rng.normal()),
                                          complex(rng.uniform(-600, 100), rng.normal()), zeros))
        checked = 0
        for wf in forms:
            want = log_norm_squared(wf)
            if not math.log(np.finfo(float).tiny) < want < math.log(np.finfo(float).max):
                continue
            got = math.log(form_norm_squared(wf))
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), wf.rank
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("alpha,chi", [(0.0, 0.0), (0.4, 0.0), (0.3, 0.5), (-0.2j, 0.2j)])
    def test_rank_one_leading_coefficient(self, alpha, chi):
        # Leading coefficient of (c0 + c1 a†) applied to a packet is
        # c1 (1 + 2a)/sqrt(2) with a = -g2 (exact, pre-normalization).
        wf = packet(alpha, chi)
        c0, c1 = 0.3 - 0.1j, 0.8 + 0.25j
        poly = apply_creation_polynomial(wf, [c0, c1])
        a = -wf.g2
        want = c1 * (1 + 2 * a) / math.sqrt(2)
        assert abs(poly[-1] - want) < 1e-14 * abs(want)


class TestEvalForm:
    def test_vanishes_at_zero(self):
        wf = build_wavefunction(fock_state(2))
        assert abs(eval_form(wf, wf.zeros[0])) < 1e-14

    def test_vacuum_at_origin(self):
        wf = packet(0.0, 0.0)
        assert abs(eval_form(wf, 0.0) - PI14) < 1e-14

    def test_cross_path_fock_one(self):
        wf = build_wavefunction(fock_state(1))
        v = stellar_to_fock(fock_state(1), 60)
        assert abs(eval_form(wf, 1.0) - eval_entire(v, 1.0)) < 1e-10
        # Like the series, the closed form takes finite points only, and an
        # overflowed value is a typed error naming its point.
        for z in (math.nan, math.inf, complex(0.0, math.inf)):
            with pytest.raises(InvalidParameter, match="finite"):
                eval_form(wf, [0.5, z])
        with pytest.raises(PrecisionLoss, match=r"z=0\+40j is not finite"):
            eval_form(wf, [1.0, 40j])


class TestEvalEntire:
    def test_vacuum_at_i(self):
        v = FockVector(np.array([1.0, 0, 0, 0], dtype=complex))
        want = PI14 * math.exp(0.5)
        assert abs(eval_entire(v, 1j) - want) < 1e-13

    def test_single_photon_at_origin(self):
        v = FockVector(np.array([0, 1.0, 0], dtype=complex))
        assert abs(eval_entire(v, 0.0)) < 1e-15

    def test_precision_loss_on_undertruncated_tail(self):
        # At chi = 1 the series terms at z = 3i keep growing until n ~ 240,
        # so a cutoff of 100 leaves an obviously unconverged tail.
        v = stellar_to_fock(StellarState(0, [1.0], 0.0, 1.0), 100)
        with pytest.raises(PrecisionLoss):
            eval_entire(v, 3j)
        # a sufficiently deep cutoff evaluates the same point cleanly
        deep = stellar_to_fock(StellarState(0, [1.0], 0.0, 1.0), 900)
        assert np.isfinite(eval_entire(deep, 3j).real)

    def test_overflowed_value_is_a_typed_error(self):
        # At 40i the series overflows to NaN, which the checked evaluators once
        # returned; unchecked, it comes back raw and without a warning.
        v = stellar_to_fock(random_stellar_state(2, 1))
        with pytest.raises(PrecisionLoss, match=r"z=0\+40j is not finite"):
            eval_entire(v, 40j)
        with pytest.raises(PrecisionLoss, match=r"z=0\+40j is not finite"):
            eval_entire(v, [1.0, 40j])
        assert np.isnan(eval_entire(v, [1.0, 40j], check=False)[1])

    @pytest.mark.parametrize("z", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_point_is_rejected(self, z):
        v = stellar_to_fock(random_stellar_state(2, 1))
        for evaluate in (eval_entire, lambda v, z: eval_entire(v, z, check=False)):
            with pytest.raises(InvalidParameter, match="finite"):
                evaluate(v, [0.5, z])

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 8, 9, 104, 851])
    def test_banded_solve_matches_the_recurrence_loop(self, cutoff):
        rng = np.random.default_rng(cutoff)
        v = FockVector(rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1))
        zs = rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(-3.0, 3.0, 64)
        want, want_envelope = hermite_series_loop(v.coeffs, zs)
        got, envelope = eval_entire_envelope(v, zs)
        assert np.all(np.abs(got - want) <= 8.0 * EPS * want_envelope)
        assert np.allclose(envelope, want_envelope, rtol=1e-12, atol=0.0)
        assert np.array_equal(eval_entire(v, zs, check=False), got)

    def test_grid_keeps_its_shape(self):
        st = random_stellar_state(2, 3)
        v = _series(st, 3.0)
        zs = np.array([[0.1 + 0.2j, -1.0, 2.0j], [0.5 - 0.5j, 1.5 + 0.3j, -2.0 - 1.0j]])
        flat = eval_entire(v, zs.ravel())
        assert np.array_equal(eval_entire(v, zs), flat.reshape(2, 3))
        assert np.array_equal(eval_entire(v, zs, check=False), flat.reshape(2, 3))

    def test_empty_and_scalar_arguments(self):
        v = FockVector(np.array([0.6, 0.8j] + [0.0] * 10, dtype=complex))
        assert eval_entire(v, np.empty(0)).shape == (0,)
        assert eval_entire(v, np.empty(0), check=False).shape == (0,)
        assert isinstance(eval_entire(v, 0.5), complex)
        assert isinstance(eval_entire(v, 0.5, check=False), complex)
        assert eval_entire(v, 0.5) == eval_entire(v, np.array([0.5]))[0]

    def test_chunks_equal_single_point_solves(self):
        n, size = 852, 3 * (_CHUNK // 852) + 5
        rng = np.random.default_rng(7)
        zs = rng.uniform(-3.0, 3.0, size) + 1j * rng.uniform(-3.0, 3.0, size)
        assert np.array_equal(_hermite_functions(n, zs), solo_solves(n, zs))

    @pytest.mark.parametrize("n", [5, 105])
    def test_non_finite_points_do_not_leak(self, n):
        # exp(-z^2/2) overflows at 40i, and inf * 0 at a structural zero of
        # the band would turn the next point's values into NaN.
        zs = np.array([0.3 + 0.2j, 40j, 0.5 - 0.1j, np.nan, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            phi = _hermite_functions(n, zs)
        finite = [0, 2, 4]
        assert np.isfinite(phi[finite]).all()
        assert np.array_equal(phi[finite], solo_solves(n, zs[finite]))

    @staticmethod
    def dual_path_ok(a, b, envelope):
        """Pointwise: relative 1e-7 wherever the evaluation can resolve it,
        the amplitude-accuracy-times-conditioning floor elsewhere."""
        allowed = np.maximum(1e-7 * np.maximum(np.abs(a), np.abs(b)), 30e-11 * envelope)
        return np.all(np.abs(a - b) <= allowed)

    def test_dual_path_rank3(self):
        st, wf = distinct_random_state(3, 5, min_gap=0.0)
        v = _series(st, 3.0)
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
                v = _series(st, 3.0)
                zs = standard_grid()
                a = eval_form(wf, zs)
                b, envelope = eval_entire_envelope(v, zs)
                assert self.dual_path_ok(a, b, envelope), (rank, seed)


class TestSeriesCutoff:
    def test_bound_dominates_the_hermite_functions_on_the_strip(self):
        # |phi_n(-x + iy)| = |phi_n(x + iy)|, so x >= 0 covers the lines Im z = 0, y/2, y;
        # the Airy peak of phi_1499 on the real axis sits at x ~ 54.8.
        ys, n = np.array([0.0, 0.5, 1.0, 3.0, 3.8, 6.0]), np.arange(1500)
        x = np.linspace(0.0, 60.0, 601)
        zs = (x + 1j * ys[:, None, None] * np.array([0.0, 0.5, 1.0])[:, None]).reshape(ys.size, -1)
        bound = np.stack([_log_hermite_bound(n, y) for y in ys], axis=1)
        ratio = np.exp(max_log_abs_hermite_functions(n.size, zs) - bound)
        assert ratio.max() <= 1.0 + 1e-12  # n = 0 at z = iy: the bound is attained
        assert ratio.min() > 5e-3  # and never loose by more than a factor 200

    def test_cutoffs_match_the_gammaln_bound(self, monkeypatch):
        # The bound sums log n! from logs instead of calling gammaln; over
        # r 0-12 x s 0-19 x |Im z| in {0, 1, 3} no cutoff, and no refusal, moves.
        def gammaln_bound(n, y):
            rho = 0.5 * (np.sqrt(2.0 * y * y + 4.0 * n) - math.sqrt(2.0) * y)
            return (math.log(PI14) + 0.5 * (gammaln(n + 1.0) + y * y + rho * rho)
                    + math.sqrt(2.0) * y * rho - xlogy(n, rho))

        def cutoffs():
            got = []
            for rank in range(13):
                for seed in range(20):
                    st = random_stellar_state(rank, seed)
                    for y in (0.0, 1.0, 3.0):
                        try:
                            got.append(_series(st, y).cutoff)
                        except PrecisionLoss:
                            got.append(None)
            return got

        n = np.arange(3000)
        for y in (0.0, 1.0, 3.0):
            assert np.max(np.abs(_log_hermite_bound(n, y) - gammaln_bound(n, y))) < 1e-10
        got = cutoffs()
        monkeypatch.setattr(states, "_log_hermite_bound", gammaln_bound)
        assert cutoffs() == got

    @pytest.mark.parametrize(
        "rank,seed",
        [(0, 0), (1, 2), (2, 0), (3, 0), (4, 0), (5, 3), (5, 0), (6, 2), (3, 4), (1, 1)]
        + [(r, 700 + s) for r in range(1, 6) for s in range(3)],
    )
    def test_cut_series_matches_twice_its_length(self, rank, seed):
        # The tail past the cutoff stays below eps of the termwise envelope on the grid.
        st = random_stellar_state(rank, seed)
        v = _series(st, 3.0)
        zs = standard_grid()
        cut = eval_entire(v, zs, check=False)
        full, envelope = eval_entire_envelope(stellar_to_fock(st, 2 * v.cutoff), zs)
        assert np.all(np.abs(cut - full) <= EPS * envelope)

    @pytest.mark.parametrize("y", [1.0, 3.0, 5.0])
    def test_series_is_the_fock_vector_at_its_cutoff(self, monkeypatch, y):
        # The vector the bound measured is the start of the working vector, bitwise
        # the rows _stellar_rows makes at the cutoff; the first one is twice the floor.
        builds, rows = [], _stellar_rows
        monkeypatch.setattr(
            "stellar_zeros.states._stellar_rows",
            lambda st, n, outer: builds.append(n) or rows(st, n, outer),
        )
        for rank in (0, 2, 4, 6, 8):
            for seed, scale in [(0, 0.5), (1, 1.0), (2, 1.5)]:
                st = random_stellar_state(rank, seed, scale=scale)
                floor = default_cutoff(st.rank, st.alpha, st.chi)
                builds.clear()
                v = _series(st, y)
                assert builds[0] == 2 * floor, (rank, seed)
                assert v.cutoff >= floor, (rank, seed)
                assert np.array_equal(v.coeffs, rows(st, v.cutoff, (1, 0, 0))[0]), (rank, seed)

    @pytest.mark.parametrize("y", [0.0, 3.0, 25.0])
    def test_a_core_without_packet_ends_without_underflow(self, y):
        # |4> has no amplitude past n = 4 by construction, so however far the
        # strip reaches, the series ends there and the floor is the cutoff.
        v = _series(fock_state(4), y)
        assert v.cutoff == default_cutoff(4, 0.0, 0.0)
        assert abs(v.coeffs[4]) > 0.5 and not v.coeffs[5:].any()

    def test_series_past_the_row_budget_is_refused(self):
        # At Im 3 this squeezed state's amplitudes level off near 6e-305 around
        # n = 57,500, above the smallest normal double, and then grow, so the
        # bounded tail never falls: the doubling stops at the row budget.
        with pytest.raises(PrecisionLoss, match="not cut within"):
            _series(random_stellar_state(15, 0, scale=3.0), 3.0)

    def test_far_strip_stops_where_the_amplitudes_underflow(self):
        # Far off the axis the bound outgrows every amplitude a double can hold:
        # the series would stop at the last amplitude that did not underflow, with
        # its tail unproven (for the squeezed (6, 0) at Im 6, n = 30,099, where the
        # weighted terms still peak).
        for (rank, seed, scale), y in [((5, 0, 1.0), 25.0), ((6, 0, 2.0), 6.0),
                                       ((3, 1, 3.0), 25.0)]:
            with pytest.raises(PrecisionLoss, match="underflow past n = "):
                _series(random_stellar_state(rank, seed, scale=scale), y)


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
        with pytest.raises(InvalidParameter, match="finite s > 1"):
            growth_bound(v, math.inf, 0.25)
        diverging = stellar_to_fock(
            StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.0, chi=1.2), 400
        )
        with pytest.raises(InvalidParameter):
            growth_bound(diverging, 4.0, 0.25)  # > 1/tanh(1.2)

    def test_non_finite_value_is_no_evidence(self):
        # The series overflows at 30i; its NaN was once read as |psi| = 1e-300.
        w = stellar_to_fock(random_stellar_state(2, 600), 400)
        with pytest.raises(PrecisionLoss, match=r"z=0\+30j is not finite"):
            growth_bound_holds(growth_bound(w, 2.0, 0.25), w, [1.0, 30j])


def normalize_like(amps):
    arr = np.array(amps, dtype=complex)
    return FockVector(arr / np.linalg.norm(arr))


class TestHudson:
    def test_rank_zero_is_gaussian(self):
        st = random_stellar_state(0, 3, scale=0.7)
        res = hudson_test(st)
        assert res.gaussian and res.zero_count == 0

    def test_single_photon(self):
        res = hudson_test(fock_state(1))
        assert not res.gaussian
        assert res.zero_count == 1

    @pytest.mark.parametrize(
        "st",
        [random_stellar_state(r, s, scale=0.7)
         for r, s in [(0, 1), (1, 4), (2, 2), (3, 6), (4, 11)]]
        + [random_stellar_state(r, s, scale=0.8)
           for r, s in [(0, 0), (1, 2), (2, 1), (3, 0), (4, 4), (5, 3)]]
        + [StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.8, chi=0.0)],
        ids=["0-1", "1-4", "2-2", "3-6", "4-11",
             "0-0@0.8", "1-2@0.8", "2-1@0.8", "3-0@0.8", "4-4@0.8", "5-3@0.8", "coherent"],
    )
    def test_counts_the_declared_rank(self, st):
        res = hudson_test(st)
        assert (res.gaussian, res.zero_count) == (st.rank == 0, st.rank)
        assert len(build_wavefunction(st).zeros) == st.rank

    @pytest.mark.parametrize("n", range(13))
    def test_number_state_counts_past_its_repeated_stellar_zero(self, n):
        # Every zero of |n> is real, and below rank n its repeated stellar zero
        # leaves null vectors without a frame: each such rank must move the
        # count on, not end it.
        res = hudson_test(fock_state(n))
        assert (res.gaussian, res.zero_count) == (n == 0, n)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_displaced_squeezed_number_states(self, n):
        st = StellarState(rank=n, core=np.eye(n + 1)[n], alpha=0.3 - 0.2j, chi=0.25 + 0.1j)
        res = hudson_test(st)
        assert (res.gaussian, res.zero_count) == (False, n)

    @pytest.mark.parametrize(
        "zeros",
        [[0.0], [1.0, -1.0], [0.5 + 1e-3j, 0.5 - 1e-3j], [1e-12j, -2.0, 2.0 + 1e-9j], [0.7, 0.7]],
        ids=["origin", "pair", "conjugates", "near_real", "double"],
    )
    def test_zeros_on_and_next_to_the_real_line_are_counted(self, zeros):
        # The count is made from the series on the real line, where these
        # zeros lie or nearly lie.
        res = hudson_test(stellar_state_from_zeros(zeros))
        assert (res.gaussian, res.zero_count) == (False, len(zeros))

    def test_squeezed_draw_counts_from_its_real_line_series(self):
        # A contour box around its zeros reached Im 11.8, past where this squeezed
        # state's amplitudes underflow; the count needs only the real line.
        res = hudson_test(random_stellar_state(6, 0, scale=2.0))
        assert (res.gaussian, res.zero_count) == (False, 6)

    def test_counts_every_unit_scale_draw(self):
        # Ranks 0-12 x seeds 0-19: the contour count refused 94 of these 260.
        for rank in range(13):
            for seed in range(20):
                res = hudson_test(random_stellar_state(rank, seed))
                assert (res.gaussian, res.zero_count) == (rank == 0, rank), (rank, seed)

    def test_rank_thirty_ends_in_a_count_or_a_typed_error(self):
        # A contour box around its zeros reached Im 10.3, where the strip series
        # did not end within 20 s.
        try:
            res = hudson_test(random_stellar_state(30, 4))
        except StellarZerosError:
            return
        assert res.zero_count == 30

    def test_never_a_wrong_count(self):
        # Unit-scale draws of ranks 0-8: a count that cannot be certified is a
        # PrecisionLoss, never a wrong number such as the contour count's zero
        # for (6, 6) or -14 for (6, 2).
        counted = 0
        for rank in range(9):
            for seed in range(10):
                try:
                    res = hudson_test(random_stellar_state(rank, seed))
                except PrecisionLoss:
                    continue
                assert (res.gaussian, res.zero_count) == (rank == 0, rank), (rank, seed)
                counted += 1
        assert counted >= 66


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

    @pytest.mark.parametrize("case", sorted(REFERENCE_ZEROS))
    def test_sorted_reference_zeros_give_back_the_core(self, case):
        # Sorted zeros are the order in which an unordered product of the
        # factors loses 2e-2 of the rank-50 core.
        st = random_stellar_state(*map(int, case.split(",")))
        zeros = sorted((complex(*z) for z in REFERENCE_ZEROS[case]), key=lambda z: (z.real, z.imag))
        back = stellar_state_from_zeros(zeros, alpha=st.alpha, chi=st.chi)
        overlap = np.vdot(back.core, st.core)
        assert np.max(np.abs(back.core * overlap / abs(overlap) - st.core)) < 1e-9

    @pytest.mark.parametrize("zeros,alpha,chi", [
        ([math.nan], 0.0, 0.0), ([0.5, math.inf], 0.0, 0.0),
        ([0.5], math.nan, 0.0), ([0.5], 0.0, math.inf),
    ])
    def test_non_finite_input_is_rejected(self, zeros, alpha, chi):
        with pytest.raises(InvalidParameter, match="finite"):
            stellar_state_from_zeros(zeros, alpha=alpha, chi=chi)

    def test_close_zeros_stay_distinct(self):
        # A 1-ulp change to this core moves the pair near 3 by up to 2.5e-9,
        # so the build is held to the core's own zeros (60-digit mpmath,
        # rounded), which lie 9.3e-10 from the targets, not to the targets.
        zeros = [3, 3 + 1e-6, -3, 3j, -3j, 2 + 2j]
        core = np.array([
            -0.6763465016794203 - 0.6261203530304019j,
            0.35515257405654604 + 0.14206100121041818j,
            -0.0475835337234507 + 0.016550801774456534j,
            -0.028153481788820475 - 0.011261390463250094j,
            0.021500118203017102 + 0.009555609859786617j,
            -0.012590619816620994 - 0.005036246919399014j,
            0.004361517771930665,
        ])
        assert np.allclose(stellar_state_from_zeros(zeros).core, core, rtol=0, atol=1e-14)
        want = np.array([
            2.9999999996391775 - 8.54201422067728e-10j,
            3.0000010003608235 + 8.542026669874099e-10j,
            -3.0 - 1.0748100150414057e-17j,
            8.600158093679256e-17 + 2.9999999999999996j,
            -5.729601193143445e-17 - 3.0j,
            2.0000000000000004 + 1.9999999999999996j,
        ])
        got = np.array(build_wavefunction(StellarState(6, core, 0.0, 0.0)).zeros)
        pair = np.abs(got - 3.0) < 1e-3
        assert matching_distance(got[~pair], want[2:]) < 1e-12
        assert matching_distance(got[pair], want[:2]) < 1e-8  # about four ulps of the core
        assert 0.9e-6 < abs(got[pair][0] - got[pair][1]) < 1.1e-6


class TestFormJson:
    def test_roundtrip(self):
        wf = build_wavefunction(random_stellar_state(3, 9))
        data = form_to_json(wf)
        assert data["leading"] == [1.0, 0.0]
        back = form_from_json(data)
        assert abs(back.g2 - wf.g2) < 1e-15
        assert abs(back.g1 - wf.g1) < 1e-15
        assert abs(back.g0 - wf.g0) < 1e-15
        assert matching_distance(back.zeros, wf.zeros) < 1e-15

    def test_a_file_with_a_leading_coefficient_reads_as_the_same_function(self):
        # A form file may carry the constant split between "leading" and g0, as
        # `build` wrote it before g0 held the whole constant: this is that
        # file for random_stellar_state(3, 9).
        data = {
            "g2": [-1.2362168809705552, -0.9293911178541182],
            "g1": [-0.5263931213119236, -0.30716046316536527],
            "g0": [-0.11591754526203782, 0.21304434026998995],
            "zeros": [[-0.8693705070895553, -0.34877784785807103],
                      [0.258881855023521, 0.063994277942944],
                      [0.813784857553362, -1.4158046872862367]],
            "leading": [-0.35288368242392865, 1.2802860763644375],
        }
        wf = build_wavefunction(random_stellar_state(3, 9))
        zs = standard_grid()
        want = eval_form(wf, zs)
        got = eval_form(form_from_json(data), zs)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("leading", [[0.0, 0.0], [math.inf, 0.0], [math.nan, 1.0]],
                             ids=["zero", "inf", "nan"])
    def test_zero_or_non_finite_leading_is_rejected(self, leading):
        data = form_to_json(build_wavefunction(random_stellar_state(2, 0)))
        data["leading"] = leading
        with pytest.raises(InvalidParameter):
            form_from_json(data)


def test_energy_moment_convergence_needed_for_growth_bound():
    # x -> exp(-x^4)-style states violate every s > 1 bound and are outside
    # the zero-certification contract; finite-rank fixtures are inside it.
    v = stellar_to_fock(random_stellar_state(2, 1, scale=0.5), 200)
    assert energy_moment(v, 1.05).verdict is Verdict.CONVERGED
