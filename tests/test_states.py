"""State representations, basis operations, energy-bound diagnostics."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from conftest import annihilation_matrix, eval_entire_envelope

from stellar_zeros import (
    CutoffTooSmall,
    FockVector,
    InvalidParameter,
    QuadraticHamiltonian,
    StellarState,
    StellarZerosError,
    Verdict,
    ZeroVector,
    build_wavefunction,
    energy_moment,
    eval_form,
    evolve_fock,
    normalize,
    random_stellar_state,
    state_from_json,
    state_to_json,
    stellar_to_fock,
    zeros_from_fock,
)
from stellar_zeros.states import _series


HP = QuadraticHamiltonian.phase_shift()


def vec(*amps):
    return FockVector(np.array(amps, dtype=complex))


def squeezed_vacuum(chi, cutoff):
    return stellar_to_fock(StellarState(0, [1.0], 0.0, chi), cutoff)


def squeezed_vacuum_reference(chi, cutoff):
    """Closed-form squeezed-vacuum amplitudes (test oracle), in log space.

    ``psi_{2n} = (-e^{i phi} tanh r)^n sqrt((2n)!) / (2^n n!) / sqrt(cosh r)``
    with ``chi = r e^{i phi}``; odd amplitudes are exactly zero.
    """
    r, phi = abs(chi), cmath.phase(chi)
    n = np.arange(cutoff // 2 + 1)
    logmag = (n * math.log(math.tanh(r)) + 0.5 * gammaln(2 * n + 1) - n * math.log(2.0)
              - gammaln(n + 1) - 0.5 * math.log(math.cosh(r)))
    out = np.zeros(cutoff + 1, dtype=complex)
    out[::2] = np.exp(logmag + 1j * n * (phi + math.pi))
    return out


class TestNormalize:
    def test_already_normalized(self):
        v = normalize(vec(1, 0, 0))
        assert np.allclose(v.coeffs, [1, 0, 0])

    def test_scaling(self):
        v = normalize(vec(2, 0))
        assert np.allclose(v.coeffs, [1, 0])

    def test_symmetry(self):
        v = normalize(vec(1, 1))
        assert np.allclose(v.coeffs, [1 / math.sqrt(2)] * 2)
        assert abs(v.norm() - 1.0) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            normalize(vec(0, 0, 0))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            vec(1, float("nan"))


class TestPhaseShift:
    def test_identity(self):
        v = normalize(vec(1, 1, 1))
        assert np.allclose(evolve_fock(v, HP, 0.0).coeffs, v.coeffs)

    def test_quarter_turn_single_photon(self):
        v = evolve_fock(vec(0, 1), HP, math.pi / 2)
        assert abs(v.coeffs[1] - (-1j)) < 1e-15

    def test_full_turn(self):
        v = normalize(vec(1, 2, 3, 4))
        w = evolve_fock(v, HP, 2 * math.pi)
        assert np.max(np.abs(w.coeffs - v.coeffs)) < 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-12, 12, allow_nan=False),
        st.floats(-12, 12, allow_nan=False),
    )
    def test_unitary_and_composed(self, t1, t2):
        v = normalize(vec(0.3, -0.5 + 0.1j, 0.7, 0.2j, -0.1))
        w = evolve_fock(v, HP, t1)
        assert abs(w.norm() - v.norm()) < 1e-14
        once = evolve_fock(w, HP, t2).coeffs
        both = evolve_fock(v, HP, t1 + t2).coeffs
        assert np.max(np.abs(once - both)) < 1e-13


class TestEnergyMoment:
    def test_vacuum(self):
        rep = energy_moment(vec(1, 0, 0, 0), 2.0)
        assert rep.partial_sum == 1.0
        assert rep.verdict is Verdict.CONVERGED
        assert rep.tail_estimate == 0.0

    def test_single_photon(self):
        rep = energy_moment(vec(0, 1, 0, 0, 0), 3.0)
        assert abs(rep.partial_sum - 3.0) < 1e-15
        assert rep.verdict is Verdict.CONVERGED

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidParameter):
            energy_moment(vec(1, 0), 1.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_requires_a_finite_s(self, s):
        # An infinite s once ran into 0 * inf, a RuntimeWarning, before any verdict.
        with pytest.raises(InvalidParameter, match="finite s > 1"):
            energy_moment(vec(0.6, 0.8, 0), s)

    def test_two_terms_at_the_cutoff_are_inconclusive(self):
        # The support reaches the cutoff, so it may be a cut tail, and two
        # terms are too few to fit a geometric ratio.
        rep = energy_moment(vec(1, 0, 0, 1), 2.0)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.tail_estimate == math.inf and math.isnan(rep.ratio)
        assert abs(rep.partial_sum - 9.0) < 1e-14

    def test_squeezed_vacuum_thresholds(self):
        # tanh r = 0.5 puts the convergence edge at s = 2.
        r = math.atanh(0.5)
        v = squeezed_vacuum(r, 2000)
        assert energy_moment(v, 1.8).verdict is Verdict.CONVERGED
        assert energy_moment(v, 2.2).verdict is Verdict.DIVERGED

        # Independent brute-force check: growth of consecutive partial sums.
        mags2 = np.abs(v.coeffs) ** 2
        ns = np.arange(mags2.size)
        for s, should_grow in ((1.8, False), (2.2, True)):
            with np.errstate(divide="ignore", over="ignore"):
                terms = np.exp(ns * math.log(s) + np.log(np.where(mags2 > 0, mags2, 1e-320)))
            terms[mags2 == 0] = 0.0
            s1000 = terms[:1001].sum()
            s2000 = terms.sum()
            grew = (s2000 - s1000) > 1e-3 * s1000
            assert grew == should_grow

    def test_monotone_in_s(self):
        v = squeezed_vacuum(0.4, 300)
        sums = [energy_moment(v, s).partial_sum for s in (1.1, 1.4, 1.9, 2.6)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    @pytest.mark.parametrize("rank", range(5))
    def test_finite_rank_states_satisfy_a_bound(self, rank):
        st_ = random_stellar_state(rank, 3 + rank, scale=1.0)
        chi_mag = abs(st_.chi)
        s = 2.0 if chi_mag < 1e-12 else 1.0 + 0.1 * (1.0 / math.tanh(chi_mag) - 1.0)
        v = stellar_to_fock(st_, 400)
        assert energy_moment(v, s).verdict is Verdict.CONVERGED

    @pytest.mark.parametrize("rank", range(5))
    def test_photon_addition_keeps_bound(self, rank):
        st_ = random_stellar_state(rank, 3 + rank, scale=1.0)
        chi_mag = abs(st_.chi)
        s = 2.0 if chi_mag < 1e-12 else 1.0 + 0.1 * (1.0 / math.tanh(chi_mag) - 1.0)
        v = stellar_to_fock(st_, 400)
        added = np.zeros(v.coeffs.size + 1, dtype=complex)
        added[1:] = v.coeffs * np.sqrt(np.arange(1, v.coeffs.size + 1))
        w = normalize(FockVector(added))
        assert energy_moment(w, (1.0 + s) / 2.0).verdict is Verdict.CONVERGED


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        v = squeezed_vacuum(0.0, 10)
        assert v.coeffs[0] == 1.0
        assert np.all(v.coeffs[1:] == 0)

    def test_odd_amplitudes_vanish(self):
        v = squeezed_vacuum(0.7 + 0.3j, 81)
        assert np.all(np.abs(v.coeffs[1::2]) == 0)

    @pytest.mark.parametrize("r", (0.3, 0.8))
    def test_second_amplitude_ratio(self, r):
        v = squeezed_vacuum(r, 60)
        ratio = v.coeffs[2] / v.coeffs[0]
        assert abs(ratio - (-math.tanh(r) / math.sqrt(2))) < 1e-14

    def test_against_dense_matrix_exponential(self):
        chi = 0.55 * np.exp(0.8j)
        dim = 61
        a = annihilation_matrix(dim)
        ad = a.conj().T
        s_op = expm(0.5 * (np.conj(chi) * (a @ a) - chi * (ad @ ad)))
        want = s_op[:, 0]
        got = squeezed_vacuum(chi, 60).coeffs
        # the dense exponential of the truncated generator is only reliable
        # away from the truncation edge
        assert np.max(np.abs(got - want)[:50]) < 1e-12

    @pytest.mark.parametrize("chi", (0.3, 0.6, 1.0, 0.55 * cmath.exp(0.8j)))
    def test_kernel_rows_match_the_closed_form_expansion(self, chi):
        got = squeezed_vacuum(chi, 2000).coeffs
        want = squeezed_vacuum_reference(chi, 2000)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        last = np.flatnonzero(got)[-10:]  # past them the rows underflow and are zeroed
        assert np.max(np.abs(got[last] - want[last]) / np.abs(want[last])) <= 1e-10


def laguerre_displacement_element(m, n, alpha):
    """<m|D(alpha)|n> from the two-index Laguerre closed form (test oracle)."""
    acc = 0.0 + 0.0j
    for j in range(min(m, n) + 1):
        acc += (
            (-1.0) ** j
            * math.factorial(m)
            * math.factorial(n)
            / (
                math.factorial(j)
                * math.factorial(m - j)
                * math.factorial(n - j)
            )
            * alpha ** (m - j)
            * np.conj(alpha) ** (n - j)
        )
    return (
        (-1.0) ** n
        * math.exp(-0.5 * abs(alpha) ** 2)
        / math.sqrt(math.factorial(m) * math.factorial(n))
        * acc
    )


def stellar_to_fock_exponential(st: StellarState, cutoff: int) -> FockVector:
    """Same state via exponentials of the truncated generators (test oracle).

    Applies ``exp((chi* a^2 - chi a†^2)/2)`` then ``exp(alpha a† - alpha* a)``
    in a padded working space.  Tail amplitudes below roughly ``1e-16`` of
    the norm are not reliable (absolute roundoff of the exponential), so
    this route is a real-axis cross-check of :func:`stellar_to_fock`.
    """
    if cutoff < st.rank:
        raise CutoffTooSmall("cutoff below the stellar rank")
    pad = max(24, (cutoff + 1) // 2)
    dim = cutoff + 1 + pad
    a = annihilation_matrix(dim)
    ad = a.conj().T
    vec = np.zeros(dim, dtype=complex)
    vec[: st.rank + 1] = st.core
    if st.chi != 0:
        gen_s = csr_matrix(0.5 * (np.conj(st.chi) * (a @ a) - st.chi * (ad @ ad)))
        vec = expm_multiply(gen_s, vec)
    if st.alpha != 0:
        gen_d = csr_matrix(st.alpha * ad - np.conj(st.alpha) * a)
        vec = expm_multiply(gen_d, vec)
    discarded = float(np.sum(np.abs(vec[cutoff + 1 :]) ** 2))
    if discarded >= 1e-10:
        raise CutoffTooSmall(
            f"discarded norm {discarded:.3e} at cutoff {cutoff}; increase the cutoff"
        )
    return FockVector(vec[: cutoff + 1])


class TestStellarToFock:
    def test_vacuum(self):
        st_ = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.0, chi=0.0)
        v = stellar_to_fock(st_, 8)
        assert abs(v.coeffs[0] - 1.0) < 1e-14
        assert np.max(np.abs(v.coeffs[1:])) < 1e-14

    def test_fock_one(self):
        st_ = StellarState(rank=1, core=np.array([0, 1.0 + 0j]), alpha=0.0, chi=0.0)
        v = stellar_to_fock(st_, 8)
        assert abs(v.coeffs[1] - 1.0) < 1e-14

    def test_displaced_photon_matches_laguerre_formula(self):
        alpha = 1.0
        st_ = StellarState(rank=1, core=np.array([0, 1.0 + 0j]), alpha=alpha, chi=0.0)
        v = stellar_to_fock(st_, 60)
        want = np.array([laguerre_displacement_element(m, 1, alpha) for m in range(61)])
        assert np.max(np.abs(v.coeffs - want)) < 1e-12

    def test_complex_displacement_matches_laguerre_formula(self):
        alpha = 0.6 - 0.8j
        st_ = StellarState(rank=2, core=np.array([0, 0, 1.0 + 0j]), alpha=alpha, chi=0.0)
        v = stellar_to_fock(st_, 60)
        want = np.array([laguerre_displacement_element(m, 2, alpha) for m in range(61)])
        assert np.max(np.abs(v.coeffs - want)) < 1e-12

    def test_cutoff_too_small(self):
        st_ = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=3.0, chi=0.0)
        with pytest.raises(CutoffTooSmall):
            stellar_to_fock(st_, 10)

    def test_rank_past_300_comes_back_exactly(self):
        # sqrt(301!) is past the largest float, but the kernel's rows need no
        # factorial: |301> comes back as the unit vector e_301, to rounding.
        core = np.zeros(302, dtype=complex)
        core[-1] = 1.0
        v = stellar_to_fock(StellarState(rank=301, core=core, alpha=0.0, chi=0.0), 400)
        assert np.max(np.abs(v.coeffs - np.eye(401)[301])) < 1e-14

    def test_norm_postcondition(self):
        st_ = random_stellar_state(3, 7)
        v = stellar_to_fock(st_)
        assert 0.0 < v.norm() ** 2 <= 1.0 + 1e-9

    def test_without_a_cutoff_it_is_the_real_line_series(self):
        # One sizing rule: the series cut where its bounded tail on the real
        # line is below eps.  The 8<n> floor alone leaves more than 1e-10 of
        # the norm past it for 116 of these 210 draws.
        for rank in range(7):
            for seed in range(30):
                st_ = random_stellar_state(rank, seed)
                v = stellar_to_fock(st_)
                assert np.array_equal(v.coeffs, _series(st_, 0.0).coeffs), (rank, seed)
                assert abs(v.norm() ** 2 - 1.0) < 1e-10, (rank, seed)

    @pytest.mark.parametrize("rank", [10, 20, 30, 40])
    def test_high_rank_conversion_is_the_closed_form(self, rank):
        # The rows are exact, so the norm is one and the series is the closed form
        # on Im z = 0.5, to rounding of the larger of the envelope and the value.
        zs = np.linspace(-4.0, 4.0, 41) + 0.5j
        for seed in range(10):
            st_ = random_stellar_state(rank, seed)
            v = stellar_to_fock(st_)
            assert abs(v.norm() ** 2 - 1.0) <= 1e-12, seed
            got, envelope = eval_entire_envelope(v, zs)
            want = eval_form(build_wavefunction(st_), zs)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(envelope, np.abs(want))), seed

    def test_rank_100_is_kept_or_refused(self):
        # Past the column recurrence's reach, rounding grows the norm: a typed
        # error, never a vector whose norm is off.
        for seed in range(10):
            try:
                v = stellar_to_fock(random_stellar_state(100, seed))
            except StellarZerosError:
                continue
            assert abs(v.norm() ** 2 - 1.0) <= 1e-8, seed

    def test_exponential_route_agrees(self):
        st_ = random_stellar_state(2, 4, scale=0.8)
        a = stellar_to_fock(st_, 120).coeffs
        b = stellar_to_fock_exponential(st_, 120).coeffs
        assert np.max(np.abs(a - b)) < 1e-11


class TestRandomStellarState:
    def test_deterministic(self):
        a = random_stellar_state(3, 42)
        b = random_stellar_state(3, 42)
        assert np.array_equal(a.core, b.core)
        assert a.alpha == b.alpha and a.chi == b.chi

    def test_rank_zero(self):
        st_ = random_stellar_state(0, 7)
        assert st_.rank == 0
        assert abs(np.linalg.norm(st_.core) - 1.0) < 1e-12

    def test_top_coefficient_alive(self):
        st_ = random_stellar_state(3, 1)
        assert abs(st_.core[-1]) > 1e-6

    def test_scale_bounds(self):
        st_ = random_stellar_state(2, 9, scale=0.5)
        assert abs(st_.alpha) <= 0.5 and abs(st_.chi) <= 0.5

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_a_scale_that_is_not_finite_and_nonnegative(self, scale):
        with pytest.raises(InvalidParameter):
            random_stellar_state(2, 0, scale=scale)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(InvalidParameter, match="seed"):
            random_stellar_state(2, -1)


class TestStellarState:
    @pytest.mark.parametrize("field", ["core", "alpha", "chi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_parameters(self, field, bad):
        params = dict(rank=1, core=np.array([0.6, 0.8j]), alpha=0.3, chi=0.2j)
        params[field] = np.array([0.6, bad]) if field == "core" else bad
        with pytest.raises(InvalidParameter, match="finite"):
            StellarState(**params)

    @pytest.mark.parametrize("rank,core", [(1.0, [0.6, 0.8]), (True, [0.6, 0.8]), (-1, [])])
    def test_rejects_a_rank_that_is_not_a_nonnegative_integer(self, rank, core):
        # A float rank failed later in stellar_to_fock's slicing, and -1 as a zero core.
        with pytest.raises(InvalidParameter, match="rank"):
            StellarState(rank, core, 0.1, 0.1)

    def test_numpy_integer_rank_is_stored_as_int(self):
        st_ = StellarState(np.int64(1), [0.6, 0.8], 0.1, 0.1)
        assert type(st_.rank) is int
        assert json.loads(json.dumps(state_to_json(st_)))["rank"] == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda v: zeros_from_fock(v, 2.7),
        lambda v: zeros_from_fock(v, True),
        lambda v: zeros_from_fock(v, "2"),
        lambda v: stellar_to_fock(random_stellar_state(2, 1), 80.5),
        lambda v: stellar_to_fock(random_stellar_state(2, 1), -1),
        lambda v: random_stellar_state(1.5, 0),
        lambda v: random_stellar_state(2, np.float64(3.0)),
        lambda v: random_stellar_state(False, 0),
    ],
    ids=["rank-float", "rank-bool", "rank-str", "cutoff-float", "cutoff-negative",
         "fixture-rank-float", "fixture-seed-float", "fixture-rank-bool"],
)
def test_integer_arguments_must_be_nonnegative_integers(call):
    # A float rank was truncated (2.7 solved at rank 2), True taken as rank 1, and a
    # string, a float cutoff or a float fixture rank raised an untyped TypeError.
    v = stellar_to_fock(random_stellar_state(2, 1))
    with pytest.raises(InvalidParameter, match="must be a nonnegative integer"):
        call(v)


class TestStateJson:
    def test_roundtrip(self):
        st_ = random_stellar_state(3, 11)
        back = state_from_json(state_to_json(st_))
        assert np.max(np.abs(back.core - st_.core)) < 1e-15
        assert back.alpha == st_.alpha and back.chi == st_.chi

    def test_rejects_unnormalized(self):
        data = {"rank": 0, "core": [[2.0, 0.0]], "alpha": [0, 0], "chi": [0, 0]}
        with pytest.raises(InvalidParameter):
            state_from_json(data)

    @pytest.mark.parametrize("key", ["alpha", "chi"])
    def test_rejects_non_finite_displacement_or_squeezing(self, key):
        data = state_to_json(random_stellar_state(1, 0))
        data[key] = [math.inf, 0.0]
        with pytest.raises(InvalidParameter):
            state_from_json(data)

    @pytest.mark.parametrize("rank", [True, 1.9, 1.0, "1", None])
    def test_rejects_a_rank_that_is_not_an_integer(self, rank):
        # With int() these loaded as rank 1 beside a two-entry core.
        data = state_to_json(random_stellar_state(1, 0))
        data["rank"] = rank
        with pytest.raises(InvalidParameter):
            state_from_json(data)
