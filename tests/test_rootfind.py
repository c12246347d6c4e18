"""Colleague-matrix Hermite-series roots and small-matrix eigenvalues."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e as HE
from numpy.polynomial import polynomial as P
from scipy.sparse.csgraph import connected_components

from stellar_zeros import (
    InvalidParameter,
    eigenvalues_small,
    NoConvergence,
    matching_distance,
    roots_hermite,
)
from stellar_zeros.rootfind import _cluster

RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-3


def sqrt_factorials(deg):
    return np.sqrt([math.factorial(n) for n in range(deg + 1)])


def from_roots(roots):
    """Orthonormal-Hermite coefficients of ``prod (w - root)``, through numpy's He_n basis."""
    return HE.poly2herme(P.polyfromroots(roots)) * sqrt_factorials(len(roots))


def residuals_ok(coeffs, roots):
    """``|p(w)| <= 1e-10 ||d|| ||h(w)||`` at every root, with numpy's Vandermonde matrix."""
    d = np.asarray(coeffs, dtype=complex)
    h = HE.hermevander(np.array(roots, dtype=complex), d.size - 1) / sqrt_factorials(d.size - 1)
    res = np.abs(h @ d)
    return np.all(res <= RESIDUAL_TOL * np.linalg.norm(d) * np.linalg.norm(h, axis=1))


def cluster_bfs(roots, tol):
    """Reference: greedy chaining of roots within ``tol``, each cluster listed as its mean."""
    roots = list(roots)
    used = [False] * len(roots)
    out = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [z]
        while frontier:
            w = frontier.pop()
            for j, y in enumerate(roots):
                if not used[j] and abs(y - w) <= tol:
                    used[j] = True
                    group.append(j)
                    frontier.append(y)
        center = sum(roots[j] for j in group) / len(group)
        out.extend([center] * len(group))
    return out


coords = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def planted_clusters(draw):
    """Random points, some trailing a chain of steps shorter than CLUSTER_TOL."""
    points = []
    for _ in range(draw(st.integers(0, 8))):
        z = complex(draw(coords), draw(coords))
        points.append(z)
        for _ in range(draw(st.integers(0, 4))):  # 1 step plants a pair, more a chain
            step = draw(st.floats(0.0, 0.9 * CLUSTER_TOL))
            z += step * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
            points.append(z)
    return draw(st.permutations(points))


class TestRootsPolynomial:
    """``roots_hermite`` on series in ``h_n = He_n / sqrt(n!)``."""

    def test_quadratic_real_roots(self):
        roots = roots_hermite([0, 0, 1])  # h_2 = (w^2 - 1) / sqrt(2)
        assert matching_distance(roots, [1, -1]) < 1e-12

    def test_quadratic_imaginary_roots(self):
        roots = roots_hermite([2, 0, math.sqrt(2)])  # w^2 + 1
        assert matching_distance(roots, [1j, -1j]) < 1e-12

    def test_wilkinson_5(self):
        roots = roots_hermite(from_roots([1, 2, 3, 4, 5]))
        assert matching_distance(roots, [1, 2, 3, 4, 5]) < 1e-8

    def test_multiplicity_clustering(self):
        roots = sorted(roots_hermite(from_roots([1.0, 1.0, -2.0])), key=lambda z: z.real)
        assert abs(roots[0] + 2.0) < 1e-8
        # double root reported as one clustered value, repeated
        assert roots[1] == roots[2]
        assert abs(roots[1] - 1.0) < 1e-6

    def test_root_where_every_term_vanishes(self):
        # At w = 0 only the odd terms are nonzero in h, and the series has
        # only odd terms, so a residual scaled by sum |d_n h_n(w)| would be
        # 0 / 0 there; the Cauchy-Schwarz scale ||d|| ||h(w)|| keeps h_0 = 1.
        d = [0, 0.6, 0, 0.8j]
        roots = roots_hermite(d)
        assert min(abs(z) for z in roots) < 1e-15
        assert matching_distance(roots, np.roots(HE.herme2poly(d / sqrt_factorials(3))[::-1])) < 1e-12

    def test_constant_and_zero(self):
        assert roots_hermite([3.0]) == []
        with pytest.raises(InvalidParameter):
            roots_hermite([0.0])

    @pytest.mark.parametrize(
        "coeffs", [[1, float("nan"), 1], [1, float("inf"), 1], [1e300, 1e-300, 1e-300]]
    )
    def test_non_finite_raises_typed(self, coeffs):
        with np.errstate(all="ignore"), pytest.raises(NoConvergence):
            roots_hermite(coeffs)

    def test_residual_bound_enforced(self):
        rng = np.random.default_rng(0)
        for deg in (1, 2, 3, 5, 8, 12):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots = roots_hermite(coeffs)
            assert len(roots) == deg
            assert residuals_ok(coeffs, roots)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 20), st.integers(0, 10_000))
    def test_random_polynomials(self, deg, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] = 1.0
        roots = roots_hermite(coeffs)
        assert len(roots) == deg
        assert residuals_ok(coeffs, roots)

    def test_residual_check_raises_with_roots(self, monkeypatch):
        exact = np.array([0.5, -0.3j, 0.2 + 0.1j, -0.7])
        perturbed = exact + np.array([0, 1e-3, 0, 0])
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: perturbed.copy())
        with pytest.raises(NoConvergence) as excinfo:
            roots_hermite(from_roots(exact))
        assert len(excinfo.value.roots) == len(excinfo.value.residuals) == 4


class TestCluster:
    @settings(max_examples=200, deadline=None)
    @given(planted_clusters())
    def test_component_means_match_the_chaining_reference(self, points):
        z = np.array(points, dtype=complex)
        got = _cluster(z, CLUSTER_TOL)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert matching_distance(got, cluster_bfs(points, CLUSTER_TOL)) <= 1e-14
        near = np.abs(z[:, None] - z) <= CLUSTER_TOL
        _, label = connected_components(near, directed=False)
        for k in range(label.max(initial=-1) + 1):
            assert np.allclose(got[label == k], z[label == k].mean(), rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(coords, coords), max_size=12))
    def test_isolated_points_keep_values_and_order(self, pairs):
        z = np.array([complex(*p) for p in pairs], dtype=complex)
        gaps = np.abs(z[:, None] - z) + np.diag(np.full(z.size, np.inf))
        assume(gaps.min(initial=np.inf) > CLUSTER_TOL)
        got = _cluster(z, CLUSTER_TOL)
        assert np.array_equal(got, z)
        assert got.tolist() == cluster_bfs(z.tolist(), CLUSTER_TOL)


class TestCharPoly:
    def test_eigenvalues_against_lapack(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ours = eigenvalues_small(m)
        want = np.linalg.eigvals(m)
        assert matching_distance(ours, want) < 1e-9

    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        # Row 2 is defective: a 2x2 Jordan block at 0.5 + 0.2i, which LAPACK
        # splits by about 1e-8 and the cluster merge restores.
        jordan = np.diag([0.5 + 0.2j, 0.5 + 0.2j, -1.0, 2.0j])
        jordan[0, 1] = 1.0
        s = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        stack[2] = s @ jordan @ np.linalg.inv(s)
        ev = eigenvalues_small(stack)
        assert ev.shape == (4, 4)
        for row, m in zip(ev, stack):
            assert np.array_equal(row, eigenvalues_small(m))
        pair = ev[2][np.abs(ev[2] - (0.5 + 0.2j)) < 1e-6]
        assert pair.size == 2 and pair[0] == pair[1]
        assert abs(pair[0] - (0.5 + 0.2j)) < 1e-12
        assert eigenvalues_small(np.zeros((3, 0, 0))).shape == (3, 0)

    def test_small_sizes(self):
        assert np.array_equal(eigenvalues_small(np.zeros((0, 0))), np.zeros(0, dtype=complex))
        assert np.array_equal(eigenvalues_small(np.array([[2.5 + 1j]])), [2.5 + 1j])
