"""Shared fixture generators for the test suite.

All generators are deterministic in their seed arguments so that every test
run exercises byte-identical fixtures.
"""

import cmath
import math

import numpy as np

from stellar_zeros import (
    StellarState,
    ZeroCollision,
    build_wavefunction,
    closed_form_matrix,
    dynamics,
    eigenvalues_small,
    random_stellar_state,
    stellar_state_from_zeros,
    zero_pair,
)
from stellar_zeros.rootfind import _min_gap
from stellar_zeros.wavefunction import _hermite_functions


def standard_grid(step=0.5, extent=3.0):
    """The complex comparison grid |Re z|, |Im z| <= extent."""
    line = np.arange(-extent, extent + step / 2, step)
    xs, ys = np.meshgrid(line, line)
    return (xs + 1j * ys).ravel()


def eval_entire_envelope(v, z):
    """Hermite-series value of ``v`` at ``z`` and its termwise magnitude envelope
    ``sum_n |psi_n| |phi_n(z)|``, both in the shape of ``z``.

    The envelope is the conditioning scale of the evaluation: no double-precision
    summation resolves the value below roughly ``eps`` times it.  Comparisons
    against the closed form use it as the accuracy floor at points where the two
    exponent scales cancel deeply.
    """
    zz = np.asarray(z, dtype=complex)
    phi = _hermite_functions(v.coeffs.size, zz)
    vals, envelope = phi @ v.coeffs, np.abs(phi) @ np.abs(v.coeffs)
    return vals.reshape(zz.shape), envelope.reshape(zz.shape)


def fock_state(n, cutoff=None):
    """Number state |n> as a StellarState."""
    core = np.zeros(n + 1, dtype=complex)
    core[n] = 1.0
    return StellarState(rank=n, core=core, alpha=0.0, chi=0.0)


def ring_state(rank, seed, radius=1.0, chi=0.15, alpha=0.10):
    """Rank-r state with zeros on a jittered circle (compact, well separated)."""
    rng = np.random.default_rng(seed)
    th = 2 * np.pi * np.arange(rank) / rank + np.pi / (2 * rank) + rng.uniform(-0.15, 0.15, rank)
    rr = radius * (1 + rng.uniform(-0.10, 0.10, rank))
    return stellar_state_from_zeros(rr * np.exp(1j * th), alpha=alpha, chi=chi)


def separated_state(rank, seed):
    """Fixture satisfying the real-zero guarantee hypothesis.

    Zeros sit on a circle wide enough that the minimum pairwise gap exceeds
    sqrt((rank-1)/|Re g2|) with the vacuum packet (g2 = -1/2, g1 = 0), and
    every zero keeps a safe distance from the real axis at t = 0.
    """
    threshold = math.sqrt(2.0 * (rank - 1))
    rng = np.random.default_rng(seed)
    radius = 1.35 * threshold / (2.0 * math.sin(math.pi / rank))
    for _ in range(40):
        th = (
            2 * np.pi * np.arange(rank) / rank
            + np.pi / (2 * rank)
            + rng.uniform(-0.08, 0.08, rank)
        )
        rr = radius * (1 + rng.uniform(-0.06, 0.06, rank))
        zeros = rr * np.exp(1j * th)
        gaps = [
            abs(zeros[i] - zeros[j]) for i in range(rank) for j in range(i + 1, rank)
        ]
        if min(gaps) >= 1.02 * threshold and np.min(np.abs(zeros.imag)) >= 0.15:
            return stellar_state_from_zeros(zeros)
        radius *= 1.06
    raise AssertionError("separated fixture construction failed")


def imbalanced_state(rank, seed):
    """Simple zeros with unequal counts above/below the real axis."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        zeros = rng.uniform(-1.3, 1.3, rank) + 1j * rng.uniform(0.25, 1.3, rank)
        flip = rng.random(rank) < 0.25  # mostly above the axis
        zeros = np.where(flip, zeros.conj(), zeros)
        n_plus = int(np.sum(zeros.imag > 0))
        n_minus = rank - n_plus
        gaps = [abs(a - b) for i, a in enumerate(zeros) for b in zeros[i + 1 :]]
        if n_plus != n_minus and (not gaps or min(gaps) >= 0.25):
            return stellar_state_from_zeros(zeros)
    raise AssertionError("imbalanced fixture construction failed")


def distinct_random_state(rank, seed, scale=1.0, min_gap=0.1, max_extent=None):
    """Random stellar state whose wavefunction zeros are pairwise separated."""
    for attempt in range(60):
        st = random_stellar_state(rank, seed + 100_000 * attempt, scale=scale)
        wf = build_wavefunction(st)
        gaps = [
            abs(a - b) for i, a in enumerate(wf.zeros) for b in wf.zeros[i + 1 :]
        ]
        if gaps and min(gaps) < min_gap:
            continue
        if max_extent is not None and wf.zeros:
            extent = max(max(abs(z.real), abs(z.imag)) for z in wf.zeros)
            if extent > max_extent:
                continue
        return st, wf
    raise AssertionError("random fixture construction failed")


def wrong_sign_closed_form(wf, H, t):
    """Zeros of the matrix solution with the rotation read the wrong way.

    Adding ``2i sin(omega t) X0`` to ``closed_form_matrix`` turns the
    rotation ``X0 e^{-i omega t}`` into ``X0 e^{+i omega t}``; the ODE
    checks must reject the zeros this gives.
    """
    pair = zero_pair(wf)
    flip = 2j * cmath.sin(cmath.sqrt(H.omega2) * t) * pair.terms[0]
    return eigenvalues_small(closed_form_matrix(pair, H, t) + flip)


def ode_rhs(g2, g1, zeros, H):
    """Right-hand sides ``(dg2, dg1, dzeros)`` of the first-order zero system."""
    zeros = [complex(z) for z in zeros]
    if _min_gap(zeros) <= dynamics.COLLISION_GAP:
        raise ZeroCollision("pairwise zero gap at or below 1e-9")
    f, _ = dynamics._rhs(H, len(zeros))
    da, db, *dz = f(0.0, np.array([g2, g1, *zeros], dtype=complex))
    return da, db, dz


def annihilation_matrix(dim):
    """Dense annihilation operator truncated to ``dim`` Fock levels."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a
