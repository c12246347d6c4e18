"""Open defects, each as the correct answer its cheapest repro should give.

Every test here is an expected failure, and ``xfail_strict`` (pyproject.toml)
turns an unexpected pass into a failure by name: the change that fixes a
defect removes its marker, and the test stays on as a regression test.  Each
marker pins the exception the defect raises today, so a different failure is
not mistaken for it.  The reasons name the ROADMAP items that describe them.
"""

import math

import numpy as np
import pytest

from stellar_zeros import (
    HudsonResult,
    NoConvergence,
    PrecisionLoss,
    QuadraticHamiltonian,
    TrackingAmbiguity,
    build_wavefunction,
    closed_form,
    hudson_test,
    matching_distance,
    random_stellar_state,
    sample_closed_form,
    stellar_to_fock,
)


@pytest.mark.xfail(raises=(AssertionError, TrackingAmbiguity),
                   reason="ROADMAP item 2: a contracting flow's zeros cancel about its fixed point")
def test_contracting_flow_keeps_its_zeros_apart():
    # With B = 0 the zeros move as lambda e^{Ct} + E (e^{Ct} - 1) / C.  At t = 38 they
    # lie 6.9e-9 apart, about the fixed point -E/C; today two of them come out tied,
    # 9.1e-8 off, and the grid's tracker stops on that false tie at t = 33.3.
    H = QuadraticHamiltonian(A=-0.7, B=0.0, C=-0.52, D=-0.2, E=-0.8)
    wf = build_wavefunction(random_stellar_state(3, 20))
    decay = math.exp(H.C * 38.0)
    exact = np.array(wf.zeros) * decay + H.E * (decay - 1.0) / H.C
    assert matching_distance(closed_form(wf, H, [38.0])[0], exact) <= 1e-12
    assert sample_closed_form(wf, H, np.linspace(0.0, 34.0, 100)).paths.shape == (3, 100)


@pytest.mark.xfail(raises=PrecisionLoss,
                   reason="ROADMAP item 3: the frame's monomial rank system loses its gap from "
                          "rank 18")
def test_hudson_counts_a_rank_eighteen_draw():
    assert hudson_test(random_stellar_state(18, 1)) == HudsonResult(gaussian=False,
                                                                    zero_count=18)


@pytest.mark.xfail(raises=PrecisionLoss,
                   reason="ROADMAP item 11: the kernel's column recurrence amplifies rounding "
                          "at rank 100")
def test_rank_hundred_draw_converts_with_its_norm():
    v = stellar_to_fock(random_stellar_state(100, 1))
    assert abs(v.norm() ** 2 - 1.0) <= 1e-12


@pytest.mark.xfail(raises=NoConvergence,
                   reason="ROADMAP item 15: the Hermite recurrence overflows at rank 600")
def test_rank_six_hundred_draw_is_built():
    assert build_wavefunction(random_stellar_state(600, 0)).rank == 600
