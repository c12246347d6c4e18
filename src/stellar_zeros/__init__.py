"""Complex zeros of finite-rank bosonic wavefunctions.

A finite-rank single-mode state has an entire position wavefunction of the
form polynomial times Gaussian.  This package builds that closed form,
counts and certifies its zeros, propagates them under arbitrary quadratic
Hamiltonians (adaptive ODE integration and an exact matrix solution that
cross-validate), detects real-axis crossings under phase shifts, and checks
everything against an independent truncated Fock-basis propagation.
"""

from .errors import (
    CountMismatch,
    CutoffTooSmall,
    DegenerateInitialZeros,
    InvalidParameter,
    NoConvergence,
    PrecisionLoss,
    StellarZerosError,
    StepFailure,
    TrackingAmbiguity,
    TruncationLeakage,
    ZeroCollision,
    ZeroOnContour,
    ZeroVector,
)
from .states import (
    EnergyMomentReport,
    FockVector,
    StellarState,
    Verdict,
    annihilation_matrix,
    default_cutoff,
    energy_moment,
    normalize,
    packet_exponents,
    phase_shift,
    random_stellar_state,
    squeezed_vacuum_fock,
    state_from_json,
    state_to_json,
    stellar_to_fock,
)
from .rootfind import eigenvalues_small, roots_polynomial
from .wavefunction import (
    GrowthBound,
    HudsonResult,
    WavefunctionForm,
    apply_creation_polynomial,
    build_wavefunction,
    count_zeros_box,
    eval_entire,
    eval_entire_envelope,
    eval_form,
    form_from_json,
    form_norm_squared,
    form_to_json,
    gaussian_packet_params,
    growth_bound,
    growth_bound_holds,
    hermite_eval_cutoff,
    hudson_test,
    stellar_eval,
    stellar_state_from_zeros,
)
from .dynamics import (
    LaxData,
    QuadraticHamiltonian,
    ZeroTrajectory,
    closed_form,
    closed_form_matrix,
    evolve_form,
    integrate,
    lax_data,
    match_sets,
    matching_distance,
    ode_rhs,
    sample_closed_form,
    second_order_acceleration,
)
from .oracle import TruncatedOperator, evolve_fock, hamiltonian_matrix, zeros_from_fock
from .phase import (
    AuditResult,
    CrossingEvent,
    GershgorinReport,
    antipodal_check,
    crossing_guarantee_audit,
    detect_crossings,
    gershgorin_check,
    imbalance,
    phase_trajectory,
)

__version__ = "0.1.0"
