"""Hybrid CHSH-KCBS toolkit for a qubit-qutrit pair.

Closed-form evaluation of both inequalities, an exact qutrit circuit
simulator with an ancilla Fourier-test measurement protocol, and
experiment drivers for violation landscapes, coexistence points, and
large-n scaling.
"""

from .analytic import (
    ChshCoefficients,
    KcbsReport,
    ResourceDecomposition,
    asymptotic_margins,
    chsh_coefficients,
    chsh_value,
    decompose,
    kcbs_value,
    p2_threshold,
    psi_n_state,
    state1,
    state1_margins,
    theta_opt_asymptotic,
)
from .circuits import (
    CircuitSpec,
    FourierTestReport,
    GateOp,
    controlled_power,
    embed_alice,
    embed_joint_state,
    estimator_stddev,
    estimators,
    f3,
    fourier_tests,
    phase_gate,
    prepare_state1,
    rotation,
    run_circuit,
    run_hybrid_tests,
    sample_shot_stack,
    x02,
)
from .errors import (
    ChshKcbsError,
    DimensionMismatch,
    EmptyGrid,
    ImaginaryResidue,
    IndexOutOfRange,
    InvalidCycle,
    NoIntersection,
    NotHermitian,
    NotNormalized,
    NotUnitary,
)
from .experiments import (
    LandscapeTable,
    coexistence_points,
    landscape_scan,
    run_validation,
    scaling_study,
)
from .linalg import JointState, Observable, expectation, hermiticity_check, tensor, unitarity_check
from .observables import (
    CycleGeometry,
    alice_rotation,
    b0_closed_form,
    bm_bm1_closed_form,
    cycle_geometry,
    kcbs_observables,
    kcbs_pair,
    kcbs_vectors,
    s_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
