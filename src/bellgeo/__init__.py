"""Correlation geometry toolkit for the two-party, two-setting Bell scenario."""

from .behavior import (
    CBehavior,
    DBehavior,
    InvalidBehaviorError,
    chsh_values,
    chsh_values_batch,
    is_local,
    is_valid,
    mix,
)
from .criteria import (
    ExtremalVerdict,
    SignPattern,
    SQuantities,
    crypt_gaps,
    crypt_gaps_batch,
    crypt_membership,
    d_quantities,
    extremal_criterion,
    gaps_member,
    s_quantities,
    scaled_correlators,
    tlm_gap,
    two_qubit_condition,
)
from .geometry import (
    GeometryParams,
    ReconstructionError,
    projection_angles,
    reconstruct,
    symmetry_equivalent,
)
from .qbell import (
    DegenerateGeometryError,
    QBellCoefficients,
    QuantumBellInequality,
    UniquenessReport,
    chain_slacks,
    construct_pair,
    evaluate,
    uniqueness_check,
)
from .realization import (
    GeneralRealization,
    TwoQubitRealization,
    embed,
    guessing_bias,
    guessing_bias_oracle,
    haar_unitary,
    promote,
    random_general,
    random_two_qubit,
    random_two_qubit_params,
    simulate_cbehavior,
    simulate_dbehavior,
    two_qubit_behaviors,
    two_qubit_biases,
    xz_observable,
)
from .selftest import (
    DerivedOperators,
    ExtendedRealization,
    anticommutator_residual,
    derive_operators,
    protocol_chain,
    protocol_lemma6_pair,
    protocol_zb,
    swap_isometry,
)

__version__ = "0.1.0"
