"""Transformations of generic three-qutrit pure states under separable
and local operations: canonical forms, feasibility decisions, structural
classification, and explicit protocol synthesis."""

from .classify import (
    CaseMatch,
    Classification,
    SupportPattern,
    classify,
    classify_gram,
    support_pattern,
)
from .generate import KINDS, random_seed_params, random_state, random_unitary
from .oracle import (
    OracleBudget,
    OracleVerdict,
    SymmetrySearchReport,
    brute_force_sep,
    numeric_symmetry_search,
)
from .pauli import (
    COORD_ORDER,
    INDEX_ORDER,
    OMEGA,
    PAIR_REPS,
    PAULIS,
    ZERO_TOL,
    from_coords,
    idx_add,
    idx_neg,
    kron3,
    pair_rep,
    pauli_coords,
    pauli_matrix,
)
from .protocols import (
    BranchReport,
    KrausElement,
    KrausSet,
    LoccProtocol,
    LoccRound,
    ProtocolError,
    locc_convert_step,
    locc_reach_protocol,
    sep_map_confined,
    sep_map_disjoint,
    sep_map_from_witness,
    simulate_branches,
    validate_povm,
)
from .seeds import (
    AuditReport,
    GenericityReport,
    SeedParams,
    SymmetryCheckError,
    build_seed,
    check_generic,
    probe_states,
    symmetry_audit,
    verify_symmetries,
)
from .sep import (
    SepFeasibility,
    SepInstance,
    candidate_initial_grams,
    depolarize,
    gram_instance,
    induced_initial,
    sep_feasible,
    sep_instance,
)
from .statefile import (
    SchemaError,
    load_protocol,
    load_state,
    protocol_from_json,
    protocol_to_json,
    save_protocol,
    save_state,
    state_from_json,
    state_to_json,
)
from .states import (
    GenericState,
    GramTriple,
    SeedMismatchError,
    StandardForm,
    assemble,
    gram,
    gram_triple,
    lu_equivalent,
    permute_state,
    positive_factor,
    ray_distance,
    seed_gram,
    span_factor,
    standard_form,
)

__version__ = "0.1.0"
