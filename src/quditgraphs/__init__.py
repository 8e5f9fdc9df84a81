"""Exact qudit graph, hypergraph, multigraph, and multihypergraph states.

States live as integer phase tables f: Z_d^n -> Z_d; diagonal edge gates add
monomials, stabilizer generators are verified exactly, and the correspondence
between phase tables and edge weights is decided by exact linear algebra over
Z_d: one Kronecker Smith-form solve for every d and both modes, which
factors only the small digit-power matrix W[i][s] = i^s mod d, never the
d^n-sized system.
"""

from .correspondence import (
    HYPERGRAPH,
    MULTIHYPERGRAPH,
    BudgetExceeded,
    CensusReport,
    CorrespondenceSystem,
    NonCanonical,
    RoundTripFailure,
    SolveOutcome,
    build_system,
    census,
    coefficient_block,
    representability_constraints,
    solve_weights,
)
from .graphs import (
    GraphKind,
    MultiHyperedge,
    SchemaError,
    WeightedEdgeMap,
    enumerate_hyperedges,
    enumerate_multihyperedges,
    hyperedge,
    validate_kind,
)
from .residues import (
    Modulus,
    NonPrimeModulus,
    RingMatrix,
    SolutionSet,
    smith_normal_form,
)
from .stabilizers import (
    ConjugationReport,
    GeneratorSpec,
    apply_generator,
    apply_shift,
    conjugation_identity,
    conjugation_report,
    generator,
    verify,
)
from .states import (
    DenseState,
    DimensionMismatch,
    PhaseFunction,
    SizeLimit,
    VertexOutOfRange,
    apply_multi_cz,
    apply_uv,
    build_state,
    canonicalize,
    plus_state,
    states_equal,
    to_dense,
)

__all__ = [
    "HYPERGRAPH",
    "MULTIHYPERGRAPH",
    "BudgetExceeded",
    "CensusReport",
    "ConjugationReport",
    "CorrespondenceSystem",
    "DenseState",
    "DimensionMismatch",
    "GraphKind",
    "GeneratorSpec",
    "Modulus",
    "MultiHyperedge",
    "NonCanonical",
    "NonPrimeModulus",
    "PhaseFunction",
    "RingMatrix",
    "RoundTripFailure",
    "SchemaError",
    "SizeLimit",
    "SolutionSet",
    "SolveOutcome",
    "VertexOutOfRange",
    "WeightedEdgeMap",
    "apply_generator",
    "apply_multi_cz",
    "apply_shift",
    "apply_uv",
    "build_state",
    "build_system",
    "canonicalize",
    "census",
    "coefficient_block",
    "conjugation_identity",
    "conjugation_report",
    "enumerate_hyperedges",
    "enumerate_multihyperedges",
    "generator",
    "hyperedge",
    "plus_state",
    "representability_constraints",
    "smith_normal_form",
    "solve_weights",
    "states_equal",
    "to_dense",
    "validate_kind",
    "verify",
]

__version__ = "0.1.0"
