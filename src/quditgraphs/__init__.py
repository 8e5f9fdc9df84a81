"""Exact qudit graph, hypergraph, multigraph, and multihypergraph states.

States live as integer phase tables f: Z_d^n -> Z_d; diagonal edge gates add
monomials, stabilizer generators are verified exactly, and the correspondence
between phase tables and edge weights is decided by exact linear algebra over
Z_d: one Kronecker solve for every d and both modes on the small
digit-power matrix W[i][s] = i^s mod d, never the d^n-sized system. W's
Smith form is diag(s!) with Pascal and Stirling matrices as its unimodular
factors, so the solve factors nothing. Reachability and solution counts
are one divisor rule on the Newton coefficients (``counting``), so the
census needs no solve at all.

Exports load on first use (PEP 562), so ``import quditgraphs`` and the
census import no numpy; the state names and the ``correspondence`` names
load it (``solve_weights`` too, as it takes a ``PhaseFunction``), while the
solution types and solve errors (``newton``) do not.
"""

import importlib

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "HYPERGRAPH": "counting",
    "MULTIHYPERGRAPH": "counting",
    "CensusReport": "counting",
    "ConjugationReport": "stabilizers",
    "CorrespondenceSystem": "correspondence",
    "DenseState": "states",
    "DimensionMismatch": "states",
    "GraphKind": "graphs",
    "MultiHyperedge": "graphs",
    "NonCanonical": "newton",
    "NonPrimeModulus": "residues",
    "PhaseFunction": "states",
    "RoundTripFailure": "newton",
    "SchemaError": "graphs",
    "SizeLimit": "residues",
    "SolutionSet": "newton",
    "SolveOutcome": "newton",
    "VertexOutOfRange": "states",
    "WeightedEdgeMap": "graphs",
    "apply_generator": "stabilizers",
    "apply_multi_cz": "states",
    "apply_shift": "stabilizers",
    "apply_uv": "states",
    "build_state": "states",
    "build_system": "correspondence",
    "canonicalize": "states",
    "census": "counting",
    "coefficient_block": "correspondence",
    "conjugation_report": "stabilizers",
    "enumerate_hyperedges": "graphs",
    "enumerate_multihyperedges": "graphs",
    "hyperedge": "graphs",
    "plus_state": "states",
    "representability_constraints": "correspondence",
    "solve_weights": "correspondence",
    "states_equal": "states",
    "to_dense": "states",
    "validate_kind": "graphs",
    "verify": "stabilizers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
