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

Exports load on first use (PEP 562), so ``import quditgraphs`` imports no
numpy, and no verb of the CLI loads it. The array types need it, from the
``arrays`` extra: the ``states`` and ``correspondence`` names and
``stabilizers.apply_generator`` load it (``solve_weights`` too, as it takes
a ``PhaseFunction``), while the census and the size errors (``counting``),
the solution types and solve errors (``newton``), ``verify`` and the
conjugation report (``diagonals``) and the edge types (``graphs``) do not.
"""

import importlib

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "HYPERGRAPH": "counting",
    "MULTIHYPERGRAPH": "counting",
    "CensusReport": "counting",
    "ConjugationReport": "diagonals",
    "CorrespondenceSystem": "correspondence",
    "DenseState": "states",
    "DimensionMismatch": "states",
    "GraphKind": "graphs",
    "MultiHyperedge": "graphs",
    "NonCanonical": "newton",
    "NonPrimeModulus": "counting",
    "PhaseFunction": "states",
    "SchemaError": "graphs",
    "SizeLimit": "counting",
    "SolutionSet": "newton",
    "SolveOutcome": "newton",
    "VertexOutOfRange": "diagonals",
    "WeightedEdgeMap": "graphs",
    "apply_generator": "stabilizers",
    "build_state": "states",
    "build_system": "correspondence",
    "census": "counting",
    "coefficient_block": "correspondence",
    "conjugation_report": "diagonals",
    "enumerate_hyperedges": "graphs",
    "enumerate_multihyperedges": "graphs",
    "hyperedge": "graphs",
    "representability_constraints": "correspondence",
    "solve_weights": "correspondence",
    "states_equal": "states",
    "to_dense": "states",
    "validate_kind": "graphs",
    "verify": "diagonals",
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
