"""Phase tables vs edge weights: build, solve, and count the linear systems.

A canonical phase table f (f(0,...,0) = 0) is reachable from an edge map iff
the system

    sum_e m_e * prod_{v in e} i_v^{s_v}  =  f(i)   (mod d),  one equation per
    nonzero index tuple i,

has a solution in the edge weights m_e. In hypergraph mode the variables are
the 2^n - 1 plain hyperedges; in multihypergraph mode all d^n - 1 decorated
edges. Equations are ordered by ascending flat index of the tuple (mixed
radix, i_0 most significant); variables follow the enumeration order of the
graphs module.

Writing each edge as its exponent vector s (s_v = 0 off the support) and
adding a constant variable m_0 for s = 0, the system over all d^n tuples is
W^{⊗n} x = f with the digit-power matrix W[i][s] = i^s mod d (0^0 = 1),
s in 0..d-1 (multihypergraph) or {0, 1} (hypergraph). Row i = 0 pins
m_0 = f(0) = 0, so the solutions are exactly those of the canonical system.
``solve_weights`` solves it for every d and both modes with one Kronecker
Smith-form solve (``residues.KroneckerSolver``): only the small W is
factored, and solution counts are exact. The dense canonical matrix is kept
for the fingerprint, the left nullspace and the census, which factors it
once and then solves every table. ``census`` classifies every canonical
table at fixed (d, n).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .graphs import (
    MultiHyperedge,
    WeightedEdgeMap,
    enumerate_hyperedges,
    enumerate_multihyperedges,
)
from .residues import (
    KroneckerSolver,
    Modulus,
    NonPrimeModulus,
    PrimeSolver,
    RingMatrix,
    SmithSolver,
    SolutionSet,
    power_at_least,
)
from .states import PhaseFunction, SizeLimit, build_state, digits_of

HYPERGRAPH = "hypergraph"
MULTIHYPERGRAPH = "multihypergraph"
MODES = (HYPERGRAPH, MULTIHYPERGRAPH)

DEFAULT_CENSUS_BUDGET = 10**7
DEFAULT_BLOCK_LIMIT = 2**24


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


class RoundTripFailure(RuntimeError):
    """A solved edge map failed to rebuild its own phase table (solver bug)."""


class BudgetExceeded(RuntimeError):
    """The census would need more solver calls than the configured budget."""


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _digit_powers(d: int, mode: str) -> np.ndarray:
    """W[i][s] = i^s mod d with 0^0 = 1, for i in 0..d-1 and s in 0..d-1
    (multihypergraph) or s in {0, 1} (hypergraph)."""
    exponents = 2 if mode == HYPERGRAPH else d
    return np.array([[pow(i, s, d) for s in range(exponents)] for i in range(d)], dtype=np.int64)


def _exponent_columns(variables: tuple[MultiHyperedge, ...], k: int, n: int) -> list[int]:
    """Column of each edge in W^{⊗n}: the flat index, base k and vertex 0
    most significant, of its exponent vector (0 off the support)."""
    return [
        sum(s * k ** (n - 1 - v) for v, s in zip(e.vertices, e.exponents)) for e in variables
    ]


@lru_cache(maxsize=None)
def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], RingMatrix]:
    variables = tuple(
        enumerate_hyperedges(n) if mode == HYPERGRAPH else enumerate_multihyperedges(n, d)
    )
    tuples = tuple(digits_of(i, d, n) for i in range(1, d**n))
    base = _digit_powers(d, mode)
    full = reduce(lambda a, b: np.kron(a, b) % d, [base] * n)
    block = full[1:, _exponent_columns(variables, base.shape[1], n)]
    matrix = RingMatrix(*block.shape, tuple(block.ravel().tolist()), Modulus(d))
    return variables, tuples, matrix


@dataclass(frozen=True)
class CorrespondenceSystem:
    """The coefficient matrix and right-hand side for one phase table."""

    d: int
    n: int
    mode: str
    variables: tuple[MultiHyperedge, ...]
    tuples: tuple[tuple[int, ...], ...]
    matrix: RingMatrix
    rhs: tuple[int, ...]

    def fingerprint(self) -> str:
        """Hash of the matrix and its orderings (rhs-independent)."""
        payload = {
            "d": self.d,
            "n": self.n,
            "mode": self.mode,
            "variables": [
                [list(e.vertices), list(e.exponents)] for e in self.variables
            ],
            "tuples": [list(t) for t in self.tuples],
            "entries": list(self.matrix.entries),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_system(table: PhaseFunction, mode: str) -> CorrespondenceSystem:
    """One equation per nonzero index tuple, all variables on the left."""
    _check_mode(mode)
    if not table.is_canonical:
        raise NonCanonical("phase table must have f(0, ..., 0) = 0")
    variables, tuples, matrix = _system_parts(table.d, table.n, mode)
    rhs = tuple(int(x) for x in table.table[1:])
    return CorrespondenceSystem(table.d, table.n, mode, variables, tuples, matrix, rhs)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of solving one correspondence system.

    ``edge_map`` is rebuilt from the particular solution when consistent and
    is always round-trip checked against the input table.
    """

    mode: str
    system: CorrespondenceSystem
    solution: SolutionSet
    edge_map: WeightedEdgeMap | None

    def edge_maps(self, cap: int | None = None) -> list[WeightedEdgeMap]:
        """Every solution as an edge map, in lexicographic weight-vector order."""
        return [
            _vector_to_map(self.system, vec) for vec in self.solution.solutions(cap=cap)
        ]


def _vector_to_map(system: CorrespondenceSystem, vector: tuple[int, ...]) -> WeightedEdgeMap:
    weights = {e: w for e, w in zip(system.variables, vector) if w % system.d}
    return WeightedEdgeMap(system.d, system.n, weights)


def _checked_outcome(
    table: PhaseFunction, system: CorrespondenceSystem, solution: SolutionSet
) -> SolveOutcome:
    edge_map = None
    if solution.consistent:
        assert solution.particular is not None
        edge_map = _vector_to_map(system, solution.particular)
        if build_state(edge_map) != table:
            raise RoundTripFailure(
                f"solved weights do not rebuild the table (fingerprint {system.fingerprint()})"
            )
    return SolveOutcome(system.mode, system, solution, edge_map)


def _on_columns(solution: SolutionSet, columns: list[int]) -> SolutionSet:
    """The solution set restricted to the unknowns ``columns``, in that order.

    Only valid when every unknown left out is 0 in every solution.
    """
    if not solution.consistent:
        return solution
    assert solution.particular is not None

    def pick(vector: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(vector[j] for j in columns)

    return SolutionSet(
        solution.modulus,
        True,
        pick(solution.particular),
        solution.count,
        tuple((pick(direction), order) for direction, order in solution.generators),
    )


def solve_weights(table: PhaseFunction, mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions."""
    system = build_system(table, mode)
    base = _digit_powers(table.d, mode)
    solver = KroneckerSolver(RingMatrix.from_rows(base.tolist(), table.d), table.n)
    # The constant m_0 is pinned to f(0) = 0; the rest are the edge weights.
    columns = _exponent_columns(system.variables, base.shape[1], table.n)
    solution = _on_columns(solver.solve(table.table), columns)
    return _checked_outcome(table, system, solution)


def coefficient_block(d: int, size: int, limit: int | None = None) -> RingMatrix:
    """size-fold Kronecker power of the (d-1)x(d-1) digit-power matrix
    V[i][s] = i^s mod d (i, s in 1..d-1)."""
    if d < 2 or size < 1:
        raise ValueError("need d >= 2 and size >= 1")
    cap = DEFAULT_BLOCK_LIMIT if limit is None else limit
    if (d - 1) ** size >= cap:
        raise SizeLimit(f"block of {(d - 1) ** size} rows meets or exceeds the limit {cap}")
    base = RingMatrix.from_rows(
        [[pow(i, s, d) for s in range(1, d)] for i in range(1, d)], d
    )
    block = base
    for _ in range(size - 1):
        block = block.kron(base)
    return block


def representability_constraints(d: int, n: int, mode: str) -> list[tuple[int, ...]]:
    """Left-nullspace basis of the coefficient matrix (prime d only).

    A canonical table is reachable iff every basis vector y has
    y . rhs = 0 (mod d), rhs taken in equation order.
    """
    _check_mode(mode)
    _, _, matrix = _system_parts(d, n, mode)
    if not matrix.modulus.is_prime:
        raise NonPrimeModulus(f"modulus {d} is not prime")
    return PrimeSolver(matrix).left_nullspace()


@dataclass(frozen=True)
class CensusReport:
    """Exhaustive classification of all canonical tables at fixed (d, n)."""

    d: int
    n: int
    mode: str
    total_states: int
    reachable: int
    histogram: tuple[tuple[int, int], ...]  # (solution_count, #tables), sorted
    solution_sum: int
    weight_assignments: int
    matrix_fingerprint: str

    def histogram_dict(self) -> dict[int, int]:
        return dict(self.histogram)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "mode": self.mode,
            "total_states": self.total_states,
            "reachable": self.reachable,
            "histogram": {str(k): v for k, v in self.histogram},
            "solution_sum": self.solution_sum,
            "weight_assignments": self.weight_assignments,
            "matrix_fingerprint": self.matrix_fingerprint,
        }


def census(
    d: int, n: int, mode: str, budget: int | None = None
) -> CensusReport:
    """Solve every canonical phase table at (d, n) and tally multiplicities.

    The coefficient matrix is factored once; each of the d^(d^n - 1) tables
    costs one transformed-rhs solve. Refuses cleanly when the table count
    exceeds the budget.
    """
    _check_mode(mode)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    cap = DEFAULT_CENSUS_BUDGET if budget is None else budget
    # d^(d^n - 1) > cap, decided without building either power: once
    # d^n - 1 exceeds cap's bit length, the table count exceeds cap.
    if power_at_least(d, n, cap.bit_length() + 2) or power_at_least(d, d**n - 1, cap + 1):
        raise BudgetExceeded(f"census needs {d}^({d}^{n} - 1) solver calls, budget is {cap}")
    total = d ** (d**n - 1)
    variables, tuples, matrix = _system_parts(d, n, mode)
    solver = PrimeSolver(matrix) if matrix.modulus.is_prime else SmithSolver(matrix)
    histogram: Counter[int] = Counter()
    reachable = 0
    solution_sum = 0
    for rhs in product(range(d), repeat=d**n - 1):
        result = solver.solve(rhs)
        histogram[result.count] += 1
        if result.consistent:
            reachable += 1
            solution_sum += result.count
    fingerprint = CorrespondenceSystem(
        d, n, mode, variables, tuples, matrix, (0,) * matrix.rows
    ).fingerprint()
    return CensusReport(
        d=d,
        n=n,
        mode=mode,
        total_states=total,
        reachable=reachable,
        histogram=tuple(sorted(histogram.items())),
        solution_sum=solution_sum,
        weight_assignments=d ** len(variables),
        matrix_fingerprint=fingerprint,
    )
