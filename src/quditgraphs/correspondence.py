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
factored, and solution counts are exact. ``census`` classifies every
canonical table at fixed (d, n) with the same solver, testing consistency a
block of tables at a time. The dense canonical matrix is kept for the
fingerprint and the left nullspace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Iterator

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
    SolutionSet,
    power_at_least,
)
from .states import PhaseFunction, SizeLimit, build_state, digits_of

HYPERGRAPH = "hypergraph"
MULTIHYPERGRAPH = "multihypergraph"
MODES = (HYPERGRAPH, MULTIHYPERGRAPH)

DEFAULT_CENSUS_BUDGET = 10**7
DEFAULT_BLOCK_LIMIT = 2**24
# Table entries the census hands the solver at once.
CENSUS_BLOCK_ENTRIES = 2**12


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


class RoundTripFailure(RuntimeError):
    """A solved edge map failed to rebuild its own phase table (solver bug)."""


class BudgetExceeded(RuntimeError):
    """The census would cover more tables than the configured budget."""


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _digit_powers(d: int, mode: str) -> np.ndarray:
    """W[i][s] = i^s mod d with 0^0 = 1, for i in 0..d-1 and s in 0..d-1
    (multihypergraph) or s in {0, 1} (hypergraph)."""
    exponents = 2 if mode == HYPERGRAPH else d
    return np.array([[pow(i, s, d) for s in range(exponents)] for i in range(d)], dtype=np.int64)


def _kronecker_solver(d: int, n: int, mode: str) -> KroneckerSolver:
    """The solver of W^{⊗n} x = f for the mode's digit-power matrix W."""
    return KroneckerSolver(RingMatrix.from_rows(_digit_powers(d, mode).tolist(), d), n)


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
    solver = _kronecker_solver(table.d, table.n, mode)
    # The constant m_0 is pinned to f(0) = 0; the rest are the edge weights.
    columns = _exponent_columns(system.variables, solver.cols, table.n)
    solution = _on_columns(solver.solve(table.table), columns)
    return _checked_outcome(table, system, solution)


def coefficient_block(d: int, size: int, limit: int | None = None) -> RingMatrix:
    """size-fold Kronecker power of the (d-1)x(d-1) digit-power matrix
    V[i][s] = i^s mod d (i, s in 1..d-1)."""
    if d < 2 or size < 1:
        raise ValueError("need d >= 2 and size >= 1")
    cap = DEFAULT_BLOCK_LIMIT if limit is None else limit
    # (d-1)^(2·size) entries, decided without building the power. At d = 2
    # the block is [[1]] for every size.
    too_large = cap <= 1 if d == 2 else power_at_least(d - 1, 2 * size, cap)
    if too_large:
        raise SizeLimit(f"block of {d - 1}^{2 * size} entries meets or exceeds the limit {cap}")
    base = RingMatrix.from_rows(
        [[pow(i, s, d) for s in range(1, d)] for i in range(1, d)], d
    )
    if d == 2:
        return base
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


def _canonical_tables(d: int, n: int) -> Iterator[np.ndarray]:
    """Every canonical table at (d, n), one row each, in blocks of at most
    CENSUS_BLOCK_ENTRIES entries (or one table, if it is larger).

    A numpy grid runs over the trailing entries and ``product`` over the
    leading ones, so no table index is ever formed and none has to fit int64.
    Each block is the same array, refilled: use it before taking the next.
    """
    size = d**n
    trailing = 0
    while trailing < size - 1 and d ** (trailing + 1) * size <= CENSUS_BLOCK_ENTRIES:
        trailing += 1
    leading = size - 1 - trailing
    block = np.zeros((d**trailing, size), dtype=np.int64)
    grid = np.indices((d,) * trailing).reshape(trailing, d**trailing).T
    block[:, size - trailing :] = grid
    for digits in product(range(d), repeat=leading):
        block[:, 1 : 1 + leading] = digits
        yield block


def census(
    d: int, n: int, mode: str, budget: int | None = None
) -> CensusReport:
    """Solve every canonical phase table at (d, n) and tally multiplicities.

    W is factored once and every table is tested for consistency, a block at
    a time. Every consistent right-hand side of one linear system has exactly
    as many solutions as its kernel, K, so the histogram is
    {0: total - R, K: R} over the R reachable tables. Refuses cleanly when
    the table count exceeds the budget.
    """
    _check_mode(mode)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    cap = DEFAULT_CENSUS_BUDGET if budget is None else budget
    # d^(d^n - 1) > cap, decided without building either power: once
    # d^n - 1 exceeds cap's bit length, the table count exceeds cap.
    if power_at_least(d, n, cap.bit_length() + 2) or power_at_least(d, d**n - 1, cap + 1):
        raise BudgetExceeded(f"census covers {d}^({d}^{n} - 1) tables, budget is {cap}")
    total = d ** (d**n - 1)
    variables, tuples, matrix = _system_parts(d, n, mode)
    solver = _kronecker_solver(d, n, mode)
    reachable = sum(
        int(np.count_nonzero(solver.consistent(block))) for block in _canonical_tables(d, n)
    )
    histogram = {0: total - reachable, solver.count: reachable}
    fingerprint = CorrespondenceSystem(
        d, n, mode, variables, tuples, matrix, (0,) * matrix.rows
    ).fingerprint()
    return CensusReport(
        d=d,
        n=n,
        mode=mode,
        total_states=total,
        reachable=reachable,
        histogram=tuple(sorted((k, v) for k, v in histogram.items() if v)),
        solution_sum=reachable * solver.count,
        weight_assignments=d ** len(variables),
        matrix_fingerprint=fingerprint,
    )
