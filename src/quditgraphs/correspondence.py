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
factored, and solution counts are exact. ``census`` solves no table: the
reachable tables are the image of the linear map, d^{#vars} / K of them for
a kernel of size K, and each has exactly K solutions. W and the column of
each variable in W^{⊗n} fix the whole system, so ``system_fingerprint``
hashes those. Only ``build_system`` and ``representability_constraints``
(its left nullspace, prime d) assemble the dense canonical matrix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache, reduce

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
from .states import DEFAULT_TABLE_LIMIT, PhaseFunction, SizeLimit, build_state, digits_of

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


def _kron_power(base: np.ndarray, power: int, d: int) -> np.ndarray:
    """base ⊗ ... ⊗ base, ``power`` factors, reduced mod d."""
    return reduce(lambda a, b: np.kron(a, b) % d, [base] * power)


def _ring_matrix(array: np.ndarray, d: int) -> RingMatrix:
    return RingMatrix(*array.shape, tuple(array.ravel().tolist()), Modulus(d))


def _kronecker_solver(d: int, n: int, mode: str) -> KroneckerSolver:
    """The solver of W^{⊗n} x = f for the mode's digit-power matrix W."""
    return KroneckerSolver(_ring_matrix(_digit_powers(d, mode), d), n)


def _variables(d: int, n: int, mode: str) -> tuple[tuple[MultiHyperedge, ...], list[int]]:
    """The mode's edges in the graphs enumeration order, and the column of
    each in W^{⊗n}: the flat index, base k and vertex 0 most significant,
    of its exponent vector (0 off the support)."""
    if mode == HYPERGRAPH:
        variables, k = tuple(enumerate_hyperedges(n)), 2
    else:
        variables, k = tuple(enumerate_multihyperedges(n, d)), d
    columns = [
        sum(s * k ** (n - 1 - v) for v, s in zip(e.vertices, e.exponents)) for e in variables
    ]
    return variables, columns


def system_fingerprint(d: int, n: int, mode: str) -> str:
    """Hash of the canonical system at (d, n, mode); no table enters it.

    Rows are the nonzero index tuples in flat order, and column j of the
    dense matrix is column ``columns[j]`` of W^{⊗n}. So W and the columns fix
    every entry and both orderings, and they are hashed instead.
    """
    return _fingerprint(d, n, mode, _variables(d, n, mode)[1])


def _fingerprint(d: int, n: int, mode: str, columns: list[int]) -> str:
    payload = {
        "d": d,
        "n": n,
        "mode": mode,
        "base": _digit_powers(d, mode).tolist(),
        "columns": columns,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], RingMatrix]:
    variables, columns = _variables(d, n, mode)
    tuples = tuple(digits_of(i, d, n) for i in range(1, d**n))
    matrix = _ring_matrix(_kron_power(_digit_powers(d, mode), n, d)[1:, columns], d)
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
        return system_fingerprint(self.d, self.n, self.mode)


def _check_table(table: PhaseFunction, mode: str) -> None:
    _check_mode(mode)
    if not table.is_canonical:
        raise NonCanonical("phase table must have f(0, ..., 0) = 0")


def build_system(table: PhaseFunction, mode: str) -> CorrespondenceSystem:
    """One equation per nonzero index tuple, all variables on the left."""
    _check_table(table, mode)
    variables, tuples, matrix = _system_parts(table.d, table.n, mode)
    rhs = tuple(int(x) for x in table.table[1:])
    return CorrespondenceSystem(table.d, table.n, mode, variables, tuples, matrix, rhs)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of solving one canonical table.

    Solution vectors list the weights of ``variables`` in order. ``edge_map``
    is rebuilt from the particular solution when consistent and is always
    round-trip checked against the input table.
    """

    mode: str
    variables: tuple[MultiHyperedge, ...]
    fingerprint: str
    solution: SolutionSet
    edge_map: WeightedEdgeMap | None

    def edge_maps(self, cap: int | None = None) -> list[WeightedEdgeMap]:
        """Every solution as an edge map, in lexicographic weight-vector order."""
        if self.edge_map is None:
            return []
        d, n = self.edge_map.d, self.edge_map.n
        return [
            _vector_to_map(d, n, self.variables, vec) for vec in self.solution.solutions(cap=cap)
        ]


def _vector_to_map(
    d: int, n: int, variables: tuple[MultiHyperedge, ...], vector: tuple[int, ...]
) -> WeightedEdgeMap:
    return WeightedEdgeMap(d, n, {e: w for e, w in zip(variables, vector) if w % d})


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


def _check_generators(solver: KroneckerSolver) -> None:
    """Refuse before solving when the kernel generators, one column of
    V^{⊗n} per free unknown, would reach the table limit."""
    free = int(np.count_nonzero(solver.gcd > 1))
    k, n, cap = solver.cols, solver.power, DEFAULT_TABLE_LIMIT
    if free * k**n >= cap:
        raise SizeLimit(
            f"kernel generators of {free} x {k}^{n} entries meet or exceed the limit {cap}"
        )


def solve_weights(table: PhaseFunction, mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions.

    Raises SizeLimit, before solving, when the kernel generators would reach
    the table limit; that depends on (d, n, mode) alone.
    """
    _check_table(table, mode)
    d, n = table.d, table.n
    solver = _kronecker_solver(d, n, mode)
    _check_generators(solver)
    variables, columns = _variables(d, n, mode)
    # The constant m_0 is pinned to f(0) = 0; the rest are the edge weights.
    solution = _on_columns(solver.solve(table.table), columns)
    fingerprint = _fingerprint(d, n, mode, columns)
    edge_map = None
    if solution.consistent:
        assert solution.particular is not None
        edge_map = _vector_to_map(d, n, variables, solution.particular)
        if build_state(edge_map) != table:
            raise RoundTripFailure(
                f"solved weights do not rebuild the table (fingerprint {fingerprint})"
            )
    return SolveOutcome(mode, variables, fingerprint, solution, edge_map)


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
    base = _digit_powers(d, MULTIHYPERGRAPH)[1:, 1:]
    return _ring_matrix(_kron_power(base, 1 if d == 2 else size, d), d)


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
    """Classification of all canonical tables at fixed (d, n) by solution count."""

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
    """Classify every canonical phase table at (d, n) by its solution count.

    No table is solved. The reachable tables are the image of the linear
    map, R = d^{#vars} / K of them for a kernel of size K, and each has
    exactly K solutions, so the histogram is {0: total - R, K: R}. K comes
    from the Smith form of W alone. Refuses cleanly when the table count
    exceeds the budget.
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
    variables, columns = _variables(d, n, mode)
    kernel = _kronecker_solver(d, n, mode).count
    weight_assignments = d ** len(variables)
    reachable = weight_assignments // kernel
    histogram = {0: total - reachable, kernel: reachable}
    return CensusReport(
        d=d,
        n=n,
        mode=mode,
        total_states=total,
        reachable=reachable,
        histogram=tuple(sorted((k, v) for k, v in histogram.items() if v)),
        solution_sum=reachable * kernel,
        weight_assignments=weight_assignments,
        matrix_fingerprint=_fingerprint(d, n, mode, columns),
    )
