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
factored, and solution counts are exact. ``census`` solves no table and
factors nothing: the reachable tables are the image of the linear map,
d^{#vars} / K of them for a kernel of size K, and each has exactly K
solutions; K has a closed form, as the Smith form of W is diag(s!). W and
the column of each variable in W^{⊗n} fix the whole system, so
``system_fingerprint`` hashes those. ``census``, the fingerprint and the
variable order live in the numpy-free ``counting`` module and are
re-exported here. Only ``build_system`` and ``representability_constraints``
(its left nullspace, prime d) assemble the dense canonical matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    BudgetExceeded,
    CensusReport,
    _check_mode,
    _digit_power_rows,
    _fingerprint,
    _variables,
    census,
    system_fingerprint,
)
from .graphs import MultiHyperedge, WeightedEdgeMap
from .residues import (
    DEFAULT_TABLE_LIMIT,
    KroneckerSolver,
    Modulus,
    NonPrimeModulus,
    PrimeSolver,
    RingMatrix,
    SizeLimit,
    SolutionSet,
    power_at_least,
)
from .states import PhaseFunction, build_state, digits_of

DEFAULT_BLOCK_LIMIT = 2**24


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


class RoundTripFailure(RuntimeError):
    """A solved edge map failed to rebuild its own phase table (solver bug)."""


def _digit_powers(d: int, mode: str) -> np.ndarray:
    """The digit-power matrix W of ``counting._digit_power_rows`` as an array."""
    return np.array(_digit_power_rows(d, mode), dtype=np.int64)


def _kron_power(base: np.ndarray, power: int, d: int) -> np.ndarray:
    """base ⊗ ... ⊗ base, ``power`` factors, reduced mod d."""
    return reduce(lambda a, b: np.kron(a, b) % d, [base] * power)


def _ring_matrix(array: np.ndarray, d: int) -> RingMatrix:
    return RingMatrix(*array.shape, tuple(array.ravel().tolist()), Modulus(d))


def _kronecker_solver(d: int, n: int, mode: str) -> KroneckerSolver:
    """The solver of W^{⊗n} x = f for the mode's digit-power matrix W."""
    return KroneckerSolver(_ring_matrix(_digit_powers(d, mode), d), n)


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
