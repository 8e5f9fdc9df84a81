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
solve (``residues.KroneckerSolver``) on the closed-form factor
U·W·V = diag(s!) of the small W (``counting.smith_factor``), so nothing is
factored and solution counts are exact. ``census`` solves no table: the
reachable tables are the image of the linear map, d^{#vars} / K of them for
a kernel of size K, and each has exactly K solutions; K has a closed form
in the diagonal s!. W and the column of each variable in W^{⊗n} fix the
whole system, so ``system_fingerprint`` hashes those. ``census``, the
factor, the fingerprint and the variable order live in the numpy-free
``counting`` module and are re-exported here. ``representability_constraints``
reads rows of U^{⊗n}; only ``build_system`` assembles the dense canonical
matrix. Matrices are C-contiguous, read-only int64 arrays with entries
reduced mod d, frozen as ``PhaseFunction`` tables are.

Sizes go through ``residues.check_entries`` before any work: ``solve_weights``
refuses a factor of d·d entries and kernel generators of free·k^n entries
(one column of V^{⊗n} per free unknown), ``build_system`` a W^{⊗n} of
k^n·d^n entries, ``representability_constraints`` a solver of d^n divisors
and its picked rows of d^n entries each, and ``coefficient_block`` a block
of (d-1)^(2·size) entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    BudgetExceeded,
    CensusReport,
    _check_block,
    _check_mode,
    _digit_power_rows,
    _exponent_count,
    _fingerprint,
    _variables,
    census,
    smith_factor,
    system_fingerprint,
)
from .graphs import MultiHyperedge, WeightedEdgeMap
from .residues import (
    KroneckerSolver,
    NonPrimeModulus,
    SolutionSet,
    _power_rows,
    check_entries,
    is_prime,
)
from .states import PhaseFunction, _freeze, build_state, digits_of


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


class RoundTripFailure(RuntimeError):
    """A solved edge map failed to rebuild its own phase table (solver bug)."""


def _digit_powers(d: int, mode: str) -> np.ndarray:
    """The digit-power matrix W of ``counting._digit_power_rows`` as an array."""
    return np.array(_digit_power_rows(d, mode), dtype=np.int64)


def _kronecker_solver(d: int, n: int, mode: str) -> KroneckerSolver:
    """The solver of W^{⊗n} x = f from the closed-form factor of the mode's
    digit-power matrix W; raises SizeLimit first when that factor is too large."""
    return KroneckerSolver(*smith_factor(d, mode), d=d, power=n)


@lru_cache(maxsize=2)  # a (3, 7) system holds about 37 MB: keep few alive
def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    # W^{⊗n} is built whole, d^n x k^n entries, before its columns are picked.
    check_entries("system", _exponent_count(d, mode) ** n, d, n)
    variables, columns = _variables(d, n, mode)
    tuples = tuple(digits_of(i, d, n) for i in range(1, d**n))
    power = _power_rows(_digit_powers(d, mode), np.arange(d**n), n, d)
    return variables, tuples, _freeze(power[1:, columns])


@dataclass(frozen=True, eq=False)
class CorrespondenceSystem:
    """The coefficient matrix and right-hand side for one phase table."""

    d: int
    n: int
    mode: str
    variables: tuple[MultiHyperedge, ...]
    tuples: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
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
        solution.d,
        True,
        pick(solution.particular),
        solution.count,
        tuple((pick(direction), order) for direction, order in solution.generators),
    )


def solve_weights(table: PhaseFunction, mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions.

    Raises SizeLimit, before solving, when the kernel generators, one column
    of V^{⊗n} per free unknown, would reach the table limit; that depends on
    (d, n, mode) alone.
    """
    _check_table(table, mode)
    d, n = table.d, table.n
    solver = _kronecker_solver(d, n, mode)
    free = int(np.count_nonzero(solver.gcd > 1))
    check_entries("kernel generators", free, solver.cols, n)
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


def coefficient_block(d: int, size: int) -> np.ndarray:
    """size-fold Kronecker power of the (d-1)x(d-1) digit-power matrix
    V[i][s] = i^s mod d (i, s in 1..d-1), as a read-only int64 array."""
    _check_block(d, size)
    base = _digit_powers(d, MULTIHYPERGRAPH)[1:, 1:]
    power = 1 if d == 2 else size  # at d = 2 the block is [[1]] for every size
    return _freeze(_power_rows(base, np.arange((d - 1) ** power), power, d))


def representability_constraints(d: int, n: int, mode: str) -> list[tuple[int, ...]]:
    """A basis of the left nullspace of the coefficient matrix (prime d only).

    A canonical table is reachable iff every basis vector y has
    y . rhs = 0 (mod d), rhs taken in equation order. The vectors are the
    rows j of U^{⊗n} whose divisor is d (``residues.KroneckerSolver``), for
    the closed-form factor U·W·V = D: some digit j_v >= k, or
    prod_v D[j_v] = 0 (mod d). Column 0 is dropped, as f(0) = 0. Row j has
    its unit pivot at column j != 0, so the rows are independent.

    Raises SizeLimit before allocating the solver's d^n divisors or the
    picked rows of d^n entries each, when they would reach the table limit.
    """
    _check_mode(mode)
    check_entries("solver divisors", 1, d, n)
    if not is_prime(d):
        raise NonPrimeModulus(f"modulus {d} is not prime")
    solver = _kronecker_solver(d, n, mode)
    picked = np.flatnonzero(solver.divisor.reshape(-1) == d)
    check_entries("constraint rows", len(picked), d, n)
    return [tuple(row) for row in _power_rows(solver.u, picked, n, d)[:, 1:].tolist()]
