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
solve (``KroneckerSolver``, below) on the closed-form factor
U·W·V = diag(s!) of the small W (``counting.smith_factor``), so nothing is
factored and solution counts are exact. The solver reports x at the
edges' columns only, so the pinned m_0 never reaches the answer. The
solver lives here, with its only caller, so ``residues`` stays numpy-free.
The ``solve`` verb runs the same solve on Python lists
(``newton.solve_phases``); ``solve_weights`` is the reference the tests
hold it against.
``SolutionSet``, ``SolveOutcome`` and the solve errors live in the
numpy-free ``newton`` and are re-exported here.
``census`` solves no table: the reachable tables are the image of the
linear map, d^{#vars} / K of them for a kernel of size K, and each has
exactly K solutions; K has a closed form in the diagonal s!. W and the
column of each variable in W^{⊗n} fix the whole system, so
``system_fingerprint`` hashes those. ``census``, the factor, the
fingerprint and the variable order (``counting.edge_tuples``) live in the
numpy-free ``counting`` module; all but the variable order are re-exported
here.
``representability_constraints`` reads rows of U^{⊗n}; only
``build_system`` assembles the dense canonical matrix. Matrices are
C-contiguous, read-only int64 arrays with entries reduced mod d, frozen as
``PhaseFunction`` tables are.

Sizes go through ``residues.check_entries`` before any work: ``solve_weights``
refuses a factor of d·d entries and kernel generators of free·k^n entries
(one column of V^{⊗n} per free unknown), ``build_system`` a W^{⊗n} of
k^n·d^n entries, ``representability_constraints`` a solver of d^n divisors
and its picked rows of d^n entries each, and ``coefficient_block`` a block
of (d-1)^(2·size) entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    BudgetExceeded,
    CensusReport,
    _check_block,
    _check_mode,
    _columns,
    _digit_power_rows,
    _exponent_count,
    _fingerprint,
    census,
    smith_factor,
    system_fingerprint,
)
from .graphs import MultiHyperedge
from .newton import (
    NonCanonical,
    RoundTripFailure,
    SolutionSet,
    SolveOutcome,
    _no_solution,
    _variables,
    _vector_to_map,
)
from .residues import NonPrimeModulus, check_entries, is_prime, kernel_size
from .states import PhaseFunction, _freeze, build_state, digits_of


def _apply_on_every_axis(matrix: np.ndarray, tensor: np.ndarray, d: int) -> np.ndarray:
    """(matrix ⊗ ... ⊗ matrix) applied mod d to a tensor, one factor per axis.

    Entries stay below d, so each dot product is below d^3: int64 holds it
    for every d whose d x d matrix fits in memory.
    """
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [axis])) % d, 0, axis)
    return tensor


class KroneckerSolver:
    """Solve (W ⊗ ... ⊗ W)·x = b (mod d), ``power`` factors, for any d >= 2.

    Unknowns and equations are digit tuples in flat order, first digit most
    significant. The base W (m x k, m >= k) enters only through a factor
    U·W·V = D mod d, with U (m x m) and V (k x k) invertible mod d and D the
    m x k matrix with ``diagonal`` on its diagonal. The mixed-product property
    gives U^{⊗n}·W^{⊗n}·V^{⊗n} = D^{⊗n}, whose only nonzero entries sit at
    (j, j) for tuples j with every digit below k, with value prod_v D[j_v].
    So a solve is n tensor passes to form c = U^{⊗n} b, one elementwise
    division y_j = c_j / D_j (mod d) with exactly gcd(D_j, d) choices each,
    and n passes back to x = V^{⊗n} y. Equations j with a digit >= k have
    no diagonal entry and demand c_j = 0.
    """

    def __init__(
        self,
        u: Sequence[Sequence[int]],
        diagonal: Sequence[int],
        v: Sequence[Sequence[int]],
        *,
        d: int,
        power: int,
    ):
        self.u, self.v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        self.u %= d
        self.v %= d
        m, k = len(self.u), len(diagonal)
        if self.u.shape != (m, m) or self.v.shape != (k, k) or m < k:
            raise ValueError("need U m x m, V k x k and k diagonal entries, with m >= k")
        if power < 1 or d < 2:
            raise ValueError(f"need power >= 1 and d >= 2, got {power} and {d}")
        self.d, self.power = d, power
        self.rows, self.cols = m, k
        self.diagonal = list(diagonal)
        # entries[j] = prod_v D[j_v] mod d over the k^n column tuples.
        diag = np.array([x % d for x in diagonal], dtype=np.int64)
        entries = diag
        for _ in range(power - 1):
            entries = np.multiply.outer(entries, diag) % d
        # Per residue a of the diagonal: g = gcd(a, d), and the inverse of
        # a / g modulo d / g that turns c = a·y into y = (c / g)·inverse.
        gcds = [math.gcd(a, d) for a in range(d)]
        inverses = [
            pow(a // g, -1, d // g) if g < d else 0 for a, g in zip(range(d), gcds)
        ]
        self.gcd = np.array(gcds, dtype=np.int64)[entries]
        self.inverse = np.array(inverses, dtype=np.int64)[entries]
        # c_j must be a multiple of divisor_j: g_j on the diagonal, and d
        # (so c_j = 0) on the equations without a diagonal entry.
        self.divisor = np.full((m,) * power, d, dtype=np.int64)
        self.divisor[(slice(0, k),) * power] = self.gcd

    @cached_property
    def count(self) -> int:
        """Solutions of every consistent right-hand side: the kernel size,
        prod_j g_j. Computed on first use, as it can have millions of digits."""
        return kernel_size(self.diagonal, self.d, self.power)

    def solve(self, rhs: Sequence[int] | np.ndarray, unknowns: Sequence[int]) -> SolutionSet:
        """The solutions of W^{⊗n} x = rhs, each vector listing x at the flat
        indices ``unknowns``, in that order.

        The set is the image of all solutions under that pick, and ``count``
        is the number of solutions. The two agree only when every unknown
        left out is 0 in every solution.
        """
        d, n, k = self.d, self.power, self.cols
        b = np.asarray(rhs, dtype=np.int64)
        if b.shape != (self.rows**n,):
            raise ValueError("rhs length mismatch")
        c = _apply_on_every_axis(self.u, b.reshape((self.rows,) * n) % d, d)
        if (c % self.divisor).any():
            return _no_solution(d)
        diagonal_part = c[(slice(0, k),) * n]
        y = (diagonal_part // self.gcd) * self.inverse % (d // self.gcd)
        x = _apply_on_every_axis(self.v, y, d).reshape(-1)
        picked = np.asarray(unknowns, dtype=np.intp)
        particular = tuple(x[picked].tolist())
        return SolutionSet(d, True, particular, self.count, self._generators(picked))

    def _generators(self, picked: np.ndarray) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Column j of V^{⊗n} at the rows ``picked``, scaled by d / g_j, of
        order g_j, for every g_j > 1."""
        d = self.d
        gcd = self.gcd.reshape(-1)
        free = np.flatnonzero(gcd > 1)
        columns = _power_rows(self.v.T, free, self.power, d)[:, picked]
        columns *= (d // gcd[free])[:, None]
        columns %= d
        return tuple(zip(map(tuple, columns.tolist()), gcd[free].tolist()))


def _power_rows(matrix: np.ndarray, picked: np.ndarray, power: int, d: int) -> np.ndarray:
    """Rows ``picked`` (flat digit-tuple indices) of matrix^{⊗power} mod d,
    one Kronecker factor at a time, without building the power."""
    rows = np.ones((len(picked), 1), dtype=np.int64)
    for digit in np.unravel_index(picked, (len(matrix),) * power):
        factor = matrix[digit]  # row f holds row digit[f] of matrix
        outer = rows[:, :, None] * factor[:, None, :]
        rows = outer.reshape(len(picked), rows.shape[1] * factor.shape[1]) % d
    return rows


def _digit_powers(d: int, mode: str) -> np.ndarray:
    """The digit-power matrix W of ``counting._digit_power_rows`` as an array."""
    return np.array(_digit_power_rows(d, mode), dtype=np.int64)


def _kronecker_solver(d: int, n: int, mode: str) -> KroneckerSolver:
    """The solver of W^{⊗n} x = f from the closed-form factor of the mode's
    digit-power matrix W; raises SizeLimit first when that factor is too large."""
    return KroneckerSolver(*smith_factor(d, mode), d=d, power=n)


def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    # W^{⊗n} is built whole, d^n x k^n entries, before its columns are picked.
    check_entries("system", _exponent_count(d, mode) ** n, d, n)
    variables, columns = _variables(d, n, mode), _columns(d, n, mode)
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
    variables, columns = _variables(d, n, mode), _columns(d, n, mode)
    # The constant m_0, left out, is pinned to f(0) = 0 in every solution.
    solution = solver.solve(table.table, columns)
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
    rows j of U^{⊗n} whose divisor is d (``KroneckerSolver``), for
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
