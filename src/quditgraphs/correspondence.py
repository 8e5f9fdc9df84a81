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
``solve_weights`` solves it for every d and both modes with the one
Kronecker solve of the package (``newton.KroneckerSolver``, re-exported
here) on the closed-form factor U·W·V = diag(s!) of the small W
(``counting.smith_factor``), so nothing is factored and solution counts are
exact: it hands the table to ``newton.solve_phases``, the solve of the
``solve`` verb, which runs on Python lists and reports x at the edges'
columns only, so the pinned m_0 never reaches the answer.
``SolutionSet``, ``SolveOutcome`` and the solve errors live in the
numpy-free ``newton`` and are re-exported here.
Which tables are reachable, and with how many solutions, is the divisor
rule on their Newton coefficients (``counting``'s module docstring and
``counting.divisor_rule``), so ``census`` solves no table. W and the
column of each variable in W^{⊗n} fix the whole system, so
``system_fingerprint`` hashes those. ``census``, the factor, the
fingerprint and the variable order (``counting.edge_tuples``) live in the
numpy-free ``counting`` module; all but the variable order are re-exported
here.
This module keeps the dense-matrix code: ``representability_constraints``
reads rows of U^{⊗n}, and only ``build_system`` assembles the dense
canonical matrix. Matrices are C-contiguous, read-only int64 arrays with
entries reduced mod d, frozen as ``PhaseFunction`` tables are.

Sizes go through ``residues.check_entries`` before any work: ``solve_weights``
refuses a factor of d·d entries and kernel generators of free·k^n entries
(one column of V^{⊗n} per free unknown), ``build_system`` a W^{⊗n} of
k^n·d^n entries, ``representability_constraints`` a solver of d^n divisors
and its picked rows of d^n entries each, and ``coefficient_block`` a block
of (d-1)^(2·size) entries.
"""

from __future__ import annotations

import numpy as np

from .counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    CensusReport,
    _check_block,
    _check_mode,
    _columns,
    _digit_power_rows,
    _exponent_count,
    census,
    smith_factor,
    system_fingerprint,
)
from .graphs import MultiHyperedge, _Value, enumerate_multihyperedges
from .newton import (
    KroneckerSolver,
    NonCanonical,
    RoundTripFailure,
    SolutionSet,
    SolveOutcome,
    solve_phases,
)
from .residues import NonPrimeModulus, check_entries, is_prime
from .states import PhaseFunction, _freeze, digits_of


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


def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    # W^{⊗n} is built whole, d^n x k^n entries, before its columns are picked.
    k = _exponent_count(d, mode)
    check_entries("system", k**n, d, n)
    variables, columns = tuple(enumerate_multihyperedges(n, k)), _columns(d, n, mode)
    tuples = tuple(digits_of(i, d, n) for i in range(1, d**n))
    power = _power_rows(_digit_powers(d, mode), np.arange(d**n), n, d)
    return variables, tuples, _freeze(power[1:, columns])


class CorrespondenceSystem(_Value):
    """The coefficient matrix and right-hand side for one phase table.
    Equality and hash are identity, as for ``states.DenseState``."""

    __slots__ = _fields = ("d", "n", "mode", "variables", "tuples", "matrix", "rhs")
    d: int
    n: int
    mode: str
    variables: tuple[MultiHyperedge, ...]
    tuples: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    rhs: tuple[int, ...]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        d: int,
        n: int,
        mode: str,
        variables: tuple[MultiHyperedge, ...],
        tuples: tuple[tuple[int, ...], ...],
        matrix: np.ndarray,
        rhs: tuple[int, ...],
    ):
        self._set(d=d, n=n, mode=mode, variables=variables, tuples=tuples, matrix=matrix, rhs=rhs)

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
    """Decide reachability of a canonical table and count all weight solutions:
    ``newton.solve_phases`` on the table's entries, with its refusals."""
    return solve_phases(table.d, table.n, table.table.tolist(), mode)


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
    rows j of U^{⊗n} whose divisor is d (``counting.divisor_rule``, read
    through the solver), for the closed-form factor U·W·V = D: some digit
    j_v >= k, or prod_v D[j_v] = 0 (mod d). Column 0 is dropped, as f(0) = 0. Row j has
    its unit pivot at column j != 0, so the rows are independent.

    Raises SizeLimit before allocating the solver's d^n divisors or the
    picked rows of d^n entries each, when they would reach the table limit.
    """
    _check_mode(mode)
    check_entries("solver divisors", 1, d, n)
    if not is_prime(d):
        raise NonPrimeModulus(f"modulus {d} is not prime")
    solver = KroneckerSolver(*smith_factor(d, mode), d=d, power=n)
    divisor = [d] * d**n  # d, so c_j = 0, at the tuples without a diagonal entry
    for i, g in zip(solver.inside, solver.gcd):
        divisor[i] = g
    picked = [j for j, g in enumerate(divisor) if g == d]
    check_entries("constraint rows", len(picked), d, n)
    rows = _power_rows(np.array(solver.u, dtype=np.int64), np.array(picked, dtype=np.intp), n, d)
    return [tuple(row) for row in rows[:, 1:].tolist()]
