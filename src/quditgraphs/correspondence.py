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
column of each variable in W^{⊗n} fix the whole system, so the fingerprint
that ``solve_weights`` and ``census`` report hashes those. ``census``, the
factor, the fingerprint and the variable order (``counting.edge_tuples``)
live in the numpy-free ``counting`` module; ``census`` and the factor are
re-exported here.
This module keeps the dense-matrix code: ``representability_constraints``
reads rows of U^{⊗n}, and only ``build_system`` assembles the dense
canonical matrix. Every Kronecker power comes from the numpy-free
``diagonals.power_rows`` as lanes: the constraint rows are read off them,
and ``build_system`` and ``coefficient_block`` wrap them in C-contiguous,
read-only int64 arrays with entries reduced mod d, frozen as
``PhaseFunction`` tables are.

Sizes go through ``residues.check_entries`` before any work: ``solve_weights``
refuses a factor of d·d entries and kernel generators of free·k^n entries
(one column of V^{⊗n} per free unknown), ``build_system`` a W^{⊗n} of
k^n·d^n entries, ``representability_constraints`` d^n divisors and its
picked rows of d^n entries each, and ``coefficient_block`` a block of
(d-1)^(2·size) entries.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    CensusReport,
    _check_mode,
    _columns,
    _digit_power_rows,
    _exponent_count,
    census,
    divisor_rule,
    smith_factor,
)
from .diagonals import coefficient_lanes, lane_width, power_rows, table_values
from .graphs import MultiHyperedge, _Value, enumerate_multihyperedges
from .newton import (
    KroneckerSolver,
    NonCanonical,
    RoundTripFailure,
    SolutionSet,
    SolveOutcome,
    _check_canonical,
    solve_phases,
)
from .residues import NonPrimeModulus, check_entries, is_prime
from .states import PhaseFunction, _freeze, digits_of


def _lane_rows(lanes: bytes, rows: int, d: int) -> np.ndarray:
    """Lanes of ``diagonals.power_rows`` as a read-only view of ``rows`` rows."""
    return np.frombuffer(lanes, dtype=f"<u{lane_width(d - 1)}").reshape(rows, -1)


def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    # The rows of W^{⊗n}, k^n entries each, are built whole before the
    # columns are picked.
    k = _exponent_count(d, mode)
    check_entries("system", k**n, d, n)
    variables, columns = tuple(enumerate_multihyperedges(n, k)), _columns(d, n, mode)
    tuples = tuple(digits_of(i, d, n) for i in range(1, d**n))
    lanes = power_rows(_digit_power_rows(d, mode), range(1, d**n), n, d)
    return variables, tuples, _freeze(_lane_rows(lanes, d**n - 1, d)[:, columns])


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


def build_system(table: PhaseFunction, mode: str) -> CorrespondenceSystem:
    """One equation per nonzero index tuple, all variables on the left."""
    _check_canonical(mode, table.table[0])
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
    side, lanes = coefficient_lanes(d, size)
    return _freeze(_lane_rows(lanes, side, d))


def representability_constraints(d: int, n: int, mode: str) -> list[tuple[int, ...]]:
    """A basis of the left nullspace of the coefficient matrix (prime d only).

    A canonical table is reachable iff every basis vector y has
    y . rhs = 0 (mod d), rhs taken in equation order. The vectors are the
    rows j of U^{⊗n} whose divisor is d (``counting.divisor_rule``) for the
    closed-form factor U·W·V = D: some digit j_v >= k, or
    prod_v D[j_v] = 0 (mod d). Column 0 is dropped, as f(0) = 0. Row j has
    its unit pivot at column j != 0, so the rows are independent.

    Raises SizeLimit before listing the d^n divisors or the picked rows of
    d^n entries each, when they would reach the table limit.
    """
    _check_mode(mode)
    check_entries("solver divisors", 1, d, n)
    if not is_prime(d):
        raise NonPrimeModulus(f"modulus {d} is not prime")
    u, diagonal, _ = smith_factor(d, mode)
    # The g_j of the k^n tuples with every digit below k, in flat order.
    gcd = iter(divisor_rule(diagonal, d, n)[0])
    tuples = enumerate(product(range(d), repeat=n))
    picked = [j for j, digits in tuples if max(digits) >= len(diagonal) or next(gcd) == d]
    check_entries("constraint rows", len(picked), d, n)
    values, size = table_values(power_rows(u, picked, n, d), d), d**n
    return [tuple(values[start + 1 : start + size]) for start in range(0, len(values), size)]
