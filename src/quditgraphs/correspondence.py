"""Phase tables vs edge weights: build, solve, and count the linear systems.

A canonical phase table f (f(0,...,0) = 0) is reachable from an edge map iff

    sum_e m_e * prod_{v in e} i_v^{s_v}  =  f(i)   (mod d),  one equation per
    nonzero index tuple i,

has a solution in the edge weights m_e: the 2^n - 1 plain hyperedges in
hypergraph mode, all d^n - 1 decorated edges in multihypergraph mode.
Equations follow the flat index of the tuple (i_0 most significant),
variables the enumeration order of ``graphs``.

With each edge written as its exponent vector s (0 off the support) and a
constant m_0 for s = 0, the system over all d^n tuples is W^{⊗n} x = f for
the digit-power matrix W[i][s] = i^s mod d (0^0 = 1), s in 0..d-1
(multihypergraph) or {0, 1} (hypergraph); row 0 pins m_0 = f(0) = 0.
``solve_weights`` hands the table to ``newton.solve_phases``, the one
Kronecker solve of the package on the closed-form factor U·W·V = diag(s!)
(``counting.smith_factor``), which reports x at the edges' columns only.
Reachability is the divisor rule on the Newton coefficients on [k]^n
(``counting.divisor_rule``), then the round trip through W itself; the
solution counts are the rule's alone, so ``census`` solves no table, and
the fingerprint hashes the name (d, n, mode), which fixes W and every
column. ``census`` lives in the numpy-free ``counting``, and the solve's
types and errors in ``newton``.

This module keeps the dense-matrix code. Its Kronecker powers come from
``lanes.power_rows``: ``representability_constraints`` reads rows of
U^{⊗n} off the lanes, and ``build_system`` and ``coefficient_block`` wrap
them in read-only int64 arrays, frozen as ``PhaseFunction`` tables are.

Sizes go through ``counting.check_entries`` before any work:
``build_system`` refuses a W^{⊗n} of k^n·d^n entries,
``representability_constraints`` d^n divisors, the d·d entries of the whole
U and its picked rows of d^n entries each, ``coefficient_block`` a block of
(d-1)^(2·size) entries, and ``solve_weights`` whatever ``solve_phases``
refuses.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .counting import (
    NonPrimeModulus,
    _check_mode,
    _columns,
    _digit_power_rows,
    _exponent_count,
    _signed_triangle,
    check_entries,
    coefficient_lanes,
    is_prime,
)
from .graphs import MultiHyperedge, _Value, enumerate_multihyperedges
from .lanes import lane_values, power_rows
from .newton import SolveOutcome, _check_canonical, solve_phases
from .states import PhaseFunction, _freeze, _lane_view

# Unused here: tests/test_acceptance.py imports all three from this module,
# and perfbench/launcher.py wraps ``census`` by this path until ROADMAP item
# 1 step C.
from .counting import HYPERGRAPH, MULTIHYPERGRAPH, census  # noqa: F401


def _system_parts(
    d: int, n: int, mode: str
) -> tuple[tuple[MultiHyperedge, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    # The rows of W^{⊗n}, k^n entries each, are built whole before the
    # columns are picked.
    k = _exponent_count(d, mode)
    check_entries("system", k**n, d, n)
    variables, columns = tuple(enumerate_multihyperedges(n, k)), _columns(d, n, mode)
    tuples = tuple(product(range(d), repeat=n))[1:]
    lanes = power_rows(_digit_power_rows(d, mode), tuples, d)
    return variables, tuples, _freeze(_lane_view(lanes, d).reshape(d**n - 1, -1)[:, columns])


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


def build_system(table: PhaseFunction, mode: str) -> CorrespondenceSystem:
    """One equation per nonzero index tuple, all variables on the left."""
    _check_canonical(mode, table.table[0])
    variables, tuples, matrix = _system_parts(table.d, table.n, mode)
    rhs = tuple(table.table[1:].tolist())
    return CorrespondenceSystem(table.d, table.n, mode, variables, tuples, matrix, rhs)


def solve_weights(table: PhaseFunction, mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions:
    ``newton.solve_phases`` on the table's entries, with its refusals."""
    return solve_phases(table.d, table.n, table.table.tolist(), mode)


def coefficient_block(d: int, size: int) -> np.ndarray:
    """size-fold Kronecker power of the (d-1)x(d-1) digit-power matrix
    V[i][s] = i^s mod d (i, s in 1..d-1), as a read-only int64 array."""
    side, lanes = coefficient_lanes(d, size)
    return _freeze(_lane_view(lanes, d).reshape(side, -1))


def representability_constraints(d: int, n: int, mode: str) -> list[tuple[int, ...]]:
    """A basis of the left nullspace of the coefficient matrix (prime d only).

    A canonical table is reachable iff every basis vector y has
    y . rhs = 0 (mod d), rhs taken in equation order. The vectors are the
    rows j of U^{⊗n} with some digit j_v >= k, for the closed-form factor
    U·W·V = D. At prime d, j_v! with j_v < k <= d is a unit, so the divisor
    rule (``counting.divisor_rule``) picks no row on [k]^n. Column 0 is
    dropped, as f(0) = 0. Row j has its unit pivot at column j != 0, so the
    rows are independent.

    Raises SizeLimit before scanning the d^n tuples, building U's d x d
    entries or the picked rows of d^n entries each, when they would reach
    the table limit.
    """
    _check_mode(mode)
    check_entries("solver divisors", 1, d, n)
    if not is_prime(d):
        raise NonPrimeModulus(f"modulus {d} is not prime")
    check_entries("base factor U", d, d, 1)  # every row, not only the k that meet D
    u, k = _signed_triangle([1] * (d - 1), d, d), _exponent_count(d, mode)
    picked = [digits for digits in product(range(d), repeat=n) if max(digits) >= k]
    check_entries("constraint rows", len(picked), d, n)
    values, size = lane_values(power_rows(u, picked, d), d), d**n
    return [tuple(values[start + 1 : start + size]) for start in range(0, len(values), size)]
