"""The census: how many canonical phase tables the edge weights reach.

This module needs no numpy, so ``census`` starts and finishes without it.

The canonical system at (d, n, mode) is W^{⊗n} x = f with the digit-power
matrix W[i][s] = i^s mod d (0^0 = 1), s in 0..k-1 for k = d
(multihypergraph) or k = 2 (hypergraph); see ``correspondence``. Writing
x^s in falling factorials, x^s = sum_t S(s, t)·t!·C(x, t) with Stirling
numbers S of the second kind, gives over Z for the unreduced powers i^s,
and hence mod d,

    W = P · D · S^T,   D = the d x k diagonal diag(0!, 1!, ..., (k-1)!),

with Pascal's d x d matrix P[i][t] = C(i, t) and the k x k S^T, both
unitriangular. So both outer factors are unimodular, and as s! divides
(s+1)!, D is the Smith form of W (Singmaster 1974; Kempner 1921). The
kernel of W^{⊗n} over Z_d then has K = prod_{j in [k]^n} gcd(prod_v j_v!, d)
elements (``residues.kernel_size``). Every reachable table has exactly K weight
solutions, so R = d^{#vars} / K tables are reachable, and no table and no
factorisation is needed to count them.

``smith_factor`` builds the inverses U = P^{-1} and V = (S^T)^{-1} by
recurrences mod d, so U·W·V = D. It is the package's only factor of W:
``solve`` hands it to ``residues.KroneckerSolver``, and ``census`` reads its
diagonal alone (``_factorial_diagonal``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

from .graphs import MultiHyperedge, enumerate_hyperedges, enumerate_multihyperedges
from .residues import DEFAULT_TABLE_LIMIT, SizeLimit, kernel_size, power_at_least

HYPERGRAPH = "hypergraph"
MULTIHYPERGRAPH = "multihypergraph"
MODES = (HYPERGRAPH, MULTIHYPERGRAPH)

DEFAULT_CENSUS_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """The census would cover more tables than the configured budget."""


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _exponent_count(d: int, mode: str) -> int:
    """k: the exponents s of W are 0..k-1."""
    return 2 if mode == HYPERGRAPH else d


def _digit_power_rows(d: int, mode: str) -> list[list[int]]:
    """W[i][s] = i^s mod d with 0^0 = 1, for i in 0..d-1 and s in 0..k-1,
    each row a running product. Entries are taken from ``residue``, so the
    d·k of them share d int objects and cost a pointer each."""
    k, residue = _exponent_count(d, mode), list(range(d))
    return [
        list(accumulate(repeat(i, k - 1), lambda power, _: residue[power * i % d], initial=1))
        for i in range(d)
    ]


def _factorial_diagonal(d: int, mode: str) -> list[int]:
    """The diagonal of ``smith_factor``: s! mod d for s in 0..k-1. The census
    needs nothing else, so it reads this alone and stays O(k)."""
    diagonal, value = [], 1
    for s in range(_exponent_count(d, mode)):
        value = value * max(s, 1) % d
        diagonal.append(value)
    return diagonal


def _signed_triangle(steps: Sequence[int], d: int) -> list[list[int]]:
    """The square T with T[0] = e_0 and T[r+1][c] = T[r][c-1] - steps[r]·T[r][c]
    (mod d), T[r][-1] = 0: lower unitriangular, one row per step plus one.
    Entries share one int object per residue, as in ``_digit_power_rows``."""
    rows, residue = [[1]], list(range(d))
    for step in steps:
        row = rows[-1]
        rows.append([residue[(left - step * here) % d] for left, here in zip([0] + row, row + [0])])
    for row in rows:
        row.extend([0] * (len(rows) - len(row)))
    return rows


def smith_factor(d: int, mode: str) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """U, the diagonal s! and V with U·W·V = diag(s!) (mod d); see the module
    docstring. Built by recurrences mod d in O(d^2) steps, nothing factored:

    * U[i][t] = (-1)^(i-t)·C(i, t), d x d, from Pascal's rule;
    * V[s][t] = s(t, s), k x k, the signed Stirling numbers of the first kind
      from s(t+1, s) = s(t, s-1) - t·s(t, s), so V is upper unitriangular.

    Raises SizeLimit before building anything when U's d^2 entries, the most
    of any part (W has d·k), would reach the table limit.
    """
    if d * d >= DEFAULT_TABLE_LIMIT:
        raise SizeLimit(
            f"the factor of the base W holds {d} x {d} entries, which meets or exceeds "
            f"the limit {DEFAULT_TABLE_LIMIT}"
        )
    pascal = _signed_triangle([1] * (d - 1), d)
    stirling = _signed_triangle(range(_exponent_count(d, mode) - 1), d)
    return pascal, _factorial_diagonal(d, mode), [list(column) for column in zip(*stirling)]


def _variables(d: int, n: int, mode: str) -> tuple[tuple[MultiHyperedge, ...], list[int]]:
    """The mode's edges in the graphs enumeration order, and the column of
    each in W^{⊗n}: the flat index, base k and vertex 0 most significant,
    of its exponent vector (0 off the support)."""
    if mode == HYPERGRAPH:
        variables = tuple(enumerate_hyperedges(n))
    else:
        variables = tuple(enumerate_multihyperedges(n, d))
    k = _exponent_count(d, mode)
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
        "base": _digit_power_rows(d, mode),
        "columns": columns,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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

    No table is solved and nothing is factored. The reachable tables are the
    image of the linear map, R = d^{#vars} / K of them for a kernel of size
    K, and each has exactly K solutions, so the histogram is
    {0: total - R, K: R}. K comes from the closed-form Smith diagonal s! of
    W (module docstring). Refuses cleanly when the table count exceeds the
    budget.
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
    kernel = kernel_size(_factorial_diagonal(d, mode), d, n)
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
