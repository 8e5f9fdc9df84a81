"""The Kronecker solve of the package, on Python lists, without numpy.

A table f over Z_d^n is a flat list of d^n ints, i_0 the most significant
digit. ``_forward`` applies a small matrix along every axis of such a list:
with Pascal's U of ``counting.smith_factor`` it gives c = U^{⊗n} f, the
Newton forward differences of f, and with the digit-power matrix W it
rebuilds a table from edge weights. A pass costs about 0.03 µs per
multiply-add on a 2-core Xeon, several times numpy's cost, but it loads
nothing: importing numpy alone takes about 90 ms there, more than the whole
solve of a small table.

``KroneckerSolver`` solves W^{⊗n} x = b for any base W from a factor
U·W·V = D, and ``solve_phases``, the solve of the ``solve`` verb and of
``correspondence.solve_weights``, runs it on the closed-form factor and
checks the answer through W itself. The solution types ``SolutionSet`` and
``SolveOutcome`` live here; ``correspondence`` re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product, repeat
from operator import add, mod, mul
from typing import Callable, Sequence

from .counting import (
    _check_mode,
    _columns,
    _digit_power_rows,
    _exponent_count,
    _fingerprint,
    edge_tuples,
    smith_factor,
)
from .graphs import MultiHyperedge, WeightedEdgeMap
from .residues import check_entries, kernel_size

Generators = tuple[tuple[tuple[int, ...], int], ...]


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


class RoundTripFailure(RuntimeError):
    """A solved edge map failed to rebuild its own phase table (solver bug)."""


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of one linear system over Z_d.

    ``generators`` describes the solution affine sublattice: each entry is a
    (direction, order) pair, and the full set is
    ``particular + sum_j c_j * direction_j (mod d)`` for c_j in range(order_j).
    The directions are independent mod d, so ``count`` equals the product of
    the orders. ``kernel`` holds the generators, or a function that builds
    them on the first read of ``generators``. Equality and the repr leave
    the generators out: they follow from the system, which a set does not
    name.
    """

    d: int
    consistent: bool
    particular: tuple[int, ...] | None
    count: int
    kernel: Generators | Callable[[], Generators] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.consistent != (self.particular is not None) or self.consistent != (self.count >= 1):
            raise ValueError("inconsistent SolutionSet fields")

    @cached_property
    def generators(self) -> Generators:
        return self.kernel() if callable(self.kernel) else self.kernel

    def solutions(self, cap: int | None = None) -> list[tuple[int, ...]]:
        """Enumerate every solution, sorted lexicographically.

        Raises ValueError when the exact count exceeds ``cap``.
        """
        if not self.consistent:
            return []
        if cap is not None and self.count > cap:
            raise ValueError(f"solution count {self.count} exceeds cap {cap}")
        d = self.d
        base = self.particular
        assert base is not None
        out = []
        ranges = [range(order) for _, order in self.generators]
        for coeffs in product(*ranges):
            vec = list(base)
            for c, (direction, _) in zip(coeffs, self.generators):
                if c:
                    for i, g in enumerate(direction):
                        vec[i] = (vec[i] + c * g) % d
            out.append(tuple(vec))
        out.sort()
        if len(out) != self.count:
            raise AssertionError("generator enumeration does not match count")
        return out


def _no_solution(d: int) -> SolutionSet:
    return SolutionSet(d, False, None, 0, ())


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


def _variables(d: int, n: int, mode: str) -> tuple[MultiHyperedge, ...]:
    """The mode's edges, the unknowns of the system, in ``counting._columns`` order."""
    return tuple(MultiHyperedge(*pair) for pair in edge_tuples(n, _exponent_count(d, mode)))


def _forward(matrix: Sequence[Sequence[int]], flat: Sequence[int], n: int, d: int) -> list[int]:
    """(matrix ⊗ ... ⊗ matrix)·flat mod d for an m x k matrix and a flat
    C-order tensor of k^n ints: the m^n entries, in C order.

    Each of the n steps applies the matrix to the last axis and puts the new
    axis first, so after n steps every axis is done once and back in its
    place. A step runs its inner products in C along the longer side: one
    ``sum`` per output entry while the k-long rows are longer than the
    columns, and otherwise one ``map`` over a whole column per nonzero
    matrix entry.
    """
    k = len(matrix[0])
    for _ in range(n):
        rows = len(flat) // k
        if rows < k:
            chunks = list(zip(*[iter(flat)] * k))
            flat = [sum(map(mul, row, chunk)) % d for row in matrix for chunk in chunks]
            continue
        columns = [flat[j::k] for j in range(k)]
        out: list[int] = []
        for coefficients in matrix:
            total = None
            for c, column in zip(coefficients, columns):
                if c:
                    term = column if c == 1 else map(mul, column, repeat(c))
                    total = list(term) if total is None else list(map(add, total, term))
            out += repeat(0, rows) if total is None else map(mod, total, repeat(d))
        flat = out
    return flat


def _generators(
    v: Sequence[Sequence[int]], free: list[tuple[int, int]], columns: list[int], n: int, d: int
) -> Generators:
    """For each (j, g) in ``free``: column j (a flat index, base k) of
    V^{⊗n} at the rows ``columns``, times d / g, of order g."""
    k = len(v)
    out = []
    for j, g in free:
        column = [1]
        for place in range(n - 1, -1, -1):
            digit = j // k**place % k
            column = [a * row[digit] % d for a in column for row in v]
        out.append((tuple(column[i] * (d // g) % d for i in columns), g))
    return tuple(out)


class KroneckerSolver:
    """Solve (W ⊗ ... ⊗ W)·x = b (mod d), ``power`` factors, for any d >= 2.

    Unknowns and equations are digit tuples in flat order, first digit most
    significant. The base W (m x k, m >= k) enters only through a factor
    U·W·V = D mod d, with U (m x m) and V (k x k) invertible mod d and D the
    m x k matrix with ``diagonal`` on its diagonal. The mixed-product property
    gives U^{⊗n}·W^{⊗n}·V^{⊗n} = D^{⊗n}, whose only nonzero entries sit at
    (j, j) for tuples j with every digit below k, with value prod_v D[j_v].
    So a solve is n passes to form c = U^{⊗n} b, one division y_j = c_j / D_j
    (mod d) with exactly gcd(D_j, d) choices each, and n passes back to
    x = V^{⊗n} y. Equations j with a digit >= k have no diagonal entry and
    demand c_j = 0.
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
        m, k = len(u), len(diagonal)
        square = all(len(row) == m for row in u) and all(len(row) == k for row in v)
        if not square or len(v) != k or m < k:
            raise ValueError("need U m x m, V k x k and k diagonal entries, with m >= k")
        if power < 1 or d < 2:
            raise ValueError(f"need power >= 1 and d >= 2, got {power} and {d}")
        # Every pass reduces mod d, so U and V are kept as given.
        self.u, self.v, self.diagonal = u, v, list(diagonal)
        self.d, self.power, self.rows = d, power, m
        # The flat indices (base m) of the k^n tuples with every digit below
        # k, and D_j = prod_v D[j_v] mod d at each.
        self.inside, entries = [0], [1]
        for _ in range(power):
            self.inside = [i * m + s for i in self.inside for s in range(k)]
            entries = [a * b % d for a in entries for b in diagonal]
        # c_j = D_j·y_j has a solution iff g_j = gcd(D_j, d) divides c_j;
        # then y_j = (c_j / g_j)·inverse_j, the inverse of D_j / g_j modulo
        # d / g_j.
        gcds = [math.gcd(a, d) for a in range(d)]
        inverses = [pow(a // g, -1, d // g) if g < d else 0 for a, g in zip(range(d), gcds)]
        self.gcd = [gcds[a] for a in entries]
        self.inverse = [inverses[a] for a in entries]

    @cached_property
    def count(self) -> int:
        """Solutions of every consistent right-hand side: the kernel size,
        prod_j g_j. Computed on first use, as it can have millions of digits."""
        return kernel_size(self.diagonal, self.d, self.power)

    def solve(self, rhs: Sequence[int], unknowns: Sequence[int]) -> SolutionSet:
        """The solutions of W^{⊗n} x = rhs, each vector listing x at the flat
        indices ``unknowns``, in that order.

        The set is the image of all solutions under that pick, and ``count``
        is the number of solutions. The two agree only when every unknown
        left out is 0 in every solution. The kernel generators are built on
        the first read of the set's ``generators``.
        """
        d, n = self.d, self.power
        if len(rhs) != self.rows**n:
            raise ValueError("rhs length mismatch")
        c = _forward(self.u, rhs, n, d)
        diagonal_part = [c[i] for i in self.inside]
        if sum(map(bool, c)) != sum(map(bool, diagonal_part)) or any(
            map(mod, diagonal_part, self.gcd)
        ):
            return _no_solution(d)
        y = [
            cj // g * inverse % (d // g)
            for cj, g, inverse in zip(diagonal_part, self.gcd, self.inverse)
        ]
        x = _forward(self.v, y, n, d)
        particular = tuple(x[i] for i in unknowns)
        free = [(j, g) for j, g in enumerate(self.gcd) if g > 1]
        generators = partial(_generators, self.v, free, unknowns, n, d)
        return SolutionSet(d, True, particular, self.count, generators)


def solve_phases(d: int, n: int, phases: Sequence[int], mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions.

    ``phases`` is a table as ``graphs.phase_table`` returns it: d^n entries
    in [0, d). Raises SizeLimit, before solving, when the base factor U or
    the kernel generators, one column of V^{⊗n} per free unknown, would
    reach the table limit; both depend on (d, mode) and n alone.
    """
    _check_mode(mode)
    if phases[0]:
        raise NonCanonical("phase table must have f(0, ..., 0) = 0")
    u, diagonal, v = smith_factor(d, mode)
    k = len(diagonal)
    # y_j is free (g_j > 1) unless every D[j_v] is a unit mod d.
    units = sum(math.gcd(a, d) == 1 for a in diagonal)
    check_entries("kernel generators", k**n - units**n, k, n)
    columns, variables = _columns(d, n, mode), _variables(d, n, mode)
    fingerprint = _fingerprint(d, n, mode, columns)
    # The constant m_0 at column 0, left out, is pinned to f(0) = 0.
    solution = KroneckerSolver(u, diagonal, v, d=d, power=n).solve(phases, columns)
    if not solution.consistent:
        return SolveOutcome(mode, variables, fingerprint, solution, None)
    # The round trip goes through W itself, not its factor.
    placed = [0] * k**n
    for i, weight in zip(columns, solution.particular):
        placed[i] = weight
    if _forward(_digit_power_rows(d, mode), placed, n, d) != list(phases):
        raise RoundTripFailure(
            f"solved weights do not rebuild the table (fingerprint {fingerprint})"
        )
    edge_map = _vector_to_map(d, n, variables, solution.particular)
    return SolveOutcome(mode, variables, fingerprint, solution, edge_map)
