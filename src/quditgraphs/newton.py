"""The Kronecker solve of the package, on lanes, without numpy.

A table f over Z_d^n is d^n values, i_0 the most significant digit, as
lanes of ``lanes``. ``lanes.kronecker_pass`` applies a small matrix along
every axis: with the first k rows of Pascal's U of
``counting.smith_factor`` it gives the Newton forward differences
c = U^{⊗n} f on [k]^n, and with the digit-power matrix W it rebuilds a
table from edge weights.

``KroneckerSolver`` solves W^{⊗n} x = b for any base W from a factor
U·W·V = D: the divisor rule on [k]^n, then a round trip through W itself
that decides the rest, so it verifies every answer. ``solve_phases``, the
solve of the ``solve`` verb and of ``correspondence.solve_weights``, runs
it on the closed-form factor. The solution types ``SolutionSet`` and
``SolveOutcome`` live here.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product
from operator import mod
from typing import Callable, Sequence

from .counting import (
    _check_mode,
    _columns,
    _digit_power_rows,
    _factorial_diagonal,
    _fingerprint,
    check_entries,
    divisor_rule,
    kernel_size,
    smith_factor,
)
from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .lanes import _pack, kronecker_pass, lane_values, power_rows

Generators = tuple[tuple[tuple[int, ...], int], ...]


class NonCanonical(ValueError):
    """The phase table has f(0, ..., 0) != 0."""


def _check_canonical(mode: str, origin: int) -> None:
    """The refusals every solve of a table makes first: an unknown mode, then
    a table whose entry at (0, ..., 0) is ``origin`` != 0."""
    _check_mode(mode)
    if origin:
        raise NonCanonical("phase table must have f(0, ..., 0) = 0")


class SolutionSet(_Value):
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

    __slots__ = ("d", "consistent", "particular", "count", "kernel", "_generators")
    _fields = ("d", "consistent", "particular", "count")
    d: int
    consistent: bool
    particular: tuple[int, ...] | None
    count: int
    kernel: Generators | Callable[[], Generators]

    def __init__(
        self,
        d: int,
        consistent: bool,
        particular: tuple[int, ...] | None,
        count: int,
        kernel: Generators | Callable[[], Generators] = (),
    ):
        if consistent != (particular is not None) or consistent != (count >= 1):
            raise ValueError("inconsistent SolutionSet fields")
        self._set(d=d, consistent=consistent, particular=particular, count=count, kernel=kernel)

    @property
    def generators(self) -> Generators:
        """The generators, built on the first read and kept."""
        try:
            return self._generators
        except AttributeError:  # the slot is empty until the first read
            generators = self.kernel() if callable(self.kernel) else self.kernel
            self._set(_generators=generators)
            return generators

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


class _Unknowns:
    """The edges of a mode's unknowns, in ``counting.edge_tuples`` order,
    each built when it is read: unknown i is the edge whose exponent vector
    sits at the flat index ``columns[i]`` (base k, vertex 0 most
    significant) of W^{⊗n}. Iteration builds them all, through
    ``__getitem__``."""

    __slots__ = ("columns", "k", "n")

    def __init__(self, columns: list[int], k: int, n: int):
        self.columns, self.k, self.n = columns, k, n

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, i: int) -> MultiHyperedge:
        column, digits = self.columns[i], [0] * self.n
        for v in range(self.n - 1, -1, -1):
            column, digits[v] = divmod(column, self.k)
        vertices = tuple(v for v, s in enumerate(digits) if s)
        return MultiHyperedge(vertices, tuple(digits[v] for v in vertices))


class SolveOutcome(_Value):
    """Result of solving one canonical table.

    Solution vectors list the weights of ``variables`` in order. ``edge_map``
    is rebuilt from the particular solution when consistent, which the solve
    has checked through W. ``variables`` may be given as any sequence of
    edges: the edge maps read it by index, at the nonzero weights only, and
    it becomes a tuple on the first read of ``variables``.
    """

    __slots__ = ("mode", "_variables", "fingerprint", "solution", "edge_map")
    _fields = ("mode", "variables", "fingerprint", "solution", "edge_map")
    mode: str
    fingerprint: str
    solution: SolutionSet
    edge_map: WeightedEdgeMap | None

    def __init__(
        self,
        mode: str,
        variables: Sequence[MultiHyperedge],
        fingerprint: str,
        solution: SolutionSet,
        edge_map: WeightedEdgeMap | None,
    ):
        self._set(
            mode=mode,
            _variables=variables,
            fingerprint=fingerprint,
            solution=solution,
            edge_map=edge_map,
        )

    @property
    def variables(self) -> tuple[MultiHyperedge, ...]:
        """The edges of the unknowns, in solution-vector order."""
        if not isinstance(self._variables, tuple):
            self._set(_variables=tuple(self._variables))
        return self._variables

    def edge_maps(self, cap: int | None = None) -> list[WeightedEdgeMap]:
        """Every solution as an edge map, in lexicographic weight-vector order."""
        if self.edge_map is None:
            return []
        d, n = self.edge_map.d, self.edge_map.n
        return [
            _vector_to_map(d, n, self._variables, vec) for vec in self.solution.solutions(cap=cap)
        ]


def _vector_to_map(
    d: int, n: int, variables: Sequence[MultiHyperedge], vector: tuple[int, ...]
) -> WeightedEdgeMap:
    return WeightedEdgeMap(d, n, {variables[i]: w for i, w in enumerate(vector) if w % d})


def _generators(
    v: Sequence[Sequence[int]], free: list[tuple[int, int]], columns: list[int], n: int, d: int
) -> Generators:
    """For each (j, g) in ``free``: column j (a flat index, base k) of
    V^{⊗n} at the rows ``columns``, times d / g, of order g. Column j of
    V^{⊗n} is row j of (V^T)^{⊗n}, taken mod d for ``power_rows``."""
    size, transposed = len(v) ** n, [[a % d for a in column] for column in zip(*v)]
    values = lane_values(power_rows(transposed, [j for j, _ in free], n, d), d)
    return tuple(
        (tuple(values[start + i] * (d // g) % d for i in columns), g)
        for start, (_, g) in zip(range(0, len(values), size), free)
    )


class KroneckerSolver:
    """Solve (W ⊗ ... ⊗ W)·x = b (mod d), ``power`` factors, for any d >= 2.

    Unknowns and equations are digit tuples in flat order, first digit most
    significant. The base W (m x k, m >= k), built by ``base`` at most once,
    has a factor U·W·V = D mod d, with U (m x m) and V (k x k) invertible
    mod d and D the m x k matrix with ``diagonal`` on its diagonal. The
    mixed-product property gives U^{⊗n}·W^{⊗n}·V^{⊗n} = D^{⊗n}, whose only
    nonzero entries sit at (j, j) for tuples j with every digit below k,
    with value prod_v D[j_v], so only the first k rows of U are kept. A
    solve is n passes to form c_j on [k]^n, one division y_j = c_j / D_j
    (mod d) with exactly gcd(D_j, d) choices each, by the ``gcd`` and
    ``inverse`` lists of ``counting.divisor_rule``, and n passes back to
    x = V^{⊗n} y. The equations with a digit >= k demand c_j = 0, which,
    as U is invertible, holds iff W^{⊗n} x = b: n passes through W decide it.
    """

    def __init__(
        self,
        base: Callable[[], Sequence[Sequence[int]]],
        u: Sequence[Sequence[int]],
        diagonal: Sequence[int],
        v: Sequence[Sequence[int]],
        *,
        d: int,
        power: int,
    ):
        k, m = len(diagonal), len(u[0])
        # A pass takes any ints, so U and V are kept as given: reducing them
        # would cost about a second at d = 4000.
        self.u, self.v = u[:k], v
        shaped = all(len(row) == m for row in self.u) and all(len(row) == k for row in v)
        if not shaped or len(self.u) != k or len(v) != k or m < k:
            raise ValueError("need k rows of U (m x m), V k x k and k diagonal entries, m >= k")
        if power < 1 or d < 2:
            raise ValueError(f"need power >= 1 and d >= 2, got {power} and {d}")
        self.base, self.d, self.power, self.rows = base, d, power, m
        self.gcd, self.inverse = divisor_rule(diagonal, d, power)

    @cached_property
    def w(self) -> Sequence[Sequence[int]]:
        """W, built on the first right-hand side that passes the division."""
        return self.base()

    @cached_property
    def count(self) -> int:
        """Solutions of every consistent right-hand side: the kernel size,
        prod_j g_j. Computed on first use, as it can have millions of digits."""
        return kernel_size(self.gcd)

    def solve(self, rhs: Sequence[int], unknowns: Sequence[int]) -> SolutionSet:
        """The solutions of W^{⊗n} x = rhs, each vector listing x at the flat
        indices ``unknowns``, in that order. ``rhs`` is m^n values in [0, d).

        The set is the image of all solutions under that pick, and ``count``
        the number of solutions; they agree only when every unknown left out
        is 0 in every solution. The generators are built on their first read.
        """
        d, n = self.d, self.power
        if len(rhs) != self.rows**n:
            raise ValueError("rhs length mismatch")
        b = _pack(rhs, d)
        c = lane_values(kronecker_pass(self.u, b, n, d), d)
        if any(map(mod, c, self.gcd)):
            return _no_solution(d)
        y = [cj // g * inverse % (d // g) for cj, g, inverse in zip(c, self.gcd, self.inverse)]
        x = kronecker_pass(self.v, _pack(y, d), n, d)
        if kronecker_pass(self.w, x, n, d) != b:
            return _no_solution(d)
        values = lane_values(x, d)
        particular = tuple(values[i] for i in unknowns)
        free = [(j, g) for j, g in enumerate(self.gcd) if g > 1]
        generators = partial(_generators, self.v, free, unknowns, n, d)
        return SolutionSet(d, True, particular, self.count, generators)


def solve_phases(d: int, n: int, phases: Sequence[int], mode: str) -> SolveOutcome:
    """Decide reachability of a canonical table and count all weight solutions.

    ``phases`` is a table as ``graphs.phase_table`` returns it: d^n entries
    in [0, d). Raises SizeLimit, before anything is built, when the base
    factor U (k rows of d), the kernel generators (a column of V^{⊗n} per
    free unknown) or, past d = 256, where each is a Python multiply, the
    d^(n+1) products of a pass would reach the table limit; each depends
    on (d, mode, n) alone.
    """
    _check_canonical(mode, phases[0])
    diagonal = _factorial_diagonal(d, mode)
    k = len(diagonal)
    check_entries("base factor U", k, d, 1)  # smith_factor's own rule, made first
    # y_j is free (g_j > 1) unless every D[j_v] is a unit mod d: the rule at
    # n = 1 gives the units, before any list of k^n divisors exists.
    units = divisor_rule(diagonal, d, 1)[0].count(1)
    check_entries("kernel generators", k**n - units**n, k, n)
    if d > 256:
        check_entries("solve pass products", 1, d, n + 1)
    u, _, v = smith_factor(d, mode)
    columns = _columns(d, n, mode)
    variables = _Unknowns(columns, k, n)
    fingerprint = _fingerprint(d, n, mode)
    # The constant m_0 at column 0, left out, is pinned to f(0) = 0.
    solver = KroneckerSolver(partial(_digit_power_rows, d, mode), u, diagonal, v, d=d, power=n)
    solution = solver.solve(phases, columns)
    edge_map = _vector_to_map(d, n, variables, solution.particular) if solution.consistent else None
    return SolveOutcome(mode, variables, fingerprint, solution, edge_map)
