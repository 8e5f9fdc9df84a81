"""Exact arithmetic and linear algebra over Z_d and over GF(q) for prime q.

Results are exact for any modulus. Dense systems A·x = b (mod d) are solved
on plain Python integers two ways:

* prime modulus: Gaussian elimination over the field (``PrimeSolver``),
* any modulus: Smith normal form of the integer lift of A with explicit
  unimodular transforms (``SmithSolver``), which also yields the exact
  solution count.

Both solvers factor the matrix once and can then answer many right-hand
sides. Systems whose matrix is a Kronecker power W ⊗ ... ⊗ W of a small base
go through ``KroneckerSolver``, which factors only W and works on numpy
tensors with entries reduced mod d. The kernel size of such a power needs
neither a right-hand side nor numpy: ``kernel_size`` reads it off the
diagonal of the base's Smith form.

Only ``KroneckerSolver`` uses numpy, and it imports numpy when it runs, so
this module, the size limits and ``kernel_size`` load without it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


class NonPrimeModulus(ValueError):
    """A field-only routine was called with a composite modulus."""


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 by trial division, as (prime, exponent) pairs."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


DEFAULT_TABLE_LIMIT = 2**24


class SizeLimit(ValueError):
    """Table would meet or exceed the configured entry limit."""


def power_at_least(base: int, exponent: int, bound: int) -> bool:
    """Whether base**exponent >= bound, for base >= 2 and exponent >= 0.

    Multiplies with an early exit, so a huge exponent costs at most about
    log2(bound) steps and the power itself is never built.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    value = 1
    for _ in range(exponent):
        if value >= bound:
            return True
        value *= base
    return value >= bound


def kernel_size(diagonal: Sequence[int], d: int, n: int) -> int:
    """Size of the kernel of D^{⊗n} over Z_d for D = diag(diagonal).

    That is the product of gcd(prod_v D[j_v], d) over the k^n tuples j of
    diagonal positions. The tuples are never listed: n convolution steps
    count them by that gcd alone, since gcd(ab, d) = gcd(gcd(a, d)·gcd(b, d), d),
    so each step costs at most (#divisors of d)^2.
    """
    base = Counter(math.gcd(x, d) for x in diagonal)
    tally = Counter({1: 1})
    for _ in range(n):
        step: Counter = Counter()
        for g, count in tally.items():
            for h, multiplicity in base.items():
                step[math.gcd(g * h, d)] += count * multiplicity
        tally = step
    return math.prod(g**count for g, count in tally.items())


@dataclass(frozen=True)
class Modulus:
    """A ring modulus d >= 2 with its factorization computed up front."""

    d: int
    factorization: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"modulus must be >= 2, got {self.d}")
        object.__setattr__(self, "factorization", factorize(self.d))

    @property
    def is_prime(self) -> bool:
        (_, e), *rest = self.factorization
        return not rest and e == 1


@dataclass(frozen=True)
class RingMatrix:
    """Dense matrix over Z_d, entries stored row-major and reduced mod d."""

    rows: int
    cols: int
    entries: tuple[int, ...]
    modulus: Modulus

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        d = self.modulus.d
        if any(not 0 <= x < d for x in self.entries):
            raise ValueError("entries not reduced mod d")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], d: int) -> "RingMatrix":
        modulus = Modulus(d)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = tuple(x % d for row in rows for x in row)
        return cls(nrows, ncols, flat, modulus)

    @classmethod
    def identity(cls, n: int, d: int) -> "RingMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], d)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul_vector(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        d = self.modulus.d
        return tuple(
            sum(a * v for a, v in zip(self.row(i), x)) % d for i in range(self.rows)
        )


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of one linear system over Z_d.

    ``generators`` describes the solution affine sublattice: each entry is a
    (direction, order) pair, and the full set is
    ``particular + sum_j c_j * direction_j (mod d)`` for c_j in range(order_j).
    The directions are independent mod d, so ``count`` equals the product of
    the orders.
    """

    modulus: Modulus
    consistent: bool
    particular: tuple[int, ...] | None
    count: int
    generators: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self) -> None:
        if self.consistent != (self.particular is not None) or self.consistent != (self.count >= 1):
            raise ValueError("inconsistent SolutionSet fields")

    def solutions(self, cap: int | None = None) -> list[tuple[int, ...]]:
        """Enumerate every solution, sorted lexicographically.

        Raises ValueError when the exact count exceeds ``cap``.
        """
        if not self.consistent:
            return []
        if cap is not None and self.count > cap:
            raise ValueError(f"solution count {self.count} exceeds cap {cap}")
        d = self.modulus.d
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


def _no_solution(modulus: Modulus) -> SolutionSet:
    return SolutionSet(modulus, False, None, 0, ())


class PrimeSolver:
    """Row-reduce a matrix over GF(q) once, then solve many right-hand sides."""

    def __init__(self, matrix: RingMatrix):
        if not matrix.modulus.is_prime:
            raise NonPrimeModulus(f"modulus {matrix.modulus.d} is not prime")
        self.matrix = matrix
        self.q = matrix.modulus.d
        q = self.q
        m, n = matrix.rows, matrix.cols
        a = matrix.row_lists()
        # Carry the identity along so that u @ A = reduced form.
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        pivots: list[int] = []
        r = 0
        for col in range(n):
            pivot_row = next((i for i in range(r, m) if a[i][col] % q), None)
            if pivot_row is None:
                continue
            a[r], a[pivot_row] = a[pivot_row], a[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
            inv = pow(a[r][col], -1, q)
            a[r] = [x * inv % q for x in a[r]]
            u[r] = [x * inv % q for x in u[r]]
            for i in range(m):
                if i != r and a[i][col]:
                    factor = a[i][col]
                    a[i] = [(x - factor * p) % q for x, p in zip(a[i], a[r])]
                    u[i] = [(x - factor * p) % q for x, p in zip(u[i], u[r])]
            pivots.append(col)
            r += 1
            if r == m:
                break
        self.reduced = a
        self.transform = u
        self.pivots = pivots
        self.rank = len(pivots)
        self.free_cols = [j for j in range(n) if j not in set(pivots)]

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of {x : A x = 0}, one vector per free column."""
        q, n = self.q, self.matrix.cols
        basis = []
        for j in self.free_cols:
            vec = [0] * n
            vec[j] = 1
            for r, p in enumerate(self.pivots):
                vec[p] = -self.reduced[r][j] % q
            basis.append(tuple(vec))
        return basis

    def left_nullspace(self) -> list[tuple[int, ...]]:
        """Canonical basis of {y : y^T A = 0}, each vector with leading entry 1."""
        rows = [tuple(self.transform[i]) for i in range(self.rank, self.matrix.rows)]
        return _row_space_basis(rows, self.q)

    def solve(self, rhs: Sequence[int]) -> SolutionSet:
        q = self.q
        m, n = self.matrix.rows, self.matrix.cols
        if len(rhs) != m:
            raise ValueError("rhs length mismatch")
        c = [sum(u_ij * b for u_ij, b in zip(self.transform[i], rhs)) % q for i in range(m)]
        modulus = self.matrix.modulus
        if any(c[i] for i in range(self.rank, m)):
            return _no_solution(modulus)
        x = [0] * n
        for r, p in enumerate(self.pivots):
            x[p] = c[r]
        generators = tuple((vec, q) for vec in self.kernel_basis())
        return SolutionSet(modulus, True, tuple(x), q ** len(self.free_cols), generators)


def _row_space_basis(rows: Iterable[tuple[int, ...]], q: int) -> list[tuple[int, ...]]:
    """Reduced row-echelon basis of the span of ``rows`` over GF(q)."""
    work = [list(r) for r in rows]
    if not work:
        return []
    n = len(work[0])
    basis: list[list[int]] = []
    for row in work:
        for b in basis:
            lead = next(j for j, x in enumerate(b) if x)
            if row[lead]:
                f = row[lead]
                row[:] = [(x - f * y) % q for x, y in zip(row, b)]
        if any(row):
            lead = next(j for j, x in enumerate(row) if x)
            inv = pow(row[lead], -1, q)
            basis.append([x * inv % q for x in row])
            basis.sort(key=lambda b: next(j for j, x in enumerate(b) if x))
    # Back-substitute to make the basis fully reduced.
    for i, b in enumerate(basis):
        for other in basis[:i]:
            lead = next(j for j, x in enumerate(b) if x)
            if other[lead]:
                f = other[lead]
                other[:] = [(x - f * y) % q for x, y in zip(other, b)]
    return [tuple(b) for b in basis]


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (D, U, V) with U·A·V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying the divisibility chain d1 | d2 | ...
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[int(x) for x in row] for row in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        while True:
            # Move the smallest nonzero entry of the trailing block to (t, t).
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            if a[t][t] < 0:
                negate_row(t)
            # Clear the rest of column t and row t.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    dirty = dirty or bool(a[i][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    dirty = dirty or bool(a[t][j])
            if dirty:
                continue
            # Enforce divisibility: the pivot must divide the whole block.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < min(m, n) and a[t][t] < 0:
            negate_row(t)
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return d, u, v


class SmithSolver:
    """Solve A·x = b (mod d) for arbitrary d via the Smith form of A's integer lift."""

    def __init__(self, matrix: RingMatrix):
        self.matrix = matrix
        self.d = matrix.modulus.d
        if matrix.rows == 0:
            dmat: list[list[int]] = []
            u: list[list[int]] = []
            v = [[1 if i == j else 0 for j in range(matrix.cols)] for i in range(matrix.cols)]
        else:
            dmat, u, v = smith_normal_form(matrix.row_lists())
        self.diag = [dmat[i][i] for i in range(min(matrix.rows, matrix.cols))]
        self.u = u
        self.v = v

    def solve(self, rhs: Sequence[int]) -> SolutionSet:
        d = self.d
        m, n = self.matrix.rows, self.matrix.cols
        if len(rhs) != m:
            raise ValueError("rhs length mismatch")
        modulus = self.matrix.modulus
        c = [sum(u_ij * b for u_ij, b in zip(self.u[i], rhs)) % d for i in range(m)]
        # Substituting x = V y turns A x = b into the diagonal system D y = U b.
        y = [0] * n
        generators: list[tuple[tuple[int, ...], int]] = []
        count = 1
        for i in range(n):
            di = self.diag[i] if i < len(self.diag) else 0
            g = math.gcd(di, d)
            if i < m or di:
                ci = c[i] if i < m else 0
                if g == d:
                    if ci % d:
                        return _no_solution(modulus)
                    y[i] = 0
                else:
                    if ci % g:
                        return _no_solution(modulus)
                    step = d // g
                    y[i] = (ci // g) * pow(di // g, -1, step) % step
                count *= g
                if g > 1:
                    generators.append((self._v_column(i, d // g), g))
            else:
                # Column with no diagonal constraint at all: fully free.
                count *= d
                generators.append((self._v_column(i, 1), d))
        # Rows beyond the diagonal demand c_i = 0 outright.
        for i in range(n, m):
            if c[i] % d:
                return _no_solution(modulus)
        x = tuple(
            sum(self.v[r][j] * y[j] for j in range(n)) % d for r in range(n)
        )
        return SolutionSet(modulus, True, x, count, tuple(generators))

    def _v_column(self, j: int, scale: int) -> tuple[int, ...]:
        d = self.d
        return tuple(self.v[r][j] * scale % d for r in range(len(self.v)))


def _apply_on_every_axis(matrix: np.ndarray, tensor: np.ndarray, d: int) -> np.ndarray:
    """(matrix ⊗ ... ⊗ matrix) applied mod d to a tensor, one factor per axis.

    Entries stay below d, so each dot product is below d^3: int64 holds it
    for every d whose d x d matrix fits in memory.
    """
    import numpy as np

    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [axis])) % d, 0, axis)
    return tensor


class KroneckerSolver:
    """Solve (W ⊗ ... ⊗ W)·x = b (mod d), ``power`` factors, for any d >= 2.

    Unknowns and equations are digit tuples in flat order, first digit most
    significant. Only the small base W (m x k, m >= k) is factored: with
    U·W·V = D its Smith form, the mixed-product property gives
    U^{⊗n}·W^{⊗n}·V^{⊗n} = D^{⊗n}, whose only nonzero entries sit at (j, j)
    for tuples j with every digit below k, with value prod_v D[j_v][j_v].
    So a solve is n tensor passes to form c = U^{⊗n} b, one elementwise
    division y_j = c_j / D_j (mod d) with exactly gcd(D_j, d) choices each,
    and n passes back to x = V^{⊗n} y. Equations j with a digit >= k have
    no diagonal entry and demand c_j = 0.
    """

    def __init__(self, base: RingMatrix, power: int):
        if base.rows < base.cols:
            raise ValueError("the base needs at least as many rows as columns")
        if power < 1:
            raise ValueError("power must be >= 1")
        import numpy as np

        d = base.modulus.d
        self.modulus = base.modulus
        self.d, self.power = d, power
        self.rows, self.cols = base.rows, base.cols
        dmat, u, v = smith_normal_form(base.row_lists())
        self.smith_diagonal = [dmat[j][j] for j in range(base.cols)]
        self.u = np.array([[x % d for x in row] for row in u], dtype=np.int64)
        self.v = np.array([[x % d for x in row] for row in v], dtype=np.int64)
        # diagonal[j] = prod_v D[j_v][j_v] mod d over the k^n column tuples.
        diag = np.array([x % d for x in self.smith_diagonal], dtype=np.int64)
        diagonal = diag
        for _ in range(power - 1):
            diagonal = np.multiply.outer(diagonal, diag) % d
        # Per residue a of the diagonal: g = gcd(a, d), and the inverse of
        # a / g modulo d / g that turns c = a·y into y = (c / g)·inverse.
        gcds = [math.gcd(a, d) for a in range(d)]
        inverses = [
            pow(a // g, -1, d // g) if g < d else 0 for a, g in zip(range(d), gcds)
        ]
        self.gcd = np.array(gcds, dtype=np.int64)[diagonal]
        self.inverse = np.array(inverses, dtype=np.int64)[diagonal]
        # c_j must be a multiple of divisor_j: g_j on the diagonal, and d
        # (so c_j = 0) on the equations without a diagonal entry.
        self.divisor = np.full((self.rows,) * power, d, dtype=np.int64)
        self.divisor[(slice(0, self.cols),) * power] = self.gcd

    @cached_property
    def count(self) -> int:
        """Solutions of every consistent right-hand side: the kernel size,
        prod_j g_j. Computed on first use, as it can have millions of digits."""
        return kernel_size(self.smith_diagonal, self.d, self.power)

    def solve(self, rhs: Sequence[int] | np.ndarray) -> SolutionSet:
        import numpy as np

        d, n, k = self.d, self.power, self.cols
        b = np.asarray(rhs, dtype=np.int64)
        if b.shape != (self.rows**n,):
            raise ValueError("rhs length mismatch")
        c = _apply_on_every_axis(self.u, b.reshape((self.rows,) * n) % d, d)
        if (c % self.divisor).any():
            return _no_solution(self.modulus)
        diagonal_part = c[(slice(0, k),) * n]
        y = (diagonal_part // self.gcd) * self.inverse % (d // self.gcd)
        x = _apply_on_every_axis(self.v, y, d).reshape(-1)
        return SolutionSet(self.modulus, True, tuple(x.tolist()), self.count, self._generators())

    def _generators(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Column j of V^{⊗n} scaled by d / g_j, of order g_j, for every g_j > 1."""
        import numpy as np

        d, k = self.d, self.cols
        gcd = self.gcd.reshape(-1)
        free = np.flatnonzero(gcd > 1)
        digits = np.unravel_index(free, (k,) * self.power)
        columns = np.ones((len(free), 1), dtype=np.int64)
        for digit in digits:
            factor = self.v.T[digit]  # row f holds column digit[f] of V
            outer = columns[:, :, None] * factor[:, None, :]
            columns = outer.reshape(len(free), columns.shape[1] * k) % d
        columns = columns * (d // gcd[free])[:, None] % d
        return tuple(zip(map(tuple, columns.tolist()), gcd[free].tolist()))
