"""Exact arithmetic over Z_d and Kronecker-power solves.

Systems whose matrix is a Kronecker power W ⊗ ... ⊗ W of a small base go
through ``KroneckerSolver``. It takes a factor U·W·V = D of the base mod d,
with U and V invertible and D diagonal, factors nothing itself, and works on
numpy tensors with entries reduced mod d. Solution counts are exact for any
modulus. The kernel size of such a power needs neither a right-hand side nor
numpy: ``kernel_size`` reads it off the diagonal of D.

Only ``KroneckerSolver`` uses numpy, and it imports numpy when it runs, so
this module, the size limits and ``kernel_size`` load without it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Sequence

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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


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
        import numpy as np

        self.u, self.v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        self.u %= d
        self.v %= d
        m, k = len(self.u), len(diagonal)
        if self.u.shape != (m, m) or self.v.shape != (k, k) or m < k:
            raise ValueError("need U m x m, V k x k and k diagonal entries, with m >= k")
        if power < 1:
            raise ValueError("power must be >= 1")
        self.modulus = Modulus(d)
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

        d = self.d
        gcd = self.gcd.reshape(-1)
        free = np.flatnonzero(gcd > 1)
        columns = _power_rows(self.v.T, free, self.power, d) * (d // gcd[free])[:, None] % d
        return tuple(zip(map(tuple, columns.tolist()), gcd[free].tolist()))


def _power_rows(matrix: np.ndarray, picked: np.ndarray, power: int, d: int) -> np.ndarray:
    """Rows ``picked`` (flat digit-tuple indices) of matrix^{⊗power} mod d,
    one Kronecker factor at a time, without building the power."""
    import numpy as np

    rows = np.ones((len(picked), 1), dtype=np.int64)
    for digit in np.unravel_index(picked, (len(matrix),) * power):
        factor = matrix[digit]  # row f holds row digit[f] of matrix
        outer = rows[:, :, None] * factor[:, None, :]
        rows = outer.reshape(len(picked), rows.shape[1] * factor.shape[1]) % d
    return rows
