"""Reference solvers for dense systems over Z_d, kept as test oracles.

The package solves every system through the Kronecker factor of its small
base (``quditgraphs.residues.KroneckerSolver``). The dense solvers here work
on the whole matrix instead, on plain Python integers:

* prime modulus: Gaussian elimination over the field (``PrimeSolver``), with
  rank, kernel and a canonical left-nullspace basis;
* any modulus: the Smith normal form of the integer lift with explicit
  unimodular transforms (``smith_normal_form``, ``SmithSolver``), which also
  yields the exact solution count.

They cost O(N^3) on an N-unknown system, so tests use them at desk sizes only.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from quditgraphs.residues import (
    NonPrimeModulus,
    RingMatrix,
    SolutionSet,
    _no_solution,
)


def identity(n: int, d: int) -> RingMatrix:
    """The n x n identity matrix over Z_d."""
    return RingMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], d)


def smith_factor_of(rows: Sequence[Sequence[int]], d: int):
    """(U, diagonal, V) with U·A·V = D from ``smith_normal_form`` of the
    integer matrix A, the transforms reduced mod d: the factor that
    ``KroneckerSolver`` takes, found by elimination rather than in closed form."""
    dmat, u, v = smith_normal_form(rows)
    diagonal = [dmat[j][j] for j in range(len(v))]
    return [[x % d for x in row] for row in u], diagonal, [[x % d for x in row] for row in v]


def mul_vector(matrix: RingMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """matrix · x reduced mod d."""
    if len(x) != matrix.cols:
        raise ValueError("vector length mismatch")
    d = matrix.modulus.d
    return tuple(
        sum(a * v for a, v in zip(matrix.row(i), x)) % d for i in range(matrix.rows)
    )


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
