"""Reference solvers for dense systems over Z_d, kept as test oracles.

The package solves every system through the Kronecker factor of its small
base, on byte lanes (``quditgraphs.newton.KroneckerSolver``). The dense
solvers here work on the whole matrix instead, on plain Python integers:

* prime modulus: Gaussian elimination over the field (``PrimeSolver``), with
  rank, kernel and a canonical left-nullspace basis;
* any modulus: the Smith normal form of the integer lift with explicit
  unimodular transforms (``smith_normal_form``, ``SmithSolver``), which also
  yields the exact solution count;
* the canonical system alone: ``full_grid_solve``, the decision on all d^n
  Newton coefficients, by numpy, that the round trip through W replaced.

They cost O(N^3) on an N-unknown system, so tests use them at desk sizes only.

``_build_parser`` is the argparse parser that the command line's table of
verbs (``quditgraphs.cli._parse``) replaced, kept as its oracle: the table
accepts what it accepts, with the same values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from quditgraphs import counting
from quditgraphs.cli import (
    _cmd_build_state,
    _cmd_census,
    _cmd_identity_check,
    _cmd_matrix,
    _cmd_solve,
    _cmd_verify_stabilizers,
)
from quditgraphs.counting import HYPERGRAPH, NonPrimeModulus, _columns, is_prime
from quditgraphs.newton import SolutionSet, _no_solution


def reduced_rows(rows, d: int) -> tuple[list[list[int]], int, int]:
    """A matrix given as nested sequences or a 2-D array: its entries reduced
    mod d as Python ints, and its shape (a 0 x n array keeps its n)."""
    shape = np.shape(rows)
    cols = shape[1] if len(shape) == 2 else 0
    return [[int(x) % d for x in row] for row in rows], len(rows), cols


def identity(n: int, d: int) -> list[list[int]]:
    """The n x n identity matrix over Z_d."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_factor_of(rows: Sequence[Sequence[int]], d: int):
    """(U, diagonal, V) with U·A·V = D from ``smith_normal_form`` of the
    integer matrix A, the transforms reduced mod d: the factor that
    ``KroneckerSolver`` takes, found by elimination rather than in closed form."""
    dmat, u, v = smith_normal_form(rows)
    diagonal = [dmat[j][j] for j in range(len(v))]
    return [[x % d for x in row] for row in u], diagonal, [[x % d for x in row] for row in v]


def mul_vector(rows, d: int, x: Sequence[int]) -> tuple[int, ...]:
    """rows · x reduced mod d."""
    a, m, n = reduced_rows(rows, d)
    if len(x) != n:
        raise ValueError("vector length mismatch")
    return tuple(sum(a_ij * v for a_ij, v in zip(a[i], x)) % d for i in range(m))


class PrimeSolver:
    """Row-reduce a matrix over GF(q) once, then solve many right-hand sides."""

    def __init__(self, rows, d: int):
        if not is_prime(d):
            raise NonPrimeModulus(f"modulus {d} is not prime")
        self.q = q = d
        a, m, n = reduced_rows(rows, d)
        self.rows, self.cols = m, n
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
        q, n = self.q, self.cols
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
        rows = [tuple(self.transform[i]) for i in range(self.rank, self.rows)]
        return _row_space_basis(rows, self.q)

    def solve(self, rhs: Sequence[int]) -> SolutionSet:
        q = self.q
        m, n = self.rows, self.cols
        if len(rhs) != m:
            raise ValueError("rhs length mismatch")
        c = [sum(u_ij * b for u_ij, b in zip(self.transform[i], rhs)) % q for i in range(m)]
        if any(c[i] for i in range(self.rank, m)):
            return _no_solution(q)
        x = [0] * n
        for r, p in enumerate(self.pivots):
            x[p] = c[r]
        generators = tuple((vec, q) for vec in self.kernel_basis())
        return SolutionSet(q, True, tuple(x), q ** len(self.free_cols), generators)


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

    def __init__(self, rows, d: int):
        self.d = d
        a, m, n = reduced_rows(rows, d)
        self.rows, self.cols = m, n
        if m == 0:
            dmat: list[list[int]] = []
            u: list[list[int]] = []
            v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            dmat, u, v = smith_normal_form(a)
        self.diag = [dmat[i][i] for i in range(min(m, n))]
        self.u = u
        self.v = v

    def solve(self, rhs: Sequence[int]) -> SolutionSet:
        d = self.d
        m, n = self.rows, self.cols
        if len(rhs) != m:
            raise ValueError("rhs length mismatch")
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
                        return _no_solution(d)
                    y[i] = 0
                else:
                    if ci % g:
                        return _no_solution(d)
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
                return _no_solution(d)
        x = tuple(
            sum(self.v[r][j] * y[j] for j in range(n)) % d for r in range(n)
        )
        return SolutionSet(d, True, x, count, tuple(generators))

    def _v_column(self, j: int, scale: int) -> tuple[int, ...]:
        d = self.d
        return tuple(self.v[r][j] * scale % d for r in range(len(self.v)))


def _axes_product(matrix: np.ndarray, table: np.ndarray, d: int) -> np.ndarray:
    """matrix^{⊗n}·table mod d, for a table of n axes: the matrix applied
    along every axis, each result axis kept in its place."""
    for axis in range(table.ndim):
        table = np.moveaxis(np.tensordot(matrix, table, axes=([1], [axis])) % d, 0, axis)
    return table


def full_grid_solve(d: int, n: int, phases: Sequence[int], mode: str):
    """The canonical system W^{⊗n} x = f at (d, n, mode), decided on all d^n
    Newton coefficients c = U^{⊗n} f, with Pascal's signed d x d matrix
    U[i][t] = (-1)^(i-t)·C(i, t) from ``math.comb``. f is reachable iff
    c_j = 0 wherever a digit of j is >= k, and g_j = gcd(prod_v j_v!, d)
    divides c_j on [k]^n; then y_j = (c_j / g_j)·(D_j / g_j)^{-1} mod d / g_j
    and x = V^{⊗n} y, for V[s][t] the coefficient of x^s in the falling
    factorial x(x-1)...(x-t+1). Returns (consistent, x at the mode's
    columns or None, prod_j g_j, the fingerprint of the name (d, n, mode))."""
    k = 2 if mode == HYPERGRAPH else d
    pascal = np.array(
        [[(-1) ** (i - t) * math.comb(i, t) % d for t in range(d)] for i in range(d)]
    )
    c = _axes_product(pascal, np.array(phases, dtype=np.int64).reshape((d,) * n), d)
    falling = [[1]]  # falling[t][s]: the coefficient of x^s in x(x-1)...(x-t+1)
    for t in range(1, k):
        low = falling[-1]
        falling.append([a - (t - 1) * b for a, b in zip([0] + low, low + [0])])
    v = np.array([[falling[t][s] % d if s <= t else 0 for t in range(k)] for s in range(k)])
    name = {"d": d, "mode": mode, "n": n, "version": 2}
    blob = json.dumps(name, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(blob.encode()).hexdigest()[:16]
    grid = (slice(0, k),) * n
    inside, outside = c[grid].copy(), c
    outside[grid] = 0
    if outside.any():
        return False, None, 0, fingerprint
    y, count = np.zeros((k,) * n, dtype=np.int64), 1
    for j in product(range(k), repeat=n):
        diagonal = math.prod(math.factorial(s) for s in j)
        g = math.gcd(diagonal, d)
        if inside[j] % g:
            return False, None, 0, fingerprint
        y[j] = inside[j] // g * pow(diagonal // g, -1, d // g) % (d // g)
        count *= g
    x = _axes_product(v, y, d).reshape(-1)
    return True, tuple(int(x[i]) for i in _columns(d, n, mode)), count, fingerprint


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditgraphs",
        description="Exact qudit (multi)hypergraph states, stabilizers, and weight solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-state", help="edge-map JSON -> phase-table JSON")
    src = build.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-map JSON file")
    src.add_argument("--stdin", action="store_true", help="read edge-map JSON from stdin")
    build.add_argument(
        "--dense", action="store_true", help="emit dense amplitudes (text) instead of JSON"
    )
    build.set_defaults(func=_cmd_build_state)

    solve = sub.add_parser("solve", help="phase-table JSON -> weight solution JSON")
    solve.add_argument("--phases", required=True, help="phase-table JSON file")
    solve.add_argument("--mode", required=True, choices=counting.MODES)
    solve.add_argument("--all-solutions", action="store_true")
    solve.add_argument("--solution-cap", type=_non_negative_int, default=1024)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify-stabilizers", help="check g_k|G> = |G> per vertex")
    vsrc = ver.add_mutually_exclusive_group(required=True)
    vsrc.add_argument("--graph", help="edge-map JSON file")
    vsrc.add_argument("--stdin", action="store_true")
    ver.set_defaults(func=_cmd_verify_stabilizers)

    cen = sub.add_parser("census", help="classify every canonical table at (d, n)")
    cen.add_argument("--d", type=int, required=True)
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--mode", required=True, choices=counting.MODES)
    cen.set_defaults(func=_cmd_census)

    idc = sub.add_parser(
        "identity-check",
        help="compare conjugated gates against their deleted-edge form",
    )
    idc.add_argument("--d", type=int, required=True)
    idc.add_argument("--n", type=int, required=True)
    idc.add_argument(
        "--exhaustive",
        action="store_true",
        help="check every multihyperedge (default: supports of size <= 2)",
    )
    idc.set_defaults(func=_cmd_identity_check)

    mat = sub.add_parser("matrix", help="emit the digit-power coefficient block")
    mat.add_argument("--d", type=int, required=True)
    mat.add_argument("--block", type=int, required=True, help="Kronecker power")
    mat.set_defaults(func=_cmd_matrix)

    return parser
