"""Independent oracles shared across the test suite.

Everything here recomputes results by brute force or by explicit dense
matrices, deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from quditgraphs import MultiHyperedge, WeightedEdgeMap, enumerate_multihyperedges


def index_of(digits, d):
    """Flat index of a digit tuple, i_0 most significant."""
    idx = 0
    for digit in digits:
        idx = idx * d + digit
    return idx


def digits_of(index, d, n):
    """The n digits base d of a flat index, i_0 most significant."""
    digits = []
    for _ in range(n):
        index, r = divmod(index, d)
        digits.append(r)
    return tuple(reversed(digits))


def brute_force_solutions(rows, rhs, d):
    """All x in Z_d^n with A x = b (mod d), by full enumeration."""
    n = len(rows[0]) if rows else 0
    out = []
    for x in product(range(d), repeat=n):
        if all(
            sum(a * v for a, v in zip(row, x)) % d == b % d
            for row, b in zip(rows, rhs)
        ):
            out.append(x)
    return out


def lowering_shift(d):
    """Single-qudit shift with X|j> = |j-1 mod d>."""
    mat = np.zeros((d, d), dtype=complex)
    for j in range(d):
        mat[(j - 1) % d, j] = 1.0
    return mat


def site_operator(op, k, d, n):
    """op acting on qudit k (qudit 0 most significant), identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, op if j == k else np.eye(d, dtype=complex))
    return out


def edge_gate_matrix(d, n, edge, power=1):
    """Explicit d^n x d^n diagonal matrix of the edge's controlled phase gate."""
    omega = np.exp(2j * np.pi / d)
    diag = []
    for index in product(range(d), repeat=n):
        phase = 1
        for v, s in zip(edge.vertices, edge.exponents):
            phase = phase * pow(index[v], s, d) % d
        diag.append(omega ** (power * phase))
    return np.diag(np.array(diag, dtype=complex))


def dense_simulate(edge_map: WeightedEdgeMap) -> np.ndarray:
    """Apply every edge gate as an explicit matrix to the uniform vector."""
    d, n = edge_map.d, edge_map.n
    vec = np.full(d**n, d ** (-n / 2), dtype=complex)
    for edge, weight in edge_map.items():
        vec = edge_gate_matrix(d, n, edge, weight) @ vec
    return vec


def random_edge_map(rng: random.Random, d: int, n: int) -> WeightedEdgeMap:
    """Random weights on a random subset of the multihyperedges of (d, n)."""
    pool = enumerate_multihyperedges(n, d)
    chosen = rng.sample(pool, rng.randint(0, len(pool)))
    return WeightedEdgeMap(d, n, {e: rng.randrange(d) for e in chosen})


def many_row_map(d: int, n: int) -> WeightedEdgeMap:
    """A map whose supports carry the power rows i^s of every s in 1..d-1 on
    one vertex, all at weight d - 1: the edges (s, 1) on (0, 1), at n = 3
    also (1, s, 1) on (0, 1, 2), and an edge on each vertex alone."""
    weights = {MultiHyperedge((v,), (2 if v else 1,)): d - 1 for v in range(n)}
    for s in range(1, d):
        weights[MultiHyperedge((0, 1), (s, 1))] = d - 1
        if n == 3:
            weights[MultiHyperedge((0, 1, 2), (1, s, 1))] = d - 1
    return WeightedEdgeMap(d, n, weights)


def random_matrix_rows(rng: random.Random, rows: int, cols: int, d: int):
    return [[rng.randrange(d) for _ in range(cols)] for _ in range(rows)]


def phase_table_of_map(edge_map: WeightedEdgeMap) -> list[int]:
    """Recompute the phase table entry by entry, without the states module."""
    d, n = edge_map.d, edge_map.n
    table = []
    for index in product(range(d), repeat=n):
        total = 0
        for edge, weight in edge_map.items():
            term = weight
            for v, s in zip(edge.vertices, edge.exponents):
                term = term * pow(index[v], s, d) % d
            total += term
        table.append(total % d)
    return table
