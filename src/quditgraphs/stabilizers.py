"""Stabilizer generators of weighted edge-map states, and their verification.

The generator for vertex k is the shift on k followed (in operator order:
preceded in application order) by one diagonal correction per edge containing
k. Conjugating a single edge gate CZ_e^m by the shift gives the diagonal

    T_e(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

so g_k = X_k * prod_{e: k in e} diag(omega^{T_e}) fixes the state exactly, for
every edge map; ``apply_generator(state, edge_map, k)`` applies it and
``verify`` checks it at every vertex. When s_k = 1 the correction collapses to
the deleted-edge gate on e minus {k} raised to m*(d-1); for s_k >= 2 it does
only in some cases.

The correction is a product of the per-vertex lookup lists of
``diagonals`` (``shift_row`` and ``power_row``), which
``correction_exponents`` and ``apply_generator`` lay along the axes of a
numpy grid. ``conjugation_report``, the one judge of whether the
deleted-edge form is exact, lives in the numpy-free ``diagonals`` and
multiplies the same lists out as Python lists; its ``printed_diagonal`` is
the deleted-edge form's table. It is re-exported here.

Shift convention: X_k lowers the ket, X_k|i_k> = |i_k - 1 mod d>, which in
phase-table form reads f'(i) = f(..., i_k + 1, ...). This is the convention
under which the deleted-edge power m*(d-1) is exact for s_k = 1.
"""

from __future__ import annotations

import numpy as np

from .diagonals import (  # noqa: F401 (the report and VertexOutOfRange are re-exported)
    ConjugationReport,
    VertexOutOfRange,
    check_vertex,
    conjugation_report,
    shift_row,
    split_target,
)
from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .states import (
    PhaseFunction,
    _add_edge_grids,
    _grid,
    _on_axis,
    build_state,
    monomial_grid,
)


def apply_shift(state: PhaseFunction, k: int) -> PhaseFunction:
    """Shift vertex k down one level: new f(i) = f(..., i_k + 1 mod d, ...)."""
    check_vertex(k, state.n)
    return PhaseFunction(state.d, state.n, np.roll(_grid(state), -1, axis=k).reshape(-1))


def _correction_grid(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """``correction_exponents`` as a grid that broadcasts to (d,)*n."""
    s_k, reduced = split_target(edge, k)
    grid = _on_axis(np.array(shift_row(power, s_k, d), dtype=np.int64), k, n)
    if reduced is not None:
        grid = grid * monomial_grid(d, n, reduced) % d
    return grid


def correction_exponents(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """Exact diagonal exponent table of CZ_e^m X_k CZ_e^{d-m} with the leading
    shift factored off: m * ((i_k-1)^{s_k} - i_k^{s_k}) * prod_{v != k} i_v^{s_v},
    as a fresh flat table of d^n entries."""
    grid = _correction_grid(edge, power, k, d, n)
    return np.array(np.broadcast_to(grid, (d,) * n), order="C").reshape(-1)


def apply_generator(state: PhaseFunction, edge_map: WeightedEdgeMap, k: int) -> PhaseFunction:
    """Apply the map's generator g_k: the exact correction of every edge
    containing k first (edges without k drop out), then the shift on k."""
    d, n = edge_map.d, edge_map.n
    if (state.d, state.n) != (d, n):
        raise ValueError("state and edge map dimensions differ")
    check_vertex(k, n)
    grid = _grid(state).copy()
    _add_edge_grids(
        grid,
        (
            (edge.vertices, _correction_grid(edge, weight, k, d, n))
            for edge, weight in edge_map.items()
            if k in edge.vertices
        ),
    )
    grid %= d
    return apply_shift(PhaseFunction(d, n, grid.reshape(-1)), k)


class VertexCheck(_Value):
    __slots__ = _fields = ("vertex", "stabilized", "mismatch_indices")
    vertex: int
    stabilized: bool
    mismatch_indices: tuple[int, ...]

    def __init__(self, vertex: int, stabilized: bool, mismatch_indices: tuple[int, ...]):
        self._set(vertex=vertex, stabilized=stabilized, mismatch_indices=mismatch_indices)


def verify(edge_map: WeightedEdgeMap) -> list[VertexCheck]:
    """Check g_k|G> = |G> for every vertex k, by exact phase-table equality."""
    state = build_state(edge_map)
    results = []
    for k in range(edge_map.n):
        moved = apply_generator(state, edge_map, k)
        diff = np.nonzero(moved.table != state.table)[0]
        results.append(VertexCheck(k, diff.size == 0, tuple(diff.tolist())))
    return results
