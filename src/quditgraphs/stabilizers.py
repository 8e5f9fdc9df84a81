"""Stabilizer generators of weighted edge-map states, and their verification.

The generator for vertex k is the shift on k followed (in operator order:
preceded in application order) by one diagonal correction per edge containing
k. Conjugating a single edge gate CZ_e^m by the shift gives the diagonal

    T_e(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

so g_k = X_k * prod_{e: k in e} diag(omega^{T_e}) fixes the state exactly, for
every edge map; ``apply_generator(state, edge_map, k)`` applies it and
``verify`` checks it at every vertex. When s_k = 1 the correction collapses to
the deleted-edge gate on e minus {k} raised to m*(d-1); for s_k >= 2 it does
only in some cases. ``printed_exponents`` is the one place that form is
computed, and ``conjugation_report`` the one judge of whether it is exact.

Shift convention: X_k lowers the ket, X_k|i_k> = |i_k - 1 mod d>, which in
phase-table form reads f'(i) = f(..., i_k + 1, ...). This is the convention
under which the deleted-edge power m*(d-1) is exact for s_k = 1.
"""

from __future__ import annotations

import numpy as np

from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .states import (
    PhaseFunction,
    VertexOutOfRange,
    _flat,
    _grid,
    _on_axis,
    build_state,
    monomial_grid,
)


def apply_shift(state: PhaseFunction, k: int) -> PhaseFunction:
    """Shift vertex k down one level: new f(i) = f(..., i_k + 1 mod d, ...)."""
    if not 0 <= k < state.n:
        raise VertexOutOfRange(f"vertex {k} out of range [0, {state.n})")
    return PhaseFunction(state.d, state.n, np.roll(_grid(state), -1, axis=k).reshape(-1))


def _correction_grid(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """``correction_exponents`` as a grid that broadcasts to (d,)*n."""
    if k not in edge.vertices:
        raise ValueError(f"vertex {k} not in edge {edge}")
    s_k = edge.exponents[edge.vertices.index(k)]
    delta = np.array(
        [(power % d) * (pow((i - 1) % d, s_k, d) - pow(i, s_k, d)) % d for i in range(d)],
        dtype=np.int64,
    )
    grid = _on_axis(delta, k, n)
    reduced = edge.without_vertex(k)
    if reduced is not None:
        grid = grid * monomial_grid(d, n, reduced) % d
    return grid


def correction_exponents(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """Exact diagonal exponent table of CZ_e^m X_k CZ_e^{d-m} with the leading
    shift factored off: m * ((i_k-1)^{s_k} - i_k^{s_k}) * prod_{v != k} i_v^{s_v}."""
    return _flat(_correction_grid(edge, power, k, d, n), d, n)


def printed_exponents(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """Deleted-edge form of the same diagonal: m*(d-1) * prod_{v != k} i_v^{s_v}.

    Exact when s_k = 1; for s_k >= 2 ``conjugation_report`` says whether it is.
    """
    if k not in edge.vertices:
        raise ValueError(f"vertex {k} not in edge {edge}")
    coeff = np.int64(power * (d - 1) % d)
    reduced = edge.without_vertex(k)
    grid = coeff if reduced is None else coeff * monomial_grid(d, n, reduced) % d
    return _flat(grid, d, n)


def apply_generator(state: PhaseFunction, edge_map: WeightedEdgeMap, k: int) -> PhaseFunction:
    """Apply the map's generator g_k: the exact correction of every edge
    containing k first (edges without k drop out), then the shift on k."""
    d, n = edge_map.d, edge_map.n
    if (state.d, state.n) != (d, n):
        raise ValueError("state and edge map dimensions differ")
    if not 0 <= k < n:
        raise VertexOutOfRange(f"vertex {k} out of range [0, {n})")
    grid = _grid(state).copy()
    for edge, weight in edge_map.items():
        if k in edge.vertices:
            grid += _correction_grid(edge, weight, k, d, n)
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


class ConjugationReport(_Value):
    """Comparison of CZ_e^m X_k CZ_e^{d-m} against X_k CZ_{e\\{k}}^{m(d-1)}.

    Both sides are the shift composed with a diagonal, so operator equality
    reduces to equality of the two exponent tables over all d^n basis states.
    """

    __slots__ = _fields = (
        "edge",
        "power",
        "vertex",
        "target_exponent",
        "holds",
        "exact_diagonal",
        "printed_diagonal",
        "mismatch_indices",
    )
    edge: MultiHyperedge
    power: int
    vertex: int
    target_exponent: int
    holds: bool
    exact_diagonal: tuple[int, ...]
    printed_diagonal: tuple[int, ...]
    mismatch_indices: tuple[int, ...]

    def __init__(
        self,
        edge: MultiHyperedge,
        power: int,
        vertex: int,
        target_exponent: int,
        holds: bool,
        exact_diagonal: tuple[int, ...],
        printed_diagonal: tuple[int, ...],
        mismatch_indices: tuple[int, ...],
    ):
        self._set(
            edge=edge,
            power=power,
            vertex=vertex,
            target_exponent=target_exponent,
            holds=holds,
            exact_diagonal=exact_diagonal,
            printed_diagonal=printed_diagonal,
            mismatch_indices=mismatch_indices,
        )


def conjugation_report(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> ConjugationReport:
    exact = correction_exponents(edge, power, k, d, n)
    printed = printed_exponents(edge, power, k, d, n)
    diff = np.nonzero(exact != printed)[0]
    return ConjugationReport(
        edge=edge,
        power=power % d,
        vertex=k,
        target_exponent=edge.exponents[edge.vertices.index(k)],
        holds=diff.size == 0,
        exact_diagonal=tuple(exact.tolist()),
        printed_diagonal=tuple(printed.tolist()),
        mismatch_indices=tuple(diff.tolist()),
    )

