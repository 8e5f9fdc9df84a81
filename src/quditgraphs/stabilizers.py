"""Stabilizer generators of weighted edge-map states, and their verification.

The generator for vertex k is the shift on k followed (in operator order:
preceded in application order) by one diagonal correction per edge containing
k. Conjugating a single edge gate CZ_e^m by the shift gives the diagonal

    T_e(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

so g_k = X_k * prod_{e: k in e} diag(omega^{T_e}) fixes the state exactly, for
every edge map. When s_k = 1 the correction collapses to the deleted-edge gate
on e minus {k} raised to m*(d-1); for s_k >= 2 it generally does not, and
``conjugation_report`` measures that gap case by case.

Shift convention: X_k lowers the ket, X_k|i_k> = |i_k - 1 mod d>, which in
phase-table form reads f'(i) = f(..., i_k + 1, ...). This is the convention
under which the deleted-edge power m*(d-1) is exact for s_k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import MultiHyperedge, WeightedEdgeMap
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

    Exact when s_k = 1; for s_k >= 2 compare against ``correction_exponents``.
    """
    if k not in edge.vertices:
        raise ValueError(f"vertex {k} not in edge {edge}")
    coeff = np.int64(power * (d - 1) % d)
    reduced = edge.without_vertex(k)
    grid = coeff if reduced is None else coeff * monomial_grid(d, n, reduced) % d
    return _flat(grid, d, n)


@dataclass(frozen=True)
class GeneratorTerm:
    """One trailing diagonal of a generator, from one edge containing k.

    ``reduced_edge``/``reduced_power`` give the deleted-edge form (None for a
    single-vertex edge, whose residue is a bare diagonal); ``deleted_edge_exact``
    says whether that form equals the exact correction (always true for
    exponent 1 on the target vertex).
    """

    edge: MultiHyperedge
    weight: int
    target_exponent: int
    reduced_edge: MultiHyperedge | None
    reduced_power: int
    deleted_edge_exact: bool


@dataclass(frozen=True)
class GeneratorSpec:
    """Leading shift on ``vertex`` plus one diagonal term per incident edge."""

    d: int
    n: int
    vertex: int
    terms: tuple[GeneratorTerm, ...]


def generator(edge_map: WeightedEdgeMap, k: int) -> GeneratorSpec:
    """Stabilizer generator spec for vertex k: edges not containing k drop out."""
    if not 0 <= k < edge_map.n:
        raise VertexOutOfRange(f"vertex {k} out of range [0, {edge_map.n})")
    d = edge_map.d
    terms = []
    for edge, weight in edge_map.items():
        if k not in edge.vertices:
            continue
        s_k = edge.exponents[edge.vertices.index(k)]
        terms.append(
            GeneratorTerm(
                edge=edge,
                weight=weight,
                target_exponent=s_k,
                reduced_edge=edge.without_vertex(k),
                reduced_power=weight * (d - 1) % d,
                deleted_edge_exact=s_k == 1,
            )
        )
    return GeneratorSpec(d, edge_map.n, k, tuple(terms))


def apply_generator(state: PhaseFunction, spec: GeneratorSpec) -> PhaseFunction:
    """Apply g_k: trailing diagonals first (exact corrections), then the shift."""
    if (state.d, state.n) != (spec.d, spec.n):
        raise ValueError("state and generator dimensions differ")
    grid = _grid(state).copy()
    for term in spec.terms:
        grid += _correction_grid(term.edge, term.weight, spec.vertex, spec.d, spec.n)
    grid %= spec.d
    return apply_shift(PhaseFunction(spec.d, spec.n, grid.reshape(-1)), spec.vertex)


@dataclass(frozen=True)
class VertexCheck:
    vertex: int
    stabilized: bool
    mismatch_indices: tuple[int, ...]


def verify(edge_map: WeightedEdgeMap) -> list[VertexCheck]:
    """Check g_k|G> = |G> for every vertex k, by exact phase-table equality."""
    state = build_state(edge_map)
    results = []
    for k in range(edge_map.n):
        moved = apply_generator(state, generator(edge_map, k))
        diff = np.nonzero(moved.table != state.table)[0]
        results.append(VertexCheck(k, diff.size == 0, tuple(diff.tolist())))
    return results


@dataclass(frozen=True)
class ConjugationReport:
    """Comparison of CZ_e^m X_k CZ_e^{d-m} against X_k CZ_{e\\{k}}^{m(d-1)}.

    Both sides are the shift composed with a diagonal, so operator equality
    reduces to equality of the two exponent tables over all d^n basis states.
    """

    edge: MultiHyperedge
    power: int
    vertex: int
    target_exponent: int
    holds: bool
    exact_diagonal: tuple[int, ...]
    printed_diagonal: tuple[int, ...]
    mismatch_indices: tuple[int, ...]


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


def conjugation_identity(edge: MultiHyperedge, power: int, k: int, d: int, n: int) -> bool:
    """True iff the deleted-edge form of the conjugated gate is exact, i.e.
    CZ_e^m X_k CZ_e^{d-m} = X_k CZ_{e\\{k}}^{m(d-1)} as operators on d^n states."""
    return conjugation_report(edge, power, k, d, n).holds
