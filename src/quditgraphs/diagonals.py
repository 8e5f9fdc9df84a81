"""The diagonal exponent tables of edge gates as Python lists, without numpy.

Every diagonal the package builds is a product of per-vertex lookup lists
over Z_d, one factor per vertex, read at that vertex's digit:

- ``power_row(s, d)``: i^s mod d, a vertex of an edge with exponent s;
- ``shift_row(m, s, d)``: m * ((i - 1)^s - i^s) mod d, the change that
  conjugating CZ_e^m by the shift X_k makes on the target k;
- ``deleted_edge_coefficient(m, d)``: m * (d - 1) mod d, the constant that
  the deleted-edge form puts on k.

A vertex outside the edge contributes 1. So CZ_e^m X_k CZ_e^{d-m}, with its
leading shift factored off, is the diagonal

    T(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

and its deleted-edge form is m*(d-1) * prod_{v != k} i_v^{s_v}. ``states`` and
``stabilizers`` lay these lists along the axes of a (d,)*n numpy grid.
``conjugation_report`` multiplies them out as a Kronecker product of lists
(vertex 0 most significant, as in the flat tables), so the
``identity-check`` verb loads no numpy. It is the one judge of whether the
deleted-edge form is exact. ``edge_reports`` gives the reports of one edge
for every power and target, and builds the product over the other vertices
once per target.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import ne
from typing import Callable, Iterator

from .graphs import MultiHyperedge, _Value


class VertexOutOfRange(ValueError):
    """A gate referenced a vertex index >= n."""


def check_vertex(vertex: int, n: int) -> None:
    if not 0 <= vertex < n:
        raise VertexOutOfRange(f"vertex {vertex} out of range [0, {n})")


def check_edge(edge: MultiHyperedge, n: int) -> None:
    if edge.vertices[-1] >= n:
        raise VertexOutOfRange(f"edge {edge} references a vertex >= {n}")


def power_row(s: int, d: int) -> list[int]:
    """[i^s mod d for i in Z_d]."""
    return [pow(i, s, d) for i in range(d)]


def shift_row(power: int, s: int, d: int) -> list[int]:
    """[power * ((i - 1)^s - i^s) mod d for i in Z_d]."""
    return [(power % d) * (pow((i - 1) % d, s, d) - pow(i, s, d)) % d for i in range(d)]


def deleted_edge_coefficient(power: int, d: int) -> int:
    """power * (d - 1) mod d: the deleted edge's power in the printed form."""
    return power * (d - 1) % d


def split_target(edge: MultiHyperedge, k: int) -> tuple[int, MultiHyperedge | None]:
    """(s_k, the edge without k), or ValueError when k is not in the edge."""
    if k not in edge.vertices:
        raise ValueError(f"vertex {k} not in edge {edge}")
    return edge.exponents[edge.vertices.index(k)], edge.without_vertex(k)


def _product(rows: list[list[int]], d: int) -> list[int]:
    """The Kronecker product mod d of one lookup list per vertex, vertex 0
    most significant: entry i is prod_v rows[v][i_v] mod d. Each step joins,
    in C, the multiple of the next list by each entry so far."""
    # The empty product is [1 mod d], or [] when d = 0: a report then fails
    # on "% d" as the numpy tables did.
    table = [1 % d] if d else []
    for row in rows:
        multiples = [[x * y % d for y in row] for x in range(d)]
        table = list(chain.from_iterable(map(multiples.__getitem__, table)))
    return table


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


def _reporter(
    edge: MultiHyperedge, k: int, d: int, n: int
) -> Callable[[int], ConjugationReport]:
    """The report of (edge, power, k) as a function of the power.

    Both diagonals are linear in the power m: the exact one is m times the
    product with ``shift_row(1, s_k, d)`` on k, and the printed one is
    m*(d-1) times the product over the other vertices. Those two products
    are built once; a power then costs one lookup per entry of each."""
    s_k, reduced = split_target(edge, k)
    check_vertex(k, n)
    if reduced is not None:
        check_edge(reduced, n)
    if d < 0:  # as numpy refuses the table's shape (d,)*n
        raise ValueError("all elements of broadcast shape must be non-negative")
    rows = [[1] * d] * n
    for v, s in zip(edge.vertices, edge.exponents):
        if v != k:
            rows[v] = power_row(s, d)
    others = _product(rows, d)
    rows[k] = shift_row(1, s_k, d)
    unit_exact = _product(rows, d)

    def report(power: int) -> ConjugationReport:
        m, c = power % d, deleted_edge_coefficient(power, d)
        times_m = [m * x % d for x in range(d)]
        times_c = [c * x % d for x in range(d)]
        exact = [times_m[x] for x in unit_exact]
        printed = [times_c[x] for x in others]
        holds = exact == printed
        return ConjugationReport(
            edge=edge,
            power=m,
            vertex=k,
            target_exponent=s_k,
            holds=holds,
            exact_diagonal=tuple(exact),
            printed_diagonal=tuple(printed),
            mismatch_indices=() if holds else tuple(compress(count(), map(ne, exact, printed))),
        )

    return report


def conjugation_report(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> ConjugationReport:
    return _reporter(edge, k, d, n)(power)


def edge_reports(edge: MultiHyperedge, d: int, n: int) -> Iterator[ConjugationReport]:
    """``conjugation_report(edge, m, k, d, n)`` for each power m in Z_d and,
    within it, each vertex k of the edge."""
    reporters = [_reporter(edge, k, d, n) for k in edge.vertices]
    for m in range(d):
        for report in reporters:
            yield report(m)
