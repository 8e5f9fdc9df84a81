"""Every edge-gate table of the package, as bytes of lanes, without numpy.

Every diagonal the package builds is a sum of edge terms, each a weight
times a product of per-vertex lookup rows over Z_d, one factor per vertex of
the edge, read at that vertex's digit:

- ``power_row(s, d)``: i^s mod d, a vertex of an edge with exponent s;
- ``shift_row(s, d)``: (i - 1)^s - i^s mod d, the change that conjugating
  CZ_e by the shift X_k makes on the target k (times m for CZ_e^m);
- ``deleted_edge_coefficient(m, d)``: m * (d - 1) mod d, the constant that
  the deleted-edge form puts on k.

A vertex outside the edge contributes 1. So CZ_e^m X_k CZ_e^{d-m}, with its
leading shift factored off, is the diagonal

    T(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

and its deleted-edge form is m*(d-1) * prod_{v != k} i_v^{s_v}.

``gate_table`` is the one kernel that sums such terms over the d^n table
(flat index sum_j i_j * d^{n-1-j}, i_0 most significant). It takes (edge,
weight) pairs and an optional target k, checks the table's size before it
builds any row, and builds each distinct row once. A table is bytes of d^n
lanes, one per entry, in the format of ``lanes``.

Each edge is a term of n rows, None off the edge, and the table is one
recursion over the axes (``_grid``): the table of some terms over axes
a..n-1 is the sum, over the distinct rows r at axis a, of r (x) G_r, where
G_r is the table over axes a+1..n-1 of the terms whose row at a is r, and
None (x) G_None is G_None repeated d times. Block i of r (x) G_r is G_r
times r[i] (``lanes._kron``): a ``bytes.translate`` for d <= 256, and past
that a multiple from a running sum of G_r. Past the last axis a table is
one lane, the weights' sum. A call at axis a stands for one distinct row
prefix and returns d^(n-a) lanes, so the work is sum_a (distinct prefixes
of length a) * d^(n-a): at most about d^n per axis, since a map's terms
have at most d distinct rows at an axis, however many edges share a span.
Terms that differ only at axis 0 still cost a full table per row there.

Every sum is ``lanes._reduce_sum``, which bounds and batches it, so the
kernel just adds tables; the tables of a call's groups are made lazily into
the sum that adds them.

``edge_map_table`` is a map's state table, ``generated_table`` the table
that the map's generator g_k makes of it, and ``verify`` compares the two
at every vertex. ``conjugation_report`` is the one judge of whether the
deleted-edge form is exact; ``edge_reports`` gives the reports of one edge
for every power and target, and builds its two tables once per target.
``dense_blocks`` writes a table's amplitudes as text, one line per entry.

``states`` and ``stabilizers`` wrap these lanes in numpy arrays; the CLI
reads them as they are, so no verb loads numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from itertools import chain, compress, count, starmap
from typing import Callable, Iterable, Iterator, Sequence

from .counting import check_entries
from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .lanes import _kron, _pack, _reduce_sum, _scale, lane_values, lane_width


class VertexOutOfRange(ValueError):
    """A gate referenced a vertex index >= n."""


def check_vertex(vertex: int, n: int) -> None:
    if not 0 <= vertex < n:
        raise VertexOutOfRange(f"vertex {vertex} out of range [0, {n})")


def power_row(s: int, d: int) -> list[int]:
    """[i^s mod d for i in Z_d]."""
    return [pow(i, s, d) for i in range(d)]


def shift_row(s: int, d: int) -> list[int]:
    """[((i - 1)^s - i^s) mod d for i in Z_d]."""
    return [(pow((i - 1) % d, s, d) - pow(i, s, d)) % d for i in range(d)]


def deleted_edge_coefficient(power: int, d: int) -> int:
    """power * (d - 1) mod d: the deleted edge's power in the printed form."""
    return power * (d - 1) % d


def check_target(edge: MultiHyperedge, k: int, n: int) -> tuple[int, MultiHyperedge | None]:
    """(s_k, the edge without k): ValueError when k is not in the edge, then
    VertexOutOfRange when k or the edge without k reaches n."""
    if k not in edge.vertices:
        raise ValueError(f"vertex {k} not in edge {edge}")
    reduced = edge.without_vertex(k)
    check_vertex(k, n)
    if reduced is not None and reduced.vertices[-1] >= n:
        raise VertexOutOfRange(f"edge {reduced} references a vertex >= {n}")
    return edge.exponents[edge.vertices.index(k)], reduced


# --- the kernel --------------------------------------------------------------

def _grid(terms: list[tuple[tuple, int]], axis: int, d: int, base: bytes | None = None) -> bytes:
    """The table over axes axis..n-1 of sum weight * prod_{j >= axis}
    rows[j][i_j] mod d over the (rows, weight) terms, each of n rows, None
    where the vertex is outside the edge; ``base`` (a table or None) is added
    at the root. The terms are grouped by their row at ``axis``: a row
    group's table is row (x) its child's, and the None group's is its child's
    repeated d times. Past the last axis the table is one lane, the weights'
    sum."""
    if axis == len(terms[0][0]):
        return _pack([sum(weight for _, weight in terms) % d], d)
    groups: dict[tuple[int, ...] | None, list] = {}
    for term in terms:
        groups.setdefault(term[0][axis], []).append(term)

    def table(row: tuple[int, ...] | None, group: list) -> bytes:
        child = _grid(group, axis + 1, d)
        return child * d if row is None else _kron(row, child, d)

    return _reduce_sum(chain([base] if base else [], starmap(table, groups.items())), d)


def gate_table(
    d: int,
    n: int,
    items: Iterable[tuple[MultiHyperedge, int]],
    k: int | None = None,
    base: bytes | None = None,
) -> bytes:
    """The d^n table of base + sum of weight * prod_{v in e} row_v[i_v] mod d
    over the (edge, weight) items, row_v = ``power_row(s_v, d)``; with a target
    k, ``shift_row(s_k, d)`` on k and no edge without k. ``base`` is a table or None.

    Each edge becomes a term of n rows, None off the edge, and ``_grid`` sums
    the terms: sum_a (distinct row prefixes of length a) * d^(n-a) lane
    writes, at most about (n + 1) * d^n however the supports share spans."""
    check_entries("table", 1, d, n)
    rows: dict[tuple[bool, int], tuple[int, ...]] = {}  # by (on the target, exponent)
    terms = []
    for edge, weight in items:
        if k is None or k in edge.vertices:
            keys = [(v == k, s) for v, s in zip(edge.vertices, edge.exponents)]
            for on_target, s in set(keys).difference(rows):
                rows[on_target, s] = tuple(shift_row(s, d) if on_target else power_row(s, d))
            on_edge = dict(zip(edge.vertices, map(rows.get, keys)))
            terms.append((tuple(map(on_edge.get, range(n))), weight))
    if not terms:
        return base or bytes(d**n * lane_width(d))
    return _grid(terms, 0, d, base)


def edge_map_table(edge_map: WeightedEdgeMap) -> bytes:
    """The map's state table f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d."""
    return gate_table(edge_map.d, edge_map.n, edge_map.items())


def roll_table(table: bytes, d: int, n: int, k: int) -> bytearray:
    """The shift X_k on a table: entry i becomes entry (..., i_k + 1 mod d, ...).

    The whole table moves up one slot of axis k, which is right everywhere
    but in the last slot of each block of axis k; that slot is copied from
    the block's first slot, by one slice per block or one strided copy per byte
    of a slot, whichever is fewer.
    """
    slot = d ** (n - 1 - k) * lane_width(d)
    block = d * slot
    out = bytearray(len(table))
    out[: len(table) - slot] = memoryview(table)[slot:]
    if len(table) // block <= slot:
        for start in range(0, len(table), block):
            out[start + block - slot : start + block] = table[start : start + slot]
    else:
        for x in range(slot):
            out[block - slot + x :: block] = table[x::block]
    return out


def generated_table(edge_map: WeightedEdgeMap, k: int, state: bytes) -> bytearray:
    """g_k applied to the table ``state``: the exact correction of every edge
    containing k added first (edges without k drop out), then the shift."""
    d, n = edge_map.d, edge_map.n
    check_vertex(k, n)
    corrected = gate_table(d, n, edge_map.items(), k, base=state)
    return roll_table(corrected, d, n, k)


def _mismatches(table: bytes, other: bytes, d: int) -> tuple[int, ...]:
    """The indices where two tables mod d differ."""
    if table == other:
        return ()
    diff = int.from_bytes(table, "little") ^ int.from_bytes(other, "little")
    return tuple(compress(count(), lane_values(diff.to_bytes(len(table), "little"), d)))


class VertexCheck(_Value):
    __slots__ = _fields = ("vertex", "stabilized", "mismatch_indices")
    vertex: int
    stabilized: bool
    mismatch_indices: tuple[int, ...]


def vertex_checks(edge_map: WeightedEdgeMap, state: bytes) -> list[VertexCheck]:
    """For every vertex k, whether g_k of the map leaves the table ``state``
    unchanged, and the indices where it does not."""
    checks = []
    for k in range(edge_map.n):
        mismatches = _mismatches(generated_table(edge_map, k, state), state, edge_map.d)
        checks.append(VertexCheck(k, not mismatches, mismatches))
    return checks


def verify(edge_map: WeightedEdgeMap) -> list[VertexCheck]:
    """Check g_k|G> = |G> for every vertex k, by exact phase-table equality."""
    return vertex_checks(edge_map, edge_map_table(edge_map))


# --- the conjugation report --------------------------------------------------


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


def _reporter(
    edge: MultiHyperedge, k: int, d: int, n: int
) -> Callable[[int], ConjugationReport]:
    """The report of (edge, power, k) as a function of the power.

    Both diagonals are linear in the power m: the exact one is m times the
    table with ``shift_row(s_k, d)`` on k, and the printed one is m*(d-1)
    times the table of the other vertices. Those two tables are built once;
    a power then scales each (a translate for d <= 256) and compares them."""
    s_k, reduced = check_target(edge, k, n)
    if d < 1:
        raise ValueError("need d >= 1")
    # First: the kernel refuses an oversized table before any table exists.
    unit_exact = gate_table(d, n, [(edge, 1)], k)
    if reduced is None:
        others = _pack([1], d) * d**n  # the empty product
    else:
        others = gate_table(d, n, [(reduced, 1)])

    def report(power: int) -> ConjugationReport:
        m, c = power % d, deleted_edge_coefficient(power, d)
        exact = _scale(unit_exact, m, d)
        printed = _scale(others, c, d)
        holds = exact == printed
        return ConjugationReport(
            edge=edge,
            power=m,
            vertex=k,
            target_exponent=s_k,
            holds=holds,
            exact_diagonal=tuple(lane_values(exact, d)),
            printed_diagonal=tuple(lane_values(printed, d)),
            mismatch_indices=_mismatches(exact, printed, d),
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


# --- dense amplitudes --------------------------------------------------------


def amplitude(f: int, d: int, n: int) -> complex:
    """d^{-n/2} * exp(2*pi*1j*f/d), rounded as numpy's
    ``np.exp(2j * np.pi * np.arange(d) / d) * d ** (-n / 2)`` rounds it:
    numpy divides a complex by d as a product with 1/d."""
    return cmath.exp(complex(0, (2 * math.pi * f) * (1.0 / d))) * d ** (-n / 2)


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


_DENSE_BLOCK_LINES = 1 << 14


def dense_blocks(d: int, n: int, phases: Sequence[int]) -> Iterator[str]:
    """Text export of the amplitudes of a phase table, one line per entry:
    'index re im' at 17 significant digits, in blocks of
    ``_DENSE_BLOCK_LINES`` lines, so a writer holds one block of strings at
    a time rather than one per amplitude.

    The phases are counted in one pass, and each phase that occurs is
    formatted once; each line looks its text up by the entry's phase. The
    norm, sum_f count_f * |a_f|^2, passes ``_check_norm`` first.
    """
    counts = Counter(phases)
    amplitudes = {f: amplitude(f, d, n) for f in counts}
    _check_norm(math.fsum(c * abs(amplitudes[f]) ** 2 for f, c in counts.items()))
    texts = [""] * d
    for f, a in amplitudes.items():
        texts[f] = f" {a.real:.17g} {a.imag:.17g}\n"
    for start in range(0, len(phases), _DENSE_BLOCK_LINES):
        block = phases[start : start + _DENSE_BLOCK_LINES]
        yield "".join([f"{i}{texts[f]}" for i, f in enumerate(block, start)])
