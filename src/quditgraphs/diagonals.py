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
(flat index sum_j i_j * d^{n-1-j}, i_0 most significant). A table is bytes
of d^n lanes, one per entry, in the format of ``lanes``:

- **Supports.** The terms on one support (vertex set) are summed on the
  support's own d^t grid by one recursion over its first vertex:
  grid = sum_s row_s (x) G_s, where G_s is the grid of the other vertices
  for the terms whose first row is row_s. Each block of row_s (x) G_s is
  G_s scaled by one entry of row_s (``lanes._kron``): a ``bytes.translate``
  for d <= 256, and past that a multiple from a running sum of G_s. This is
  the W^{(x)t} pass at support scale: a lone edge costs d^t lane writes, a
  full support t * d^(t+1). It stays apart from ``lanes.kronecker_pass``: it
  costs a Python-level node per group of equal first rows, so on a dense
  table it would run k^(n-1) nodes (131072 at d=2 n=18) where the pass
  scales n·m·k times.
- **Spans.** Each support's grid is spread over the span from its first
  to its last vertex (a block repeated for every vertex in between that it
  misses), and the grids of one (first, last) span are summed there.
- **The table.** The spans are laid onto the table in one Horner pass
  over the last vertex b: the spans ending at b are summed from the
  latest first vertex down, each sum tiled for the next leading axis, and
  the table so far, over axes 0..b-1, joins the last sum with each lane
  repeated d times for axis b. Every pass writes at most about twice the
  entries of its prefix of the table, so the laying costs a few d^n lane
  writes however many spans there are.

Every sum here is ``lanes._reduce_sum``, which bounds and batches it, so
the kernel just adds tables.

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
from itertools import compress, count
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .counting import check_entries
from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .lanes import _kron, _pack, _reduce_sum, _scale, lane_values, lane_width


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
    if reduced is not None:
        check_edge(reduced, n)
    return edge.exponents[edge.vertices.index(k)], reduced


def _repeat(data: bytes, size: int, r: int) -> bytes:
    """Each consecutive ``size``-byte chunk of ``data`` repeated r times in
    place: a new axis of extent r below the axes that tell chunks apart. It
    costs one slice per chunk or one strided copy per byte of a repeated
    chunk, whichever is fewer."""
    chunks = len(data) // size
    if chunks <= r * size:
        return b"".join([data[i : i + size] * r for i in range(0, len(data), size)])
    out = bytearray(len(data) * r)
    step = r * size
    for j in range(step):
        out[j::step] = data[j % size :: size]
    return bytes(out)


# --- the kernel --------------------------------------------------------------

# A term: (support, one row per support vertex, weight). Its table is
# weight * prod_j rows[j][i_{support[j]}] mod d.
Term = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]

_BATCH = 8  # grids of one span held at once, at most: memory, not a lane bound


def _support_grid(terms: list[tuple[tuple[tuple[int, ...], ...], int]], d: int) -> bytes:
    """The grid of sum weight * prod_j rows[j][i_j] mod d over the terms'
    t >= 1 common axes, first axis most significant: the sum of row_s (x)
    G_s over the distinct first rows s, where G_s is the grid of the other
    axes for the terms whose first row is s, and block i of row_s (x) G_s
    is G_s times row_s[i]. On one axis the grid is a sum of rows."""
    if len(terms[0][0]) == 1:
        total = [0] * d
        for (row,), w in terms:
            total = list(map(add, total, map(w.__mul__, row)))
        return _pack(map(d.__rmod__, total), d)
    groups: dict[tuple[int, ...], list] = {}
    for rows, weight in terms:
        groups.setdefault(rows[0], []).append((rows[1:], weight))
    grids = (_kron(row, _support_grid(rest, d), d) for row, rest in groups.items())
    return _reduce_sum(grids, d)


def _spread(grid: bytes, support: tuple[int, ...], d: int) -> bytes:
    """A support's grid over the span support[0]..support[-1]: for each run
    of missing vertices, the block of the axes after it repeats once per
    digit tuple of the run."""
    for low, high in reversed(list(zip(support, support[1:]))):
        if high - low > 1:
            block = d ** (support[-1] - high + 1) * lane_width(d)
            grid = _repeat(grid, block, d ** (high - low - 1))
    return grid


def gate_table(d: int, n: int, terms: Iterable[Term], base: bytes | None = None) -> bytes:
    """The d^n table of base + sum of the terms, mod d. ``base`` is such a
    table or None; a term on the empty support is a constant."""
    check_entries("table", 1, d, n)
    supports: dict[tuple[int, ...], list] = {}
    for support, rows, weight in terms:
        supports.setdefault(support, []).append((rows, weight))
    constant = sum(w for _, w in supports.pop((), ())) % d
    spans: dict[tuple[int, int], list[bytes]] = {}
    for support, on_support in supports.items():
        grids = spans.setdefault((support[0], support[-1]), [])
        grids.append(_spread(_support_grid(on_support, d), support, d))
        if len(grids) >= _BATCH:
            grids[:] = [_reduce_sum(grids, d)]
    if base is not None:
        spans.setdefault((0, n - 1), []).append(base)
    table = _pack([constant], d) if constant else b""  # over axes 0..last - 1; b"" is 0
    for last in range(n):
        span, start = b"", last + 1  # the spans ending at ``last``, over axes start..last
        for first in sorted({a for a, b in spans if b == last} | {0}, reverse=True):
            grids = list(spans.get((first, last), ()))
            if span:
                grids.append(span * d ** (start - first))
            if first == 0 and table:
                grids.append(_repeat(table, lane_width(d), d))
            if grids:
                span, start = _reduce_sum(grids, d), first
        table = span
    return table or bytes(d**n * lane_width(d))


class _Rows(dict):
    """The lookup rows over Z_d by (on the target, exponent), each built on
    first use: the shift row (i - 1)^s - i^s on the target, i^s elsewhere."""

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, key: tuple[bool, int]) -> tuple[int, ...]:
        target, s = key
        row = self[key] = tuple(shift_row(s, self.d) if target else power_row(s, self.d))
        return row


def edge_terms(
    items: Iterable[tuple[MultiHyperedge, int]], d: int, k: int | None = None
) -> list[Term]:
    """The term of each (edge, weight): power rows i^s mod d, and with a
    target k, the shift row (i - 1)^s - i^s mod d on k, where the edges
    without k drop out. Equal rows are one tuple."""
    rows, on_target = _Rows(d), (-1 if k is None else k).__eq__

    def term(edge: MultiHyperedge, weight: int) -> Term:
        keys = zip(map(on_target, edge.vertices), edge.exponents)
        return edge.vertices, tuple(map(rows.__getitem__, keys)), weight

    return [term(edge, w) for edge, w in items if k is None or k in edge.vertices]


def edge_map_table(edge_map: WeightedEdgeMap) -> bytes:
    """The map's state table f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d."""
    d, n = edge_map.d, edge_map.n
    return gate_table(d, n, edge_terms(edge_map.items(), d))


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
    corrected = gate_table(d, n, edge_terms(edge_map.items(), d, k), base=state)
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
    if reduced is None:
        others = gate_table(d, n, [((), (), 1)])  # the empty product
    else:
        others = gate_table(d, n, edge_terms([(reduced, 1)], d))
    unit_exact = gate_table(d, n, edge_terms([(edge, 1)], d, k))

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
