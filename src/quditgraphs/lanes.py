"""Tables as lanes, and their Kronecker products, without numpy.

A table of values below d is bytes of little-endian lanes of 1, 2 or 4
bytes, one per entry (``lane_width``; wider lanes keep a spare top bit),
handed out at ``lane_width(d - 1)``. Tables are summed as big ints, several
lanes to a word (SWAR: H. S. Warren, *Hacker's Delight*, 2nd ed., ch. 2),
and reduced mod d as they are summed (``_reduce_sum``), each sum within a
stated bound. Scaling mod d is a translate for d <= 256 and a multiply per
lane past that (``_scale``). Under the table limit 4 bytes always do.

``power_rows`` builds rows of M^{⊗p}: the ``matrix`` block, the dense
systems of ``correspondence`` and the kernel generators of ``newton``.
``kronecker_pass`` applies M^{⊗n} to a table: the U, V and W passes of
``newton``'s solve. ``diagonals`` builds the edge-gate tables on the same
lanes; this module needs only ``counting``, so ``solve`` does not compile
the gate kernel.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from operator import mul
from typing import Iterable, Sequence

from .counting import MULTIHYPERGRAPH, _check_block, _digit_power_rows

_TYPECODES = {1: "B", 2: "H", 4: "I"}

# The largest lane value each width holds: wider lanes keep their top bit
# spare, as ``_cut`` needs.
_CAPACITY = {1: (1 << 8) - 1, 2: (1 << 15) - 1, 4: (1 << 31) - 1}


def lane_width(top: int) -> int:
    """Bytes per lane for values up to ``top``: 1, 2 or 4."""
    return 1 if top <= _CAPACITY[1] else 2 if top <= _CAPACITY[2] else 4


def lane_values(lanes: bytes, width: int) -> Sequence[int]:
    """The lanes' values: the bytes themselves at width 1, else an array."""
    if width == 1:
        return lanes
    values = array(_TYPECODES[width])
    values.frombytes(lanes)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _pack(values: Iterable[int], width: int) -> bytes:
    if width == 1:
        return bytes(values)
    packed = array(_TYPECODES[width], values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def table_values(table: bytes, d: int) -> Sequence[int]:
    """The entries of a table that the kernel handed out, lanes below d."""
    return lane_values(table, lane_width(d - 1))


def _rewidth(lanes: bytes, width: int, new_width: int) -> bytes:
    """The same lanes at ``new_width`` bytes; narrowing keeps the low bytes."""
    if width == new_width:
        return lanes
    out = bytearray(len(lanes) // width * new_width)
    for j in range(min(width, new_width)):
        out[j::new_width] = lanes[j::width]
    return bytes(out)


@cache
def _translation(c: int, d: int) -> bytes:
    """The byte map x -> c * x mod d (c = 1: x mod d), for d <= 256."""
    return bytes([c * x % d for x in range(256)])


def _scale(lanes: bytes, c: int, d: int, width: int) -> bytes:
    """Every lane, a value below d, times c mod d. For d <= 256 a lane's
    high bytes are 0, which the map keeps, so one translate scales it."""
    if d <= 256:
        return lanes.translate(_translation(c, d))
    return _pack([c * x % d for x in lane_values(lanes, width)], width)


@cache
def _lane_constant(value: int, lanes: int, width: int) -> int:
    """The packed lanes that all hold ``value``."""
    return int.from_bytes(value.to_bytes(width, "little") * lanes, "little")


def _cut(x: int, lanes: int, d: int, width: int, top: int) -> int:
    """The packed lanes of x, each a value up to ``top``, mod d: d * 2^j is
    subtracted from every lane that reaches it, j from high to low. A lane's
    top bit is spare, so adding 2^high - m to every lane sets it exactly in
    the lanes that reach m, and no lane carries into the next."""
    ones = _lane_constant(1, lanes, width)
    high = 8 * width - 1
    for j in reversed(range((top // d).bit_length())):
        m = d << j
        reached = ((x + _lane_constant((1 << high) - m, lanes, width)) >> high) & ones
        x -= reached * m
    return x


_CHUNK = 1 << 16  # bytes of lanes per big int: small enough to stay in cache


def _reduce_sum(parts: list[bytes], d: int, width: int, top: int) -> bytes:
    """The lane-wise sum mod d of equal-size tables whose lane sums are at
    most ``top``, taken as big ints one chunk at a time. One-byte lanes are
    reduced by one translate, wider ones by ``_cut``. Every table here is
    reduced, so one alone is its own sum."""
    if len(parts) == 1:
        return parts[0]
    size = len(parts[0])
    chunks = []
    for start in range(0, size, _CHUNK):
        total = sum(int.from_bytes(part[start : start + _CHUNK], "little") for part in parts)
        length = min(_CHUNK, size - start)
        if width > 1:
            total = _cut(total, length // width, d, width, top)
        chunks.append(total.to_bytes(length, "little"))
    table = b"".join(chunks)
    return table.translate(_translation(1, d)) if width == 1 else table


def _multiples(inner: bytes, row: tuple[int, ...], d: int, width: int) -> Sequence[bytes]:
    """inner times c mod d, indexed by each c in ``row``. For d <= 256 each
    is one translate of inner. Past that, the multiples of inner are a
    running sum, cut below d at each step."""
    if d <= 256:
        times = [b""] * d
        for c in set(row):
            times[c] = _scale(inner, c, d, width)
        return times
    lanes, step, multiple, times = len(inner) // width, int.from_bytes(inner, "little"), 0, []
    for _ in range(d):
        times.append(multiple.to_bytes(len(inner), "little"))
        multiple = _cut(multiple + step, lanes, d, width, 2 * d - 2)
    return times


def power_rows(
    matrix: Sequence[Sequence[int]], picked: Iterable[int], power: int, d: int
) -> bytes:
    """Rows ``picked`` of matrix^{⊗power} mod d, one after another, as lanes
    of ``lane_width(d - 1)``. The matrix's entries lie in [0, d), and a row
    index is a flat digit tuple (a_0, ..., a_{power-1}) in base
    len(matrix), a_0 most significant. Row (a_0, ..., a_{power-1}) is
    matrix[a_0] ⊗ ... ⊗ matrix[a_{power-1}]: it starts as the packed row of
    its last digit, and each digit before that widens it to the blocks
    row times matrix[a][s] for each column s (``_multiples``)."""
    width, base = lane_width(d - 1), len(matrix)
    packed: dict[int, bytes] = {}
    rows = []
    for index in picked:
        index, digit = divmod(index, base)
        if digit not in packed:
            packed[digit] = _pack(matrix[digit], width)
        row = packed[digit]
        for _ in range(power - 1):
            index, digit = divmod(index, base)
            factor = matrix[digit]
            times = _multiples(row, factor, d, width)
            row = b"".join([times[c] for c in factor])
        rows.append(row)
    return b"".join(rows)


def coefficient_lanes(d: int, size: int) -> tuple[int, bytes]:
    """The side and the lanes of the size-fold Kronecker power of the
    (d-1)x(d-1) digit-power matrix V[i][s] = i^s mod d (i, s in 1..d-1),
    row after row. At d = 2 the block is [[1]] for every size."""
    _check_block(d, size)
    base = _digit_power_rows(d, MULTIHYPERGRAPH)[1:]
    for row in base:  # in place: at d = 4096 a copy would hold d^2 more pointers
        del row[0]
    power = 1 if d == 2 else size
    side = (d - 1) ** power
    return side, power_rows(base, range(side), power, d)


def kronecker_pass(matrix: Sequence[Sequence[int]], lanes: bytes, n: int, d: int) -> bytes:
    """matrix^{⊗n}·t mod d, for an m x k matrix of ints and a table t of k^n
    values below d in C order: the m^n entries in C order, both as lanes of
    ``lane_width(d - 1)``.

    Each of the n steps applies the matrix to the last axis and puts the new
    axis first, so after n steps every axis is done once and back in its
    place. Block i of a step is sum_s matrix[i][s]·t[s::k]. While a block is
    at least a row long and d <= 256, a step works on lanes of
    ``lane_width(4 (d - 1))``: each t[s::k] is a strided copy, each term a
    translate, and each sum adds at most batch + 1 values below d (a batch
    of terms and the block so far), which those lanes hold. Otherwise
    (always at n = 1) a step takes a C-level dot product per entry.
    """
    k, width = len(matrix[0]), lane_width(d - 1)
    work = lane_width(4 * (d - 1)) if d <= 256 else width
    batch = _CAPACITY[work] // (d - 1) - 1
    lanes = _rewidth(lanes, width, work)
    for _ in range(n):
        rows = len(lanes) // work // k
        if rows < k or d > 256:
            chunks = list(zip(*[iter(lane_values(lanes, work))] * k))
            lanes = _pack([sum(map(mul, row, chunk)) % d for row in matrix for chunk in chunks], work)
            continue
        flat = memoryview(lanes).cast(_TYPECODES[work])
        columns = [flat[s::k].tobytes() for s in range(k)]
        blocks = []
        for coefficients in matrix:
            terms: list[bytes] = []
            for c, column in zip(coefficients, columns):
                c %= d
                if c:
                    terms.append(column if c == 1 else _scale(column, c, d, work))
                    if len(terms) > batch:
                        terms = [_reduce_sum(terms, d, work, len(terms) * (d - 1))]
            top = len(terms) * (d - 1)
            blocks.append(_reduce_sum(terms, d, work, top) if terms else bytes(rows * work))
        lanes = b"".join(blocks)
    return _rewidth(lanes, work, width)
