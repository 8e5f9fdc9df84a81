"""Tables as lanes, and their Kronecker products, without numpy.

A table of values below d is bytes of little-endian lanes, one per entry,
of ``lane_width(d)`` bytes: 1, 2 or 4, the fewest that hold four values
below d (wider lanes keep a spare top bit). Every table of the package is
in that one format, so a kernel sums the lanes it hands out.
``_reduce_sum`` is the one lane sum: it adds tables as big ints, several
lanes to a word (SWAR: H. S. Warren, *Hacker's Delight*, 2nd ed., ch. 2),
in batches of as many values below d as a lane holds, and reduces each
batch mod d, so its callers just add tables. Scaling mod d is a translate
for d <= 256 and a multiply per lane past that (``_scale``), and ``_kron``
widens a table to row ⊗ table. Under the table limit 4 bytes always do.

``power_rows`` builds rows of M^{⊗p}: the ``matrix`` verb's block, the
dense systems of ``correspondence`` and the kernel generators of
``newton``. ``kronecker_pass`` applies M^{⊗n} to a table: the U, V and W
passes of ``newton``'s solve. ``diagonals`` builds the edge-gate tables on
the same lanes; this module imports nothing from the package, so ``solve``
does not compile the gate kernel.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import compress, islice, repeat
from operator import mul
from typing import Iterable, Sequence

_TYPECODES = {1: "B", 2: "H", 4: "I"}

# The largest lane value each width holds: wider lanes keep their top bit
# spare, as ``_cut`` needs.
_CAPACITY = {1: (1 << 8) - 1, 2: (1 << 15) - 1, 4: (1 << 31) - 1}


def lane_width(d: int) -> int:
    """Bytes per lane of a table mod d: 1, 2 or 4, the fewest in which four
    values below d fit."""
    top = 4 * (d - 1)
    return 1 if top <= _CAPACITY[1] else 2 if top <= _CAPACITY[2] else 4


def lane_values(lanes: bytes, d: int) -> Sequence[int]:
    """The values of a table mod d: the bytes themselves at one-byte lanes,
    else an array."""
    width = lane_width(d)
    if width == 1:
        return lanes
    values = array(_TYPECODES[width])
    values.frombytes(lanes)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _pack(values: Iterable[int], d: int) -> bytes:
    width = lane_width(d)
    if width == 1:
        return bytes(values)
    packed = array(_TYPECODES[width], values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


@cache
def _translation(c: int, d: int) -> bytes:
    """The byte map x -> c * x mod d (c = 1: x mod d), for d <= 256."""
    return bytes([c * x % d for x in range(256)])


def _scale(lanes: bytes, c: int, d: int) -> bytes:
    """Every lane, a value below d, times c mod d; at c = 1 the lanes
    themselves. For d <= 256 a lane's high bytes are 0, which the map
    keeps, so one translate scales it."""
    if c == 1:
        return lanes
    if d <= 256:
        return lanes.translate(_translation(c, d))
    return _pack([c * x % d for x in lane_values(lanes, d)], d)


@cache
def _lane_constant(value: int, lanes: int, width: int) -> int:
    """The packed lanes that all hold ``value``."""
    return int.from_bytes(value.to_bytes(width, "little") * lanes, "little")


def _cut(x: int, lanes: int, d: int, top: int) -> int:
    """The packed lanes of x, each a value up to ``top``, mod d: d * 2^j is
    subtracted from every lane that reaches it, j from high to low. A lane's
    top bit is spare, so adding 2^high - m to every lane sets it exactly in
    the lanes that reach m, and no lane carries into the next."""
    width = lane_width(d)
    ones = _lane_constant(1, lanes, width)
    high = 8 * width - 1
    for j in reversed(range((top // d).bit_length())):
        m = d << j
        reached = ((x + _lane_constant((1 << high) - m, lanes, width)) >> high) & ones
        x -= reached * m
    return x


_CHUNK = 1 << 16  # bytes of lanes per big int: small enough to stay in cache


def _reduce_sum(parts: Iterable[bytes], d: int) -> bytes:
    """The lane-wise sum mod d of equal-size tables mod d. A lane holds
    ``_CAPACITY[lane_width(d)] // (d - 1)`` values below d, so the tables
    are added that many at a time, the running total among them: any
    number of parts is safe, and one batch is held at a time. A batch is
    summed as big ints one chunk at a time and reduced by one translate
    (one-byte lanes) or by ``_cut``. Every table here is reduced, so one
    alone is its own sum."""
    width = lane_width(d)
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        tables = [total, part, *islice(parts, _CAPACITY[width] // max(d - 1, 1) - 2)]
        size, chunks = len(total), []
        for start in range(0, size, _CHUNK):
            # Tables within one chunk are read whole, with no Python step per table.
            chunk = tables if size <= _CHUNK else (t[start : start + _CHUNK] for t in tables)
            x = sum(map(int.from_bytes, chunk, repeat("little")))
            length = min(_CHUNK, size - start)
            if width > 1:
                x = _cut(x, length // width, d, len(tables) * (d - 1))
            chunks.append(x.to_bytes(length, "little"))
        total = b"".join(chunks)
        if width == 1:
            total = total.translate(_translation(1, d))
    return total


def _kron(row: Sequence[int], inner: bytes, d: int) -> bytes:
    """row ⊗ inner mod d, for entries of row below d: block i is inner times
    row[i]. For d <= 256 each distinct entry is one translate of inner. Past
    that, the multiples of inner are a running sum, cut below d at each
    step, so the lanes must hold 2 (d - 1)."""
    if d <= 256:
        times = {c: _scale(inner, c, d) for c in set(row)}
    else:
        lanes, step = len(inner) // lane_width(d), int.from_bytes(inner, "little")
        multiple, times = 0, []
        for _ in range(d):
            times.append(multiple.to_bytes(len(inner), "little"))
            multiple = _cut(multiple + step, lanes, d, 2 * d - 2)
    return b"".join([times[c] for c in row])


def power_rows(
    matrix: Sequence[Sequence[int]], picked: Iterable[int], power: int, d: int
) -> bytes:
    """Rows ``picked`` of matrix^{⊗power} mod d, one table after another.
    The matrix's entries lie in [0, d), and a row
    index is a flat digit tuple (a_0, ..., a_{power-1}) in base
    len(matrix), a_0 most significant. Row (a_0, ..., a_{power-1}) is
    matrix[a_0] ⊗ ... ⊗ matrix[a_{power-1}]: it starts as the packed row of
    its last digit, and each digit before that widens it to the blocks
    row times matrix[a][s] for each column s (``_kron``)."""
    base = len(matrix)
    packed: dict[int, bytes] = {}
    rows = []
    for index in picked:
        index, digit = divmod(index, base)
        if digit not in packed:
            packed[digit] = _pack(matrix[digit], d)
        row = packed[digit]
        for _ in range(power - 1):
            index, digit = divmod(index, base)
            row = _kron(matrix[digit], row, d)
        rows.append(row)
    return b"".join(rows)


def kronecker_pass(matrix: Sequence[Sequence[int]], lanes: bytes, n: int, d: int) -> bytes:
    """matrix^{⊗n}·t mod d, for an m x k matrix of ints and a table t of k^n
    values below d in C order: the table of the m^n entries in C order.

    Each of the n steps applies the matrix to the last axis and puts the new
    axis first, so after n steps every axis is done once and back in its
    place. Block i of a step is sum_s matrix[i][s]·t[s::k]. While a block is
    at least a row long and d <= 256, each t[s::k] is a strided copy, each
    term a translate, and ``_reduce_sum`` adds the terms. Otherwise (always
    at n = 1) a step takes a C-level dot product per entry.
    """
    k, width = len(matrix[0]), lane_width(d)
    for _ in range(n):
        rows = len(lanes) // width // k
        if rows < k or d > 256:
            chunks = list(zip(*[iter(lane_values(lanes, d))] * k))
            lanes = _pack([sum(map(mul, row, chunk)) % d for row in matrix for chunk in chunks], d)
            continue
        flat = memoryview(lanes).cast(_TYPECODES[width])
        columns = [flat[s::k].tobytes() for s in range(k)]
        blocks = []
        for coefficients in matrix:
            reduced = [c % d for c in coefficients]
            if any(reduced):
                terms = map(_scale, compress(columns, reduced), filter(None, reduced), repeat(d))
                blocks.append(_reduce_sum(terms, d))
            else:
                blocks.append(bytes(rows * width))
        lanes = b"".join(blocks)
    return lanes
