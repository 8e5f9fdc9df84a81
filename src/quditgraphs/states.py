"""States of n qudits as exact phase functions f: Z_d^n -> Z_d.

A table entry f(i) is the power of omega_d = exp(2*pi*1j/d) multiplying the
basis ket |i_0, ..., i_{n-1}>; the amplitude is d^{-n/2} * omega_d^{f(i)}.
Index convention: i_0 is the most significant digit, so the flat index of
(i_0, ..., i_{n-1}) is sum_j i_j * d^{n-1-j}.

All diagonal gates act by adding an integer exponent table mod d, so gate
application is exact and order-independent.

Tables come from the numpy-free kernel ``diagonals.gate_table``, which sums
the gates of (edge, weight) pairs over the d^n table as bytes of fixed-width
lanes; this module wraps its tables in read-only int64 arrays. ``build_state``
builds through it, so no table is computed here, and none from its flat index.

``build_state`` (through the kernel, before any lookup row) and
``to_dense`` count their d^n entries against the table limit with
``counting.check_entries`` before they allocate, and raise its ``SizeLimit``.

A table takes at most d amplitudes, d^{-n/2} * omega_d^f for f in Z_d, each
from ``diagonals.amplitude``: ``to_dense`` computes all d and looks each
entry up there. The text export of the CLI is ``diagonals.dense_blocks``,
which formats each phase that occurs once and writes a line per entry by
the same lookup.
"""

from __future__ import annotations

import numpy as np

from .counting import check_entries
from .diagonals import _check_norm, amplitude, edge_map_table
from .graphs import WeightedEdgeMap, _Value
from .lanes import lane_width


class DimensionMismatch(ValueError):
    """Two states with different (d, n) were compared."""


def _freeze(table: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(table, dtype=np.int64)
    table.setflags(write=False)
    return table


class PhaseFunction(_Value):
    """Exponent table of a state; canonical means f(0, ..., 0) = 0.

    Canonicity is not required: the stabilizer machinery shifts tables, and a
    shifted table may have f(0, ..., 0) != 0.
    """

    __slots__ = _fields = ("d", "n", "table")
    d: int
    n: int
    table: np.ndarray

    def __init__(self, d: int, n: int, table: np.ndarray):
        if d < 2 or n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        table = np.asarray(table)
        if table.shape != (d**n,):
            raise ValueError(f"table must have d^n = {d ** n} entries")
        if table.dtype.kind not in "iu":  # a bool table is refused too, as in the JSON schema
            raise ValueError(f"table entries must be integers, got dtype {table.dtype}")
        if table.size and (table.min() < 0 or table.max() >= d):
            raise ValueError("table entries must lie in [0, d)")
        self._set(d=d, n=n, table=_freeze(table))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        return (
            self.d == other.d
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    __hash__ = None  # type: ignore[assignment]


def _lanes(state: PhaseFunction) -> bytes:
    """The state's table as kernel lanes."""
    return state.table.astype(f"<u{lane_width(state.d)}").tobytes()


def _lane_view(lanes: bytes, d: int) -> np.ndarray:
    """A kernel table mod d as a read-only flat numpy view."""
    return np.frombuffer(lanes, dtype=f"<u{lane_width(d)}")


def _from_lanes(d: int, n: int, table: bytes) -> PhaseFunction:
    """A kernel table as a state."""
    return PhaseFunction(d, n, _lane_view(table, d))


def build_state(edge_map: WeightedEdgeMap) -> PhaseFunction:
    """State of a weighted edge map: f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d.

    Every monomial vanishes at (0, ..., 0), so the result is canonical; the
    order of edge application never matters (all gates are diagonal).
    """
    return _from_lanes(edge_map.d, edge_map.n, edge_map_table(edge_map))


def states_equal(a: PhaseFunction, b: PhaseFunction) -> bool:
    """Equality up to global phase: tables match after subtracting f(0,...,0)."""
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatch(f"({a.d}, {a.n}) vs ({b.d}, {b.n})")
    ta = (a.table - a.table[0]) % a.d
    tb = (b.table - b.table[0]) % b.d
    return bool(np.array_equal(ta, tb))


class DenseState(_Value):
    """Explicit amplitude vector; always unit norm by construction. Equality
    and hash are identity, as arrays have no single truth value."""

    __slots__ = _fields = ("d", "n", "amplitudes")
    d: int
    n: int
    amplitudes: np.ndarray
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, d: int, n: int, amplitudes: np.ndarray):
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amps.shape != (d**n,):
            raise ValueError("amplitude count must be d^n")
        _check_norm(float(np.sum(np.abs(amps) ** 2)))
        amps.setflags(write=False)
        self._set(d=d, n=n, amplitudes=amps)


def to_dense(state: PhaseFunction) -> DenseState:
    """Amplitudes d^{-n/2} * exp(2*pi*1j*f(i)/d), by ``diagonals.amplitude``."""
    d, n = state.d, state.n
    check_entries("table", 1, d, n)
    amplitudes = np.array([amplitude(f, d, n) for f in range(d)])
    return DenseState(d, n, amplitudes[state.table])
