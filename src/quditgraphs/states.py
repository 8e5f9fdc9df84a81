"""States of n qudits as exact phase functions f: Z_d^n -> Z_d.

A table entry f(i) is the power of omega_d = exp(2*pi*1j/d) multiplying the
basis ket |i_0, ..., i_{n-1}>; the amplitude is d^{-n/2} * omega_d^{f(i)}.
Index convention: i_0 is the most significant digit, so the flat index of
(i_0, ..., i_{n-1}) is sum_j i_j * d^{n-1-j}.

All diagonal gates act by adding an integer exponent table mod d, so gate
application is exact and order-independent.

Tables are computed on the C-order grid of shape (d,)*n, whose axis v is
digit i_v; reshaping the grid to one axis gives the flat table above. A
monomial prod_{v in e} i_v^{s_v} is a product of per-vertex lookup vectors
[i^s mod d], each laid along its vertex's axis, so its grid has extent d on
the edge's axes and 1 elsewhere and broadcasts against the full grid. No
table is ever computed from its flat index. ``build_state`` adds each
``weight * grid % d`` into one int64 grid and reduces mod d once at the end.
That sum is exact: each term is below d, and a map has fewer than d^n
distinct edges, so under the default limit (d^n < 2^24, hence d < 2^24) the
sum stays below 2^48.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MultiHyperedge, WeightedEdgeMap
from .residues import power_at_least

DEFAULT_TABLE_LIMIT = 2**24


class SizeLimit(ValueError):
    """Table would meet or exceed the configured entry limit."""


class VertexOutOfRange(ValueError):
    """A gate referenced a vertex index >= n."""


class DimensionMismatch(ValueError):
    """Two states with different (d, n) were compared."""


def _check_size(d: int, n: int, limit: int | None) -> int:
    cap = DEFAULT_TABLE_LIMIT if limit is None else limit
    if power_at_least(d, n, cap):
        raise SizeLimit(f"table of {d}^{n} entries meets or exceeds the limit {cap}")
    return d**n


def _freeze(table: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(table, dtype=np.int64)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Exponent table of a state; canonical means f(0, ..., 0) = 0.

    Canonicity is not required: the stabilizer machinery shifts tables, and a
    shifted table may have f(0, ..., 0) != 0.
    """

    d: int
    n: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        table = np.asarray(self.table)
        if table.shape != (self.d**self.n,):
            raise ValueError(f"table must have d^n = {self.d ** self.n} entries")
        if table.size and (table.min() < 0 or table.max() >= self.d):
            raise ValueError("table entries must lie in [0, d)")
        object.__setattr__(self, "table", _freeze(table))

    @property
    def is_canonical(self) -> bool:
        return int(self.table[0]) == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        return (
            self.d == other.d
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    __hash__ = None  # type: ignore[assignment]

    def entry(self, digits: Sequence[int]) -> int:
        return int(self.table[index_of(digits, self.d)])


def index_of(digits: Sequence[int], d: int) -> int:
    """Flat index of a digit tuple, i_0 most significant."""
    idx = 0
    for digit in digits:
        idx = idx * d + digit
    return idx


def digits_of(index: int, d: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        index, r = divmod(index, d)
        digits.append(r)
    return tuple(reversed(digits))


def _on_axis(values: np.ndarray, vertex: int, n: int) -> np.ndarray:
    """A length-d vector laid along the grid axis of ``vertex``; it broadcasts
    against the (d,)*n grid."""
    if not 0 <= vertex < n:
        raise VertexOutOfRange(f"vertex {vertex} out of range [0, {n})")
    return values.reshape((-1,) + (1,) * (n - 1 - vertex))


def _flat(grid: np.ndarray, d: int, n: int) -> np.ndarray:
    """A fresh flat table of d^n entries holding the grid broadcast to (d,)*n."""
    return np.array(np.broadcast_to(grid, (d,) * n), order="C").reshape(-1)


def digit_values(d: int, n: int, vertex: int) -> np.ndarray:
    """Array of length d^n holding digit i_vertex of every flat index."""
    return _flat(_on_axis(np.arange(d, dtype=np.int64), vertex, n), d, n)


def monomial_grid(d: int, n: int, edge: MultiHyperedge) -> np.ndarray:
    """prod_{v in edge} i_v^{s_v} mod d as a grid that broadcasts to (d,)*n:
    extent d on the edge's axes, 1 on the others."""
    if edge.vertices[-1] >= n:
        raise VertexOutOfRange(f"edge {edge} references a vertex >= {n}")
    grid = np.ones((), dtype=np.int64)
    for v, s in zip(edge.vertices, edge.exponents):
        lut = np.array([pow(i, s, d) for i in range(d)], dtype=np.int64)
        grid = grid * _on_axis(lut, v, n) % d
    return grid


def monomial_table(d: int, n: int, edge: MultiHyperedge) -> np.ndarray:
    """Table of prod_{v in edge} i_v^{s_v} mod d over all d^n indices."""
    return _flat(monomial_grid(d, n, edge), d, n)


def _grid(state: PhaseFunction) -> np.ndarray:
    """The state's table as a read-only (d,)*n grid view."""
    return state.table.reshape((state.d,) * state.n)


def plus_state(n: int, d: int, limit: int | None = None) -> PhaseFunction:
    """|+_d>^{(x)n}: the uniform superposition, i.e. the all-zero table."""
    size = _check_size(d, n, limit)
    return PhaseFunction(d, n, np.zeros(size, dtype=np.int64))


def apply_multi_cz(state: PhaseFunction, edge: MultiHyperedge, power: int) -> PhaseFunction:
    """Apply the edge's controlled phase gate ``power`` times:
    f'(i) = f(i) + power * prod_v i_v^{s_v} (mod d)."""
    m = power % state.d
    if m == 0:
        return state
    grid = _grid(state) + m * monomial_grid(state.d, state.n, edge)
    return PhaseFunction(state.d, state.n, (grid % state.d).reshape(-1))


def apply_uv(state: PhaseFunction, vertex: int, coefficients: Sequence[int]) -> PhaseFunction:
    """Apply the single-vertex diagonal gate with h(k) = sum_j a_j k^j.

    ``coefficients`` is (a_0, ..., a_eta); a_0 contributes a global phase.
    The monomial gate h(k) = k^eta is ``coefficients = (0,)*eta + (1,)``;
    with eta = 1 this is the single-vertex ring gate Z.
    """
    d = state.d
    h = np.array(
        [sum(a * pow(k, j, d) for j, a in enumerate(coefficients)) % d for k in range(d)],
        dtype=np.int64,
    )
    if not h.any():
        return state
    grid = _grid(state) + _on_axis(h, vertex, state.n)
    return PhaseFunction(d, state.n, (grid % d).reshape(-1))


def monomial_coefficients(eta: int) -> tuple[int, ...]:
    """Coefficient vector of h(k) = k^eta."""
    if eta < 1:
        raise ValueError("eta must be >= 1")
    return (0,) * eta + (1,)


def build_state(edge_map: WeightedEdgeMap, limit: int | None = None) -> PhaseFunction:
    """State of a weighted edge map: f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d.

    Every monomial vanishes at (0, ..., 0), so the result is canonical; the
    order of edge application never matters (all gates are diagonal).
    """
    d, n = edge_map.d, edge_map.n
    _check_size(d, n, limit)
    grid = np.zeros((d,) * n, dtype=np.int64)
    for edge, weight in edge_map.items():
        grid += weight * monomial_grid(d, n, edge) % d
    grid %= d
    return PhaseFunction(d, n, grid.reshape(-1))


def states_equal(a: PhaseFunction, b: PhaseFunction) -> bool:
    """Equality up to global phase: tables match after subtracting f(0,...,0)."""
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatch(f"({a.d}, {a.n}) vs ({b.d}, {b.n})")
    ta = (a.table - a.table[0]) % a.d
    tb = (b.table - b.table[0]) % b.d
    return bool(np.array_equal(ta, tb))


def canonicalize(state: PhaseFunction) -> PhaseFunction:
    """Subtract f(0, ..., 0) from every entry."""
    if state.is_canonical:
        return state
    return PhaseFunction(state.d, state.n, (state.table - state.table[0]) % state.d)


@dataclass(frozen=True, eq=False)
class DenseState:
    """Explicit amplitude vector; always unit norm by construction."""

    d: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.d**self.n,):
            raise ValueError("amplitude count must be d^n")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def to_dense(state: PhaseFunction, limit: int | None = None) -> DenseState:
    """Amplitudes d^{-n/2} * exp(2*pi*1j*f(i)/d)."""
    _check_size(state.d, state.n, limit)
    phases = np.exp(2j * np.pi * state.table / state.d)
    return DenseState(state.d, state.n, phases * state.d ** (-state.n / 2))


def dense_text(state: DenseState) -> str:
    """Text export, one line per amplitude: 'index re im' at 17 significant digits.

    Each distinct amplitude is formatted once. Amplitudes are told apart by
    their 16 bytes, not by value, so 0.0 and -0.0 keep their own text.
    """
    distinct, which = np.unique(state.amplitudes.view("V16"), return_inverse=True)
    texts = [f"{amp.real:.17g} {amp.imag:.17g}" for amp in distinct.view(np.complex128).tolist()]
    return "".join(f"{i} {texts[j]}\n" for i, j in enumerate(which.tolist()))


# --- JSON serialization of phase tables --------------------------------------


def phases_to_dict(state: PhaseFunction) -> dict:
    return {"d": state.d, "n": state.n, "phases": [int(x) for x in state.table]}


def phases_from_dict(payload: object) -> PhaseFunction:
    from .graphs import SchemaError, _expect_int, _expect_int_list

    if not isinstance(payload, dict):
        raise SchemaError("$", f"expected an object, got {payload!r}")
    for key in ("d", "n", "phases"):
        if key not in payload:
            raise SchemaError(key, "missing required field")
    d = _expect_int(payload["d"], "d", minimum=2)
    n = _expect_int(payload["n"], "n", minimum=1)
    _check_size(d, n, None)
    phases = _expect_int_list(payload["phases"], "phases")
    if len(phases) != d**n:
        raise SchemaError("phases", f"expected d^n = {d ** n} entries, got {len(phases)}")
    try:
        table = np.array(phases, dtype=np.int64)
    except OverflowError:  # an entry past int64 is out of range; the loop finds the first
        table = None
    if table is None or table.min() < 0 or table.max() >= d:
        i = next(i for i, x in enumerate(phases) if not 0 <= x < d)
        raise SchemaError(f"phases[{i}]", f"entry out of range [0, {d})")
    return PhaseFunction(d, n, table)
