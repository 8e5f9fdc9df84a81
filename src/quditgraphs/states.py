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
[i^s mod d] (``diagonals.power_row``), each laid along its vertex's axis, so
its grid has extent d on the edge's support (its vertex set) and 1 elsewhere
and broadcasts against the full grid. No table is ever computed from its
flat index.

``build_state`` and ``stabilizers.apply_generator`` add their edge grids
through ``_add_edge_grids``. It sums the small grids of each support first,
then folds each support's sum into the group of the smallest vertex it
misses (all n for the full support), and only then broadcasts each group
into the d^n grid. Every group but the full support's spans at most n - 1
axes, so a map of many edges makes at most n + 1 passes over the d^n
entries, not one per edge. The int64 sum is reduced mod d once at the end,
and it is exact: each term is below d, and every partial sum, on a support,
a group or the full grid, adds a subset of the same terms, of which there
are fewer than d^n (one per distinct edge). Under the table limit (d^n <
2^24, hence d < 2^24) each sum stays below 2^48; ``apply_generator`` adds
one table entry below d to it.

``plus_state``, ``build_state`` and ``to_dense`` each count their d^n
entries against that limit with ``residues.check_entries`` before they
allocate, and raise its ``SizeLimit`` (re-exported here).

A table takes at most d amplitudes, d^{-n/2} * omega_d^f for f in Z_d
(``_amplitudes``): ``to_dense`` looks each entry up there, and
``dense_blocks`` formats each of the d amplitudes once and writes a line per
entry by the same lookup.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .diagonals import (  # noqa: F401 (VertexOutOfRange is re-exported)
    VertexOutOfRange,
    check_edge,
    check_vertex,
    power_row,
)
from .graphs import MultiHyperedge, WeightedEdgeMap, _Value
from .residues import SizeLimit, check_entries  # noqa: F401 (SizeLimit is re-exported)


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
    check_vertex(vertex, n)
    return values.reshape((-1,) + (1,) * (n - 1 - vertex))


def monomial_grid(d: int, n: int, edge: MultiHyperedge) -> np.ndarray:
    """prod_{v in edge} i_v^{s_v} mod d as a grid that broadcasts to (d,)*n:
    extent d on the edge's axes, 1 on the others."""
    check_edge(edge, n)
    grid = np.ones((), dtype=np.int64)
    for v, s in zip(edge.vertices, edge.exponents):
        grid = grid * _on_axis(np.array(power_row(s, d), dtype=np.int64), v, n) % d
    return grid


def _grid(state: PhaseFunction) -> np.ndarray:
    """The state's table as a read-only (d,)*n grid view."""
    return state.table.reshape((state.d,) * state.n)


def plus_state(n: int, d: int) -> PhaseFunction:
    """|+_d>^{(x)n}: the uniform superposition, i.e. the all-zero table."""
    check_entries("table", 1, d, n)
    return PhaseFunction(d, n, np.zeros(d**n, dtype=np.int64))


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


def build_state(edge_map: WeightedEdgeMap) -> PhaseFunction:
    """State of a weighted edge map: f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d.

    Every monomial vanishes at (0, ..., 0), so the result is canonical; the
    order of edge application never matters (all gates are diagonal).
    """
    d, n = edge_map.d, edge_map.n
    check_entries("table", 1, d, n)
    grid = np.zeros((d,) * n, dtype=np.int64)
    terms = edge_map.items()
    _add_edge_grids(grid, ((e.vertices, w * monomial_grid(d, n, e) % d) for e, w in terms))
    grid %= d
    return PhaseFunction(d, n, grid.reshape(-1))


def _add_edge_grids(
    grid: np.ndarray, terms: Iterable[tuple[tuple[int, ...], np.ndarray]]
) -> None:
    """Add each (support, edge grid) term into the (d,)*n ``grid``, in place.

    An edge grid has extent d on its support's axes and 1 on the others.
    The terms are summed per support first, and the supports' sums per
    smallest missing vertex (n for the full support). Only those at most
    n + 1 group sums are broadcast into ``grid``, and each group but the
    full support's spans at most n - 1 axes.
    """
    sums: dict[tuple[int, ...], np.ndarray] = {}
    for support, term in terms:
        sums[support] = sums[support] + term if support in sums else term
    groups: dict[int, np.ndarray] = {}
    for support, total in sums.items():
        missing = next((v for v, u in enumerate(support) if v != u), len(support))
        groups[missing] = groups[missing] + total if missing in groups else total
    for total in groups.values():
        grid += total


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


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


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


def _amplitudes(d: int, n: int) -> np.ndarray:
    """The amplitude d^{-n/2} * exp(2*pi*1j*f/d) of each phase f in Z_d."""
    return np.exp(2j * np.pi * np.arange(d) / d) * d ** (-n / 2)


def to_dense(state: PhaseFunction) -> DenseState:
    """Amplitudes d^{-n/2} * exp(2*pi*1j*f(i)/d)."""
    check_entries("table", 1, state.d, state.n)
    return DenseState(state.d, state.n, _amplitudes(state.d, state.n)[state.table])


_DENSE_BLOCK_LINES = 1 << 14


def dense_blocks(state: PhaseFunction) -> Iterator[str]:
    """Text export of ``to_dense(state)``, one line per amplitude: 'index re
    im' at 17 significant digits, in blocks of ``_DENSE_BLOCK_LINES`` lines,
    so a writer holds one block of strings at a time rather than one per
    amplitude.

    Each of the d amplitudes is formatted once and each line looks its text
    up by the entry's phase. The norm, sum_f count_f * |a_f|^2 over the
    phases' counts, passes the check of ``DenseState`` first.
    """
    amplitudes = _amplitudes(state.d, state.n)
    _check_norm(float(np.bincount(state.table, minlength=state.d) @ np.abs(amplitudes) ** 2))
    texts = [f" {a.real:.17g} {a.imag:.17g}\n" for a in amplitudes.tolist()]
    for start in range(0, state.table.size, _DENSE_BLOCK_LINES):
        block = state.table[start : start + _DENSE_BLOCK_LINES].tolist()
        yield "".join([f"{i}{texts[f]}" for i, f in enumerate(block, start)])


# --- JSON serialization of phase tables --------------------------------------


def phases_to_dict(state: PhaseFunction) -> dict:
    return {"d": state.d, "n": state.n, "phases": state.table.tolist()}
