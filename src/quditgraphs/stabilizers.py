"""Stabilizer generators of weighted edge-map states, and their verification.

The generator for vertex k is the shift on k followed (in operator order:
preceded in application order) by one diagonal correction per edge containing
k. Conjugating a single edge gate CZ_e^m by the shift gives the diagonal

    T_e(i) = m * ((i_k - 1)^{s_k} - i_k^{s_k}) * prod_{v in e, v != k} i_v^{s_v}  (mod d),

so g_k = X_k * prod_{e: k in e} diag(omega^{T_e}) fixes the state exactly, for
every edge map; ``apply_generator(state, edge_map, k)`` applies it and
``verify`` checks it at every vertex. When s_k = 1 the correction collapses to
the deleted-edge gate on e minus {k} raised to m*(d-1); for s_k >= 2 it does
only in some cases.

Every table here comes from the numpy-free kernel of ``diagonals``: the
corrections are its ``gate_table`` with target k (``shift_row`` on k), and
the shift is its ``roll_table``. This module wraps the tables in numpy types.
``verify``, with its ``VertexCheck``, and ``conjugation_report``, the one
judge of whether the deleted-edge form is exact, live in ``diagonals`` and
run on its tables alone.

Shift convention: X_k lowers the ket, X_k|i_k> = |i_k - 1 mod d>, which in
phase-table form reads f'(i) = f(..., i_k + 1, ...). This is the convention
under which the deleted-edge power m*(d-1) is exact for s_k = 1.
"""

from __future__ import annotations

import numpy as np

from .diagonals import check_target, gate_table, generated_table
from .graphs import MultiHyperedge, WeightedEdgeMap
from .states import PhaseFunction, _from_lanes, _lane_view, _lanes

# Unused here: tests/test_acceptance.py imports both from this module, and
# perfbench/launcher.py wraps them by this path until ROADMAP item 1 step C.
from .diagonals import conjugation_report, verify  # noqa: F401


def correction_exponents(
    edge: MultiHyperedge, power: int, k: int, d: int, n: int
) -> np.ndarray:
    """Exact diagonal exponent table of CZ_e^m X_k CZ_e^{d-m} with the leading
    shift factored off: m * ((i_k-1)^{s_k} - i_k^{s_k}) * prod_{v != k} i_v^{s_v},
    as a fresh flat table of d^n entries."""
    check_target(edge, k, n)
    table = gate_table(d, n, [(edge, power)], k)
    return _lane_view(table, d).astype(np.int64)


def apply_generator(state: PhaseFunction, edge_map: WeightedEdgeMap, k: int) -> PhaseFunction:
    """Apply the map's generator g_k: the exact correction of every edge
    containing k first (edges without k drop out), then the shift on k."""
    d, n = edge_map.d, edge_map.n
    if (state.d, state.n) != (d, n):
        raise ValueError("state and edge map dimensions differ")
    return _from_lanes(d, n, generated_table(edge_map, k, _lanes(state)))
