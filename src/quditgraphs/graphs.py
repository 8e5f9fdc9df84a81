"""Vertices, edges, hyperedges, and multihyperedges with Z_d weights.

A multihyperedge carries one exponent per member vertex; plain hyperedges are
the all-ones special case, and graph edges the two-vertex one. A
``WeightedEdgeMap`` assigns each edge a weight in Z_d and is kept canonical:
weights reduced mod d, zero-weight edges dropped, edges ordered by support
size, then vertex tuple, then exponent tuple (the same order the enumeration
functions produce).
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .counting import edge_tuples
from .residues import check_entries


class SchemaError(ValueError):
    """Invalid serialized input; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class MultiHyperedge:
    """A nonempty strictly increasing vertex tuple with per-vertex exponents >= 1."""

    vertices: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("the empty edge is excluded")
        if len(self.vertices) != len(self.exponents):
            raise ValueError("one exponent per vertex required")
        if any(v < 0 for v in self.vertices):
            raise ValueError("negative vertex index")
        if any(a >= b for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError("vertices must be strictly increasing")
        if any(s < 1 for s in self.exponents):
            raise ValueError("exponents must be >= 1")

    @property
    def arity(self) -> int:
        return len(self.vertices)

    def sort_key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return (self.arity, self.vertices, self.exponents)

    def without_vertex(self, k: int) -> "MultiHyperedge | None":
        """The edge with vertex k deleted, or None when k was the only vertex."""
        if k not in self.vertices:
            raise ValueError(f"vertex {k} not in edge")
        pairs = [(v, s) for v, s in zip(self.vertices, self.exponents) if v != k]
        if not pairs:
            return None
        vs, ss = zip(*pairs)
        return MultiHyperedge(vs, ss)


def hyperedge(*vertices: int) -> MultiHyperedge:
    """Plain hyperedge: all exponents 1."""
    return MultiHyperedge(tuple(vertices), (1,) * len(vertices))


class GraphKind(enum.Enum):
    GRAPH = "graph"
    HYPERGRAPH = "hypergraph"
    MULTIGRAPH = "multigraph"
    MULTIHYPERGRAPH = "multihypergraph"


def edge_fits_kind(edge: MultiHyperedge, kind: GraphKind) -> bool:
    if kind in (GraphKind.GRAPH, GraphKind.MULTIGRAPH) and edge.arity != 2:
        return False
    if kind in (GraphKind.GRAPH, GraphKind.HYPERGRAPH) and any(
        s != 1 for s in edge.exponents
    ):
        return False
    return True


@dataclass(frozen=True)
class WeightedEdgeMap:
    """Canonical map edge -> weight over Z_d on n vertices.

    Construction reduces weights mod d, drops zero weights (a gate applied 0
    times is the identity), and validates vertex and exponent ranges.
    """

    d: int
    n: int
    weights: Mapping[MultiHyperedge, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        canonical: dict[MultiHyperedge, int] = {}
        for edge in sorted(self.weights, key=MultiHyperedge.sort_key):
            if edge.vertices[-1] >= self.n:
                raise ValueError(f"edge {edge} references a vertex >= {self.n}")
            if any(s > self.d - 1 for s in edge.exponents):
                raise ValueError(f"edge {edge} has an exponent >= d = {self.d}")
            w = self.weights[edge] % self.d
            if w:
                canonical[edge] = w
        object.__setattr__(self, "weights", canonical)

    def edges(self) -> tuple[MultiHyperedge, ...]:
        return tuple(self.weights)

    def items(self) -> Iterable[tuple[MultiHyperedge, int]]:
        return self.weights.items()


def validate_kind(edge_map: WeightedEdgeMap, kind: GraphKind) -> bool:
    """True iff every edge of the map satisfies the kind's restriction."""
    return all(edge_fits_kind(e, kind) for e in edge_map.weights)


def enumerate_hyperedges(n: int) -> list[MultiHyperedge]:
    """All 2^n - 1 nonempty hyperedges, by support size then vertex tuple."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [MultiHyperedge(*pair) for pair in edge_tuples(n, 2)]


def enumerate_multihyperedges(
    n: int, d: int, max_arity: int | None = None
) -> list[MultiHyperedge]:
    """All d^n - 1 multihyperedges: every nonempty support crossed with every
    exponent tuple in {1, ..., d-1}^t, ordered by support size, vertex tuple,
    then exponent tuple. ``max_arity`` keeps only supports up to that size."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return [MultiHyperedge(*pair) for pair in edge_tuples(n, d, max_arity)]


# --- JSON serialization -----------------------------------------------------
#
# Schema: {"d": int, "n": int, "edges": [{"vertices": [int...],
#          "exponents": [int...], "weight": int}]}, field order fixed.


def to_dict(edge_map: WeightedEdgeMap) -> dict[str, Any]:
    return {
        "d": edge_map.d,
        "n": edge_map.n,
        "edges": [
            {
                "vertices": list(edge.vertices),
                "exponents": list(edge.exponents),
                "weight": weight,
            }
            for edge, weight in edge_map.items()
        ],
    }


def to_json(edge_map: WeightedEdgeMap) -> str:
    return json.dumps(to_dict(edge_map), indent=2) + "\n"


def _cut(text: str) -> str:
    return text if len(text) <= 80 else text[:77] + "..."


def _shown(value: Any) -> str:
    """A repr of an input value for an error message, at most 80 characters:
    ``reprlib`` elides long containers, strings and ints without building
    their full repr, so a refusal never echoes a large input back."""
    import reprlib  # only refusals need it

    return _cut(reprlib.repr(value))


def _expect_int(value: Any, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, f"expected an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {_shown(value)}")
    return value


def _expect_int_list(value: Any, path: str) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {_shown(value)}")
    if set(map(type, value)) <= {int}:  # one pass in C; subclasses take the loop
        return value
    return [_expect_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def phase_table(payload: Any) -> tuple[int, int, list[int]]:
    """(d, n, phases) of a phase-table payload {"d", "n", "phases"}, every
    schema and size rule checked: d^n entries under the table limit, each an
    int in [0, d). It needs no numpy, so ``solve`` refuses any bad table
    before loading it; ``states.phases_from_dict`` is this and the array."""
    if not isinstance(payload, dict):
        raise SchemaError("$", f"expected an object, got {_shown(payload)}")
    for key in ("d", "n", "phases"):
        if key not in payload:
            raise SchemaError(key, "missing required field")
    d = _expect_int(payload["d"], "d", minimum=2)
    n = _expect_int(payload["n"], "n", minimum=1)
    check_entries("table", 1, d, n)
    phases = _expect_int_list(payload["phases"], "phases")
    if len(phases) != d**n:
        raise SchemaError("phases", f"expected d^n = {d ** n} entries, got {len(phases)}")
    if min(phases) < 0 or max(phases) >= d:
        i = next(i for i, x in enumerate(phases) if not 0 <= x < d)
        raise SchemaError(f"phases[{i}]", f"entry out of range [0, {d})")
    return d, n, phases


def from_dict(payload: Any) -> WeightedEdgeMap:
    if not isinstance(payload, dict):
        raise SchemaError("$", f"expected an object, got {_shown(payload)}")
    for key in ("d", "n", "edges"):
        if key not in payload:
            raise SchemaError(key, "missing required field")
    unknown = set(payload) - {"d", "n", "edges"}
    if unknown:
        raise SchemaError(_cut(sorted(unknown)[0]), "unknown field")
    d = _expect_int(payload["d"], "d", minimum=2)
    n = _expect_int(payload["n"], "n", minimum=1)
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges", f"expected a list, got {_shown(edges)}")
    weights: dict[MultiHyperedge, int] = {}
    for i, item in enumerate(edges):
        path = f"edges[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, f"expected an object, got {_shown(item)}")
        for key in ("vertices", "exponents", "weight"):
            if key not in item:
                raise SchemaError(f"{path}.{key}", "missing required field")
        vertices = _expect_int_list(item["vertices"], f"{path}.vertices")
        exponents = _expect_int_list(item["exponents"], f"{path}.exponents")
        weight = _expect_int(item["weight"], f"{path}.weight")
        if not vertices:
            raise SchemaError(f"{path}.vertices", "edge must be nonempty")
        if len(vertices) != len(exponents):
            raise SchemaError(f"{path}.exponents", "one exponent per vertex required")
        for j, v in enumerate(vertices):
            if not 0 <= v < n:
                raise SchemaError(f"{path}.vertices[{j}]", f"vertex out of range [0, {n})")
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise SchemaError(f"{path}.vertices", "vertices must be strictly increasing")
        for j, s in enumerate(exponents):
            if not 1 <= s <= d - 1:
                raise SchemaError(
                    f"{path}.exponents[{j}]", f"exponent out of range [1, {d - 1}]"
                )
        if not 0 <= weight < d:
            raise SchemaError(f"{path}.weight", f"weight out of range [0, {d})")
        edge = MultiHyperedge(tuple(vertices), tuple(exponents))
        if edge in weights:
            raise SchemaError(path, "duplicate edge")
        weights[edge] = weight
    return WeightedEdgeMap(d, n, weights)


def decode_json(text: str) -> Any:
    """``json.loads``, raising SchemaError at "$" on malformed JSON, nesting
    too deep for the decoder and integers past Python's digit limit included:
    a CLI request exits 2 on each, not with a traceback. The digit limit is
    named, without the decoder's advice to raise it, which only a program can
    follow."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # the decoder's only other error: an int past the digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError("$", f"invalid JSON: integer longer than {limit} digits") from exc


def from_json(text: str) -> WeightedEdgeMap:
    return from_dict(decode_json(text))
