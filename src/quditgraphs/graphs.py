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
import operator
import sys
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from .counting import edge_tuples
from .residues import check_entries


class SchemaError(ValueError):
    """Invalid serialized input; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class _Value:
    """An immutable value with the fields ``_fields``, the base of the
    package's data types.

    ``__init__`` binds its arguments to ``_fields``, by position in field
    order or by name, and raises TypeError, naming the class and its
    fields, on a missing, extra or repeated field. A subclass writes
    ``__init__`` only to validate or reshape its input, and then sets each
    field once through ``_set``. After that, assigning or deleting an
    attribute raises AttributeError, while copy and pickle still work.
    ``==`` holds between two instances of one class with equal field
    tuples, ``hash`` is the hash of that tuple (a TypeError when a field is
    unhashable), and the repr names every field, as a frozen dataclass's
    do. A frozen dataclass would import ``dataclasses``, and with it
    ``inspect``, on every cold start, and ``exec`` each generated method. A
    subclass lists its fields and any private cache in ``__slots__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if len(args) + len(kwargs) != len(fields):
            raise self._unbound(args, kwargs)
        values = dict(zip(fields, args), **kwargs) if args else kwargs
        try:  # as many arguments as fields: one left unbound means one repeated or unknown
            for name in fields:
                object.__setattr__(self, name, values[name])
        except KeyError:
            raise self._unbound(args, kwargs) from None

    def _unbound(self, args: tuple[Any, ...], kwargs: dict[str, Any]) -> TypeError:
        """The TypeError for arguments that do not bind one to each field."""
        fields, count = self._fields, len(args)
        extra = count > len(fields)
        faults = [f"{count} positional arguments for {len(fields)} fields"] if extra else []
        faults += [f"{name!r} given twice" for name in fields[:count] if name in kwargs]
        faults += [f"unknown field {name!r}" for name in kwargs if name not in fields]
        faults += [f"missing {name!r}" for name in fields[count:] if name not in kwargs]
        return TypeError(f"{type(self).__qualname__}({', '.join(fields)}): {', '.join(faults)}")

    def _set(self, **fields: Any) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def _field_values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        # copy and pickle restore a slotted object from (None, {slot: value}).
        self._set(**state[1])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MultiHyperedge(_Value):
    """A nonempty strictly increasing vertex tuple with per-vertex exponents >= 1."""

    __slots__ = _fields = ("vertices", "exponents")
    vertices: tuple[int, ...]
    exponents: tuple[int, ...]

    def __init__(self, vertices: tuple[int, ...], exponents: tuple[int, ...]):
        if not vertices:
            raise ValueError("the empty edge is excluded")
        if len(vertices) != len(exponents):
            raise ValueError("one exponent per vertex required")
        if min(vertices) < 0:
            raise ValueError("negative vertex index")
        if not all(map(operator.lt, vertices, vertices[1:])):
            raise ValueError("vertices must be strictly increasing")
        if min(exponents) < 1:
            raise ValueError("exponents must be >= 1")
        self._set(vertices=vertices, exponents=exponents)

    def __hash__(self) -> int:
        # _Value's field-tuple hash, without its loop over the fields: every
        # edge map hashes each of its edges several times.
        return hash((self.vertices, self.exponents))

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


class WeightedEdgeMap(_Value):
    """Canonical map edge -> weight over Z_d on n vertices.

    Construction reduces weights mod d, drops zero weights (a gate applied 0
    times is the identity), and validates vertex and exponent ranges. A
    weight that ``operator.index`` refuses raises ValueError.
    """

    __slots__ = _fields = ("d", "n", "weights")
    d: int
    n: int
    weights: dict[MultiHyperedge, int]

    def __init__(
        self, d: int, n: int, weights: Mapping[MultiHyperedge, int] = MappingProxyType({})
    ):
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        canonical: dict[MultiHyperedge, int] = {}
        for edge in sorted(weights, key=MultiHyperedge.sort_key):
            if edge.vertices[-1] >= n:
                raise ValueError(f"edge {edge} references a vertex >= {n}")
            if max(edge.exponents) > d - 1:
                raise ValueError(f"edge {edge} has an exponent >= d = {d}")
            try:
                w = operator.index(weights[edge]) % d
            except TypeError as exc:
                raise ValueError(f"edge {edge} weight: {exc}") from None
            if w:
                canonical[edge] = w
        self._set(d=d, n=n, weights=canonical)

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


def _cut(text: str) -> str:
    return text if len(text) <= 80 else text[:77] + "..."


def _shown(value: Any) -> str:
    """A repr of an input value for an error message, at most 80 characters:
    ``reprlib`` elides long containers, strings and ints without building
    their full repr, so a refusal never echoes a large input back."""
    import reprlib  # only refusals need it

    return _cut(reprlib.repr(value))


def _expect_object(value: Any, path: str, keys: tuple[str, ...]) -> None:
    """That ``value`` is a JSON object holding each of ``keys`` and no other
    key: the one rule for every object of both schemas. Field paths extend
    ``path``, and a top-level ("$") field's path is its bare key."""
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {_shown(value)}")
    prefix = "" if path == "$" else f"{path}."
    for key in keys:
        if key not in value:
            raise SchemaError(prefix + key, "missing required field")
    if len(value) > len(keys):
        raise SchemaError(prefix + _cut(min(set(value) - set(keys))), "unknown field")


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
    before loading it; ``states.PhaseFunction(*phase_table(payload))`` is
    the table as an array."""
    _expect_object(payload, "$", ("d", "n", "phases"))
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
    _expect_object(payload, "$", ("d", "n", "edges"))
    d = _expect_int(payload["d"], "d", minimum=2)
    n = _expect_int(payload["n"], "n", minimum=1)
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges", f"expected a list, got {_shown(edges)}")
    weights: dict[MultiHyperedge, int] = {}
    for i, item in enumerate(edges):
        path = f"edges[{i}]"
        _expect_object(item, path, ("vertices", "exponents", "weight"))
        vertices = _expect_int_list(item["vertices"], f"{path}.vertices")
        exponents = _expect_int_list(item["exponents"], f"{path}.exponents")
        weight = _expect_int(item["weight"], f"{path}.weight")
        if not vertices:
            raise SchemaError(f"{path}.vertices", "edge must be nonempty")
        if len(vertices) != len(exponents):
            raise SchemaError(f"{path}.exponents", "one exponent per vertex required")
        if min(vertices) < 0 or max(vertices) >= n:
            j = next(j for j, v in enumerate(vertices) if not 0 <= v < n)
            raise SchemaError(f"{path}.vertices[{j}]", f"vertex out of range [0, {n})")
        if not all(map(operator.lt, vertices, vertices[1:])):
            raise SchemaError(f"{path}.vertices", "vertices must be strictly increasing")
        if min(exponents) < 1 or max(exponents) > d - 1:
            j = next(j for j, s in enumerate(exponents) if not 1 <= s <= d - 1)
            raise SchemaError(f"{path}.exponents[{j}]", f"exponent out of range [1, {d - 1}]")
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
