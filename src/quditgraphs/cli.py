"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Exit codes: 0 success / affirmative result, 1 negative mathematical result
(unsolvable system, unstabilized vertex, broken identity), 2 usage or schema
error, 3 size limit. Data goes to stdout, diagnostics to stderr.

A verb imports what it runs, inside the verb: ``graphs`` where it reads an
edge map or a table, and ``diagonals`` or ``lanes`` past every refusal
that needs no table. No verb imports numpy, at any exit code:
``build-state``, ``verify-stabilizers`` and ``identity-check`` build their
tables with the edge-gate kernel of ``diagonals``, ``matrix`` its block
with ``lanes.power_rows``, and ``solve`` hands the table that
``graphs.phase_table`` checked to ``newton.solve_phases``, which solves on
``lanes`` without the gate kernel. ``census`` loads no ``graphs``, and no
module imports ``dataclasses`` (value types derive from ``graphs._Value``),
so ``solve`` and ``census`` load neither it nor ``inspect``. Every size
refusal is ``residues.check_entries``, ``--all-solutions`` included.

Payloads are written by ``_encode``, byte for byte what
``json.dumps(payload, indent=2)`` writes, and ``build-state --dense``
streams its lines in blocks (``diagonals.dense_blocks``). The process
entry is ``__main__``: it turns a closed stdout into exit 141, and freezes
the request's objects so the interpreter's shutdown collections skip them.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from . import counting
from .residues import SizeLimit, check_entries

if TYPE_CHECKING:
    from .graphs import WeightedEdgeMap

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


# The int lists that ``_encode`` writes through the shared table of texts
# hold values in range(_TEXT_RANGE).
_TEXT_RANGE = 256
_TEXTS = list(map(str, range(_TEXT_RANGE)))

# json's own C function for a str in ASCII-only JSON, as json.dumps writes it.
_quoted = json.encoder.encode_basestring_ascii


def _emit(payload: dict) -> None:
    sys.stdout.write(_encode(payload, "\n") + "\n")


def _encode(value: object, newline: str) -> str:
    """The text ``json.dumps(value, indent=2)`` gives, for ``value`` nested
    at the depth whose lines start with ``newline``. Dict keys are str, as
    in every payload.

    ``json.dumps`` with an indent runs the pure-Python encoder on every
    item. Here containers are written out level by level: keys and str
    values through json's C string encoder, ints, bools and None directly,
    and floats by ``json.dumps``. A list of plain ints, such as a phase
    table, is written in one join, with the item separator carrying the
    line break and the indent. When its values are non-negative and below
    ``_TEXT_RANGE``, the items are looked up in the shared table of texts;
    any other int list goes through the C encoder.
    """
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    separator = "," + inner
    # Items come from generators, so that the list which join makes of them
    # is freed before the brackets are added.
    if isinstance(value, dict) and value:
        items = (f"{_quoted(k)}: {_encode(v, inner)}" for k, v in value.items())
        return "{" + inner + separator.join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:  # one pass in C; a bool is not an int here
            distinct = set(value)
            if min(distinct) >= 0 and max(distinct) < _TEXT_RANGE:
                body = separator.join([_TEXTS[x] for x in value])
            else:
                body = json.dumps(value, separators=(separator, ": "))[1:-1]
            return "[" + inner + body + newline + "]"
        items = (_encode(v, inner) for v in value)
        return "[" + inner + separator.join(items) + newline + "]"
    return json.dumps(value)


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift Python's limit on int -> str digits, for output only: input is
    parsed under the limit. Python before 3.10.7 has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _read_edge_map(args: argparse.Namespace) -> WeightedEdgeMap:
    from . import graphs

    return graphs.from_json(_read_file(args.graph))


def _read_file(path: str | None) -> str:
    """The text of the file at ``path``, or of stdin when ``path`` is None,
    decoded as strict UTF-8 whatever the locale. A source that cannot be
    read or decoded is a SchemaError at "$" that names it (``<stdin>``).
    A stdin that was closed when Python started is ``None``, and is refused
    as reading the closed descriptor would be."""
    try:
        if path is None:
            if sys.stdin is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            # Stdin's bytes take a file's decoding, not the locale's text layer.
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return stdin.read()
            finally:
                stdin.detach()  # so that closing the wrapper leaves stdin open
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        from .graphs import SchemaError

        reason = exc.strerror if isinstance(exc, OSError) else str(exc)
        source = "<stdin>" if path is None else path
        raise SchemaError("$", f"cannot read {source}: {reason}") from exc


def _cmd_build_state(args: argparse.Namespace) -> int:
    edge_map = _read_edge_map(args)
    d, n = edge_map.d, edge_map.n
    from . import diagonals  # its kernel refuses an oversized table before any work
    from .lanes import lane_values

    phases = lane_values(diagonals.edge_map_table(edge_map), d)
    if args.dense:
        for block in diagonals.dense_blocks(d, n, phases):
            sys.stdout.write(block)
    else:
        _emit({"d": d, "n": n, "phases": list(phases)})
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import graphs, newton

    d, n, phases = graphs.phase_table(graphs.decode_json(_read_file(args.phases)))
    outcome = newton.solve_phases(d, n, phases, args.mode)
    solution = outcome.solution
    payload = {
        "mode": args.mode,
        "consistent": solution.consistent,
        "count": solution.count,
        "solution": graphs.to_dict(outcome.edge_map) if outcome.edge_map else None,
        "fingerprint": outcome.fingerprint,
    }
    # An exact count may have any number of digits.
    with _any_int_digits():
        if args.all_solutions and solution.consistent:
            if solution.count <= args.solution_cap:
                check_entries("solutions", solution.count, len(solution.particular), 1)
                payload["all_solutions"] = [
                    graphs.to_dict(m) for m in outcome.edge_maps(cap=args.solution_cap)
                ]
            else:
                payload["all_solutions_omitted"] = (
                    f"count {solution.count} exceeds cap {args.solution_cap}"
                )
        _emit(payload)
    return EXIT_OK if solution.consistent else EXIT_NEGATIVE


def _cmd_verify_stabilizers(args: argparse.Namespace) -> int:
    edge_map = _read_edge_map(args)
    from . import diagonals  # its kernel refuses an oversized table before any work

    checks = diagonals.verify(edge_map)
    payload = {
        "d": edge_map.d,
        "n": edge_map.n,
        "vertices": [
            {
                "vertex": c.vertex,
                "stabilized": c.stabilized,
                "mismatch_indices": list(c.mismatch_indices),
            }
            for c in checks
        ],
        "all_stabilized": all(c.stabilized for c in checks),
    }
    _emit(payload)
    return EXIT_OK if payload["all_stabilized"] else EXIT_NEGATIVE


def _cmd_census(args: argparse.Namespace) -> int:
    report = counting.census(args.d, args.n, args.mode)
    _emit(report.to_dict())
    return EXIT_OK


def _check_identity_size(d: int, n: int, exhaustive: bool) -> None:
    """Refuse before any edge is listed when the checks would compute
    checked × d^n table entries at or above the table limit.

    Each edge of arity t gives d·t checks. Over every edge that is
    n(d-1)d^n checks; over the edges of arity <= 2, d·(n(d-1) + n(n-1)(d-1)^2).
    So the entries are n(d-1)·d^(2n) or (n(d-1) + n(n-1)(d-1)^2)·d^(n+1).
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    if exhaustive:
        count, exponent = n * (d - 1), 2 * n
    else:
        count, exponent = n * (d - 1) + n * (n - 1) * (d - 1) ** 2, n + 1
    check_entries("identity-check tables", count, d, exponent)


def _cmd_identity_check(args: argparse.Namespace) -> int:
    d, n = args.d, args.n
    _check_identity_size(d, n, args.exhaustive)
    from . import diagonals, graphs

    edges = graphs.enumerate_multihyperedges(n, d, max_arity=None if args.exhaustive else 2)
    mismatches = []
    verdicts: dict[int, bool] = {}
    checked = 0
    for edge in edges:
        for report in diagonals.edge_reports(edge, d, n):
            checked += 1
            s_k = report.target_exponent
            verdicts[s_k] = verdicts.get(s_k, True) and report.holds
            if not report.holds:
                mismatches.append(
                    {
                        "vertices": list(edge.vertices),
                        "exponents": list(edge.exponents),
                        "power": report.power,
                        "vertex": report.vertex,
                        "target_exponent": s_k,
                        "correction_diagonal": report.exact_diagonal,
                        "deleted_edge_diagonal": report.printed_diagonal,
                    }
                )
    payload = {
        "d": d,
        "n": n,
        "exhaustive": bool(args.exhaustive),
        "checked": checked,
        "deleted_edge_form_exact_by_target_exponent": {
            str(k): v for k, v in sorted(verdicts.items())
        },
        "all_hold": not mismatches,
        "mismatches": mismatches,
    }
    _emit(payload)
    return EXIT_OK if not mismatches else EXIT_NEGATIVE


def _cmd_matrix(args: argparse.Namespace) -> int:
    counting._check_block(args.d, args.block)
    from .lanes import coefficient_lanes, lane_values  # after the size check

    side, block = coefficient_lanes(args.d, args.block)
    entries = list(lane_values(block, args.d))
    del block  # not held while the payload is encoded
    payload = {
        "d": args.d,
        "block": args.block,
        "rows": side,
        "cols": side,
        "entries": entries,
    }
    _emit(payload)
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditgraphs",
        description="Exact qudit (multi)hypergraph states, stabilizers, and weight solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-state", help="edge-map JSON -> phase-table JSON")
    src = build.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-map JSON file")
    src.add_argument("--stdin", action="store_true", help="read edge-map JSON from stdin")
    build.add_argument(
        "--dense", action="store_true", help="emit dense amplitudes (text) instead of JSON"
    )
    build.set_defaults(func=_cmd_build_state)

    solve = sub.add_parser("solve", help="phase-table JSON -> weight solution JSON")
    solve.add_argument("--phases", required=True, help="phase-table JSON file")
    solve.add_argument("--mode", required=True, choices=counting.MODES)
    solve.add_argument("--all-solutions", action="store_true")
    solve.add_argument("--solution-cap", type=_non_negative_int, default=1024)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify-stabilizers", help="check g_k|G> = |G> per vertex")
    vsrc = ver.add_mutually_exclusive_group(required=True)
    vsrc.add_argument("--graph", help="edge-map JSON file")
    vsrc.add_argument("--stdin", action="store_true")
    ver.set_defaults(func=_cmd_verify_stabilizers)

    cen = sub.add_parser("census", help="classify every canonical table at (d, n)")
    cen.add_argument("--d", type=int, required=True)
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--mode", required=True, choices=counting.MODES)
    cen.set_defaults(func=_cmd_census)

    idc = sub.add_parser(
        "identity-check",
        help="compare conjugated gates against their deleted-edge form",
    )
    idc.add_argument("--d", type=int, required=True)
    idc.add_argument("--n", type=int, required=True)
    idc.add_argument(
        "--exhaustive",
        action="store_true",
        help="check every multihyperedge (default: supports of size <= 2)",
    )
    idc.set_defaults(func=_cmd_identity_check)

    mat = sub.add_parser("matrix", help="emit the digit-power coefficient block")
    mat.add_argument("--d", type=int, required=True)
    mat.add_argument("--block", type=int, required=True, help="Kronecker power")
    mat.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    # SizeLimit is a ValueError, so it is caught first. Schema, JSON and
    # non-canonical table errors are ValueErrors too.
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

