"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Exit codes: 0 success / affirmative result, 1 negative mathematical result
(unsolvable system, unstabilized vertex, broken identity), 2 usage or schema
error, 3 size limit. Data goes to stdout, diagnostics to stderr.

A verb imports what it runs, inside the verb: ``graphs`` where it reads an
edge map or a table, and the numpy-backed modules (``build-state``,
``verify-stabilizers`` and ``matrix``) only past every refusal. So
``census``, usage errors, every size refusal and every schema refusal start
and finish without numpy, and ``census`` loads no ``graphs``.
``identity-check`` builds its tables as lists in ``diagonals`` and loads no
numpy at any exit code. No module of the package imports ``dataclasses``
(its value types derive from ``graphs._Value``), so ``solve`` and
``census`` load neither it nor the ``inspect`` it imports; numpy imports
``inspect`` itself. ``solve`` checks its whole table with
``graphs.phase_table`` and hands it to ``newton.solve_phases``, which
solves on Python lists and loads no numpy at all. Every size refusal is
``residues.check_entries``, the listing of ``--all-solutions`` included.

Payloads are written by ``_encode``, byte for byte what
``json.dumps(payload, indent=2)`` writes, and ``build-state --dense``
streams its lines in blocks. The process entry is ``__main__``: it runs
OpenBLAS with one thread unless the caller set ``OPENBLAS_NUM_THREADS``,
turns a closed stdout into exit 141, and freezes the request's objects so
the interpreter's shutdown collections skip them.
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


# The int lists that ``_encode`` writes through a table of texts hold values
# in range(_TEXT_RANGE); the table costs at most this many ``str`` calls.
_TEXT_RANGE = 256


def _emit(payload: dict) -> None:
    sys.stdout.write(_encode(payload, "\n") + "\n")


def _encode(value: object, newline: str) -> str:
    """The text ``json.dumps(value, indent=2)`` gives, for ``value`` nested
    at the depth whose lines start with ``newline``. Dict keys are str, as
    in every payload.

    ``json.dumps`` with an indent runs the pure-Python encoder on every
    item. Here containers are written out level by level, and a list of
    plain ints, such as a phase table, is written in one join, with the
    item separator carrying the line break and the indent. When its values
    are small and non-negative (below ``_TEXT_RANGE``), as in a phase table
    or a diagonal, each value in that range is converted with ``str`` once
    and the items are looked up in that table; any other int list goes
    through the C encoder.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in value.items())
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:  # one pass in C; a bool is not an int here
            distinct = set(value)
            top = max(distinct)
            if min(distinct) >= 0 and top < _TEXT_RANGE:
                texts = list(map(str, range(top + 1)))
                body = ("," + inner).join([texts[x] for x in value])
            else:
                body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
            return "[" + inner + body + newline + "]"
        items = (_encode(v, inner) for v in value)
    else:
        return json.dumps(value)
    opening, closing = ("{", "}") if isinstance(value, dict) else ("[", "]")
    return opening + inner + ("," + inner).join(items) + newline + closing


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
    check_entries("table", 1, edge_map.d, edge_map.n)
    from . import states  # after the size check: a refusal loads no numpy

    state = states.build_state(edge_map)
    if args.dense:
        for block in states.dense_blocks(state):
            sys.stdout.write(block)
    else:
        _emit(states.phases_to_dict(state))
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
    check_entries("table", 1, edge_map.d, edge_map.n)
    from . import stabilizers  # after the size check: a refusal loads no numpy

    checks = stabilizers.verify(edge_map)
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
    from . import correspondence  # after the size check: a refusal loads no numpy

    block = correspondence.coefficient_block(args.d, args.block)
    payload = {
        "d": args.d,
        "block": args.block,
        "rows": block.shape[0],
        "cols": block.shape[1],
        "entries": block.ravel().tolist(),
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

