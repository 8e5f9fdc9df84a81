"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Exit codes: 0 success / affirmative result, 1 negative mathematical result
(unsolvable system, unstabilized vertex, broken identity), 2 usage or schema
error, 3 size limit. Data goes to stdout, diagnostics to stderr.

``_parse`` reads argv from the table ``_VERBS`` as the standard library's
parser that it replaced did (``tests/oracles.py`` keeps that parser as its
oracle), and loads neither it nor gettext or locale. ``-h`` prints usage to
stdout and exits 0; any other usage error is one ``error:`` line and exit 2.

A verb imports what it runs, inside the verb: ``graphs`` where it reads an
edge map or a table, and ``diagonals`` or ``lanes`` past every refusal
that needs no table. No verb imports numpy, at any exit code:
``build-state``, ``verify-stabilizers`` and ``identity-check`` build their
tables with the edge-gate kernel of ``diagonals``, ``matrix`` its block
with ``counting.coefficient_lanes``, which refuses a bad block before it
imports ``lanes``, and ``solve`` hands the table that
``graphs.phase_table`` checked to ``newton.solve_phases``, which solves on
``lanes`` without the gate kernel. ``census`` loads no ``graphs``, and no
module imports ``dataclasses`` (value types derive from ``graphs._Value``),
so ``solve`` and ``census`` load neither it nor ``inspect``. Every size
refusal is ``counting.check_entries``, ``--all-solutions`` included.

Payloads are written by ``_encode``, byte for byte what
``json.dumps(payload, indent=2)`` writes, and ``build-state --dense``
streams its lines in blocks (``diagonals.dense_blocks``). The process
entry is ``__main__``: it turns a closed stdout into exit 141, and freezes
the request's objects so the interpreter's shutdown collections skip them.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from itertools import takewhile
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from . import counting
from .counting import SizeLimit, check_entries

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


def _read_edge_map(args: SimpleNamespace) -> WeightedEdgeMap:
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


def _cmd_build_state(args: SimpleNamespace) -> int:
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


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_verify_stabilizers(args: SimpleNamespace) -> int:
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


def _cmd_census(args: SimpleNamespace) -> int:
    # The counts and the histogram's keys may have any number of digits.
    with _any_int_digits():
        _emit(counting.census(args.d, args.n, args.mode).to_dict())
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


def _cmd_identity_check(args: SimpleNamespace) -> int:
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


def _cmd_matrix(args: SimpleNamespace) -> int:
    side, block = counting.coefficient_lanes(args.d, args.block)
    from .lanes import lane_values

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
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


# Each verb: its handler, its help line and its options, each mapped to the
# kind of its value: a function of the text, a tuple of choices, or None for
# a switch (False unless given). A valued option is required unless _DEFAULTS
# holds its default; a verb with both options of _ONE_OF takes exactly one.
_VERBS = {
    "build-state": (_cmd_build_state, "edge map (--graph or --stdin) -> phase table",
                    {"--graph": str, "--stdin": None, "--dense": None}),
    "solve": (_cmd_solve, "phase table -> weight solution", {
        "--phases": str, "--mode": counting.MODES, "--all-solutions": None,
        "--solution-cap": _non_negative_int}),
    "verify-stabilizers": (_cmd_verify_stabilizers, "check g_k|G> = |G> per vertex",
                           {"--graph": str, "--stdin": None}),
    "census": (_cmd_census, "classify every canonical table at (d, n)",
               {"--d": int, "--n": int, "--mode": counting.MODES}),
    "identity-check": (_cmd_identity_check, "compare conjugated gates with the deleted-edge form",
                       {"--d": int, "--n": int, "--exhaustive": None}),
    "matrix": (_cmd_matrix, "emit the digit-power coefficient block",
               {"--d": int, "--block": int}),
}
_DEFAULTS = {"--graph": None, "--solution-cap": 1024}
_ONE_OF = {"--graph", "--stdin"}
_HELP = ("-h", "--help")


def _option(arg: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """None for an operand, else the option of ``names`` that ``arg`` names
    (None if none) and its ``=`` value (None if none), as the old parser read
    them: a long option by a unique prefix too, ``-hh`` as ``-h`` valued ``h``."""
    if arg == "--":
        raise ValueError("unrecognized arguments: '--' and what follows it")
    if arg[:1] != "-" or arg == "-":
        return None
    name, equals, value = arg.partition("=")
    if name in names:
        return name, value if equals else None
    found = [option for option in names if arg[1] == "-" and option.startswith(name)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {arg!r} could match {', '.join(found)}")
    if found:
        return found[0], value if equals else None
    if arg[:2] in names:
        return arg[:2], arg[2:]
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def _parse(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler of ``argv`` and its arguments, read as the old parser read
    them: the first operand is the verb, ``-h`` asks for help where it stands,
    an option takes the next argument unless that is an option (a negative
    number is not), and the last of a repeated option wins. Raises ValueError."""
    argv, verb, names, options, given, stray, at = list(argv), None, _HELP, {}, {}, [], 0
    while at < len(argv):
        arg, at = argv[at], at + 1
        option = _option(arg, names)
        if option is None and verb is None:
            if arg not in _VERBS:
                raise ValueError(f"invalid verb: {arg!r} (choose from {', '.join(_VERBS)})")
            verb, options = arg, _VERBS[arg][2]
            names = (*_HELP, *options)
            for later in takewhile("--".__ne__, argv[at:]):
                _option(later, names)  # an ambiguous prefix fails before any option acts
            continue
        name, value = option or (None, None)
        kind = options.get(name)
        if name is None:
            stray.append(arg)
            continue
        if name in _HELP and (value is None or name == "-h" and value and not value.strip("h")):
            return _cmd_help, SimpleNamespace(command=verb)
        if kind is None:  # a switch, or -h with a value other than h's
            if value is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            given[name] = True
        else:
            if value is None and at < len(argv) and not _option(argv[at], names):
                value, at = argv[at], at + 1
            if value in (None, "--"):  # the old parser made "--d=--" an empty list
                raise ValueError(f"argument {name}: expected one argument")
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"argument {name}: {value!r} is not one of {', '.join(kind)}")
            try:
                given[name] = value if isinstance(kind, tuple) else kind(value)
            except ValueError as exc:
                raise ValueError(f"argument {name}: {exc}") from None
        if _ONE_OF <= given.keys():
            raise ValueError("argument --stdin: not allowed with argument --graph")
    if verb is None:
        raise ValueError(f"a verb is required: one of {', '.join(_VERBS)}")
    missing = [name for name, kind in options.items()
               if kind is not None and name not in given.keys() | _DEFAULTS.keys()]
    if _ONE_OF <= options.keys() and not _ONE_OF & given.keys():
        missing.append("--graph or --stdin")
    if missing:
        raise ValueError(f"{verb} needs {', '.join(missing)}")
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(map(repr, stray))}")
    defaults = {name: _DEFAULTS.get(name, False) for name in options}
    values = {name[2:].replace("-", "_"): value for name, value in {**defaults, **given}.items()}
    return _VERBS[verb][0], SimpleNamespace(command=verb, **values)


def _cmd_help(args: SimpleNamespace) -> int:
    """Print the usage of the verb ``args.command``, or of every verb."""
    for verb in [args.command] if args.command else _VERBS:
        _, line, options = _VERBS[verb]
        words = []
        for name, kind in options.items():  # an optional one in brackets
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
            word = f"{name} {metavar}" if kind else name
            words.append(word if kind and name not in _DEFAULTS else f"[{word}]")
        print(f"usage: quditgraphs {verb} [-h] {' '.join(words)}\n    {line}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    # SizeLimit is a ValueError, so it is caught first. Schema, JSON and
    # non-canonical table errors are ValueErrors too.
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

