"""Traced entry point for one CLI request.

Usage: python perfbench/launcher.py SPANS_FILE REQUEST_ID -- CLI_ARGS...

Wraps the public functions of each quditgraphs module in a timing span,
replacing every module-level name bound to the original (``correspondence``
binds ``build_state`` by import, ``stabilizers`` calls ``monomial_table``
through its own globals), then runs ``quditgraphs.cli.main``. A name that no
longer exists is skipped, and a measure that fails on a changed signature
records nothing, so removing or changing a function only drops its metrics.
Spans stay in memory and are written to SPANS_FILE as JSON at exit, with the
``perf_counter_ns`` reading taken before the wrappers are installed (the
clock is CLOCK_MONOTONIC, so the parent process can compare it with its own).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns


def _rows_cols(matrix) -> int:
    return matrix.rows * matrix.cols


# (module, attribute path, measure(args, result) -> number or None).
SPANS = [
    ("cli", "main", None),
    ("graphs", "from_json", lambda a, r: len(r.weights)),
    ("states", "phases_from_dict", None),
    ("states", "build_state", None),
    ("states", "to_dense", None),
    ("states", "dense_text", None),
    ("correspondence", "solve_weights", None),
    ("correspondence", "build_system", lambda a, r: _rows_cols(r.matrix)),
    ("correspondence", "census", None),
    ("correspondence", "CorrespondenceSystem.fingerprint", None),
    ("residues", "PrimeSolver.__init__", lambda a, r: _rows_cols(a[1])),
    ("residues", "SmithSolver.__init__", lambda a, r: _rows_cols(a[1])),
    ("stabilizers", "verify", None),
    ("stabilizers", "conjugation_report", None),
]

# Called up to d^(d^n-1) times per census: timed in aggregate per parent
# span (calls, total ns, summed measure) rather than one span per call.
AGGREGATES = [
    ("residues", "PrimeSolver.solve", lambda a, r: int(r.consistent)),
    ("residues", "SmithSolver.solve", lambda a, r: int(r.consistent)),
]

# Called thousands of times inside the spans above: counted, not timed.
COUNTERS = [
    ("states", "monomial_table", lambda a, r: a[0] ** a[1]),
    ("stabilizers", "correction_exponents", None),
]


def _measured(measure, args, result):
    """The measure's value, or None when it no longer fits the call."""
    try:
        return measure(args, result)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None  # a changed signature drops the metric, not the request


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start ns, end ns, parent index, measure]
        self.stack: list[int] = []
        self.aggregates: dict[tuple, list] = {}  # (name, parent index) -> [calls, ns, measure total]
        self.counters: dict[str, list] = {}  # name -> [calls, measure total]

    def span(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self.stack.pop()
            if measure is not None:
                record[4] = _measured(measure, args, result)
            return result

        return wrapper

    def aggregate(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            key = (name, self.stack[-1] if self.stack else -1)
            totals = self.aggregates.get(key)
            if totals is None:
                totals = self.aggregates[key] = [0, 0, 0]
            totals[0] += 1
            totals[1] += elapsed
            if measure is not None:
                totals[2] += _measured(measure, args, result) or 0
            return result

        return wrapper

    def counter(self, name, fn, measure):
        totals = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            totals[0] += 1
            if measure is not None:
                totals[1] += _measured(measure, args, result) or 0
            return result

        return wrapper


def _install(make_wrapper, module_name: str, path: str, measure) -> None:
    try:
        module = importlib.import_module(f"quditgraphs.{module_name}")
    except ImportError:
        return
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        return
    wrapper = make_wrapper(f"{module_name}.{path}", original, measure)
    if outer:  # a method: the class attribute is the one binding
        setattr(owner, attr, wrapper)
        return
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").split(".")[0] != "quditgraphs":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def main(argv: list[str]) -> int:
    spans_file, request_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE REQUEST_ID -- CLI_ARGS...")
    tracer = Tracer()
    importlib.import_module("quditgraphs.cli")
    install_start = perf_counter_ns()
    for module_name, path, measure in SPANS:
        _install(tracer.span, module_name, path, measure)
    for module_name, path, measure in AGGREGATES:
        _install(tracer.aggregate, module_name, path, measure)
    for module_name, path, measure in COUNTERS:
        _install(tracer.counter, module_name, path, measure)
    cli = sys.modules["quditgraphs.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        trace = {
            "request": request_id,
            "install_start": install_start,
            "spans": tracer.spans,
            "aggregates": [[name, parent, *totals] for (name, parent), totals in tracer.aggregates.items()],
            "counters": tracer.counters,
        }
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
