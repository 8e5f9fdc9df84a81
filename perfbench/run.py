"""Benchmark of the quditgraphs command line, one fresh process per request.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {solve,census,states} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client sends each request of the workload's fixed
list as ``python -m quditgraphs <verb>`` and checks its output against the
oracle in ``oracle.py`` before sending the next. The list is repeated, each
pass in its own seeded order, a number of times fixed by ``--seconds`` and
the workload (``PASSES``), so two commits are timed on the same work.
``request_p50_s`` and ``request_tail_s`` are Harrell-Davis quantiles of the
latencies of all passes. With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate (the traced ones go
through ``launcher.py``) and it holds the per-layer split and the tracing
overhead. ``setup_s`` times import-only interpreters started between
requests all through the run, so it sees the same machine as the requests
do. Earlier stdout lines give a readable summary and the run context.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import workloads

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# Passes over each request list in a run of REFERENCE_SECONDS; a pass takes
# about 21 s (solve), 10 s (census) and 27 s (states) on the reference machine.
# census makes four so that the rank of request_tail_s falls inside its
# cluster of four slow cells (a quarter of the list), not on the gap below it.
PASSES = {"solve": 2, "census": 4, "states": 1}
REFERENCE_SECONDS = 40
MIN_TAIL_SAMPLES = 20  # request_tail_s needs ten requests beyond it and ten below
SETUP_SAMPLES = 9  # import-only processes per run, spread over its requests
SETUP_BATCHES = 3  # setup_s is the median of this many batch means
REQUEST_TIMEOUT_S = 30.0  # the slowest request takes about 4 s
RUN_DEADLINE_S = 150.0  # requests not started by then fail, so a run ends within 180 s
MODULES = ("cli", "graphs", "states", "stabilizers", "correspondence", "residues")


@dataclass
class Pass:
    wall_s: float = 0.0  # summed over requests, from spawn to the output checked
    cpu_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    traces: list[dict] = field(default_factory=list)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SetupProbe:
    """Times a fresh interpreter that imports quditgraphs.cli and exits.

    One sample is taken after every ``every``-th request, so the samples
    spread over the whole run rather than one burst before it. As in
    ``timeit``, the result is the median of batch means; sample i goes to
    batch i mod SETUP_BATCHES, so each batch spans the whole run. A shared
    2-vCPU Xeon VM was seen to switch between three discrete speed levels
    (import 0.17, 0.21 and 0.27 s) for minutes at a time; a plain median of
    samples snaps to whichever level held longest.
    """

    ARGV = [sys.executable, "-c", "import quditgraphs.cli"]

    def __init__(self, env: dict, root: Path, every: int, deadline: float) -> None:
        self.env, self.root, self.every, self.deadline = env, root, every, deadline
        self.requests = 0
        self.times: list[float] = []
        subprocess.run(self.ARGV, env=env, cwd=root, timeout=REQUEST_TIMEOUT_S)  # fills the bytecode cache

    def sample(self) -> None:
        t0 = perf_counter()
        subprocess.run(self.ARGV, env=self.env, cwd=self.root, timeout=REQUEST_TIMEOUT_S)
        self.times.append(perf_counter() - t0)

    def after_request(self) -> None:
        self.requests += 1
        if self.requests % self.every == 0 and perf_counter() < self.deadline:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_BATCHES:
            self.sample()
        batches = [self.times[b::SETUP_BATCHES] for b in range(SETUP_BATCHES)]
        return statistics.median(statistics.fmean(batch) for batch in batches)


def run_pass(order, env: dict, root: Path, work: Path, traced: bool, deadline: float, probe=None) -> Pass:
    """Sends each (index, request) of ``order`` in turn."""
    result = Pass()
    for i, req in order:
        spans = work / f"spans-{i}.json"
        prefix = [sys.executable, "-m", "quditgraphs"]
        if traced:
            prefix = [sys.executable, str(LAUNCHER), str(spans), str(i), "--"]
        timeout = min(REQUEST_TIMEOUT_S, deadline - perf_counter())
        if timeout <= 0:
            result.failures.append(f"{' '.join(req.argv)}: not sent, run deadline passed")
            continue
        cpu0 = children_cpu()
        with open(work / "stderr.txt", "wb") as err:
            spawn_ns = perf_counter_ns()
            try:
                proc = subprocess.run(
                    prefix + req.argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=root, timeout=timeout
                )
                code, out = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired as exc:
                code, out = None, exc.stdout or b""
            exit_ns = perf_counter_ns()
        latency = (exit_ns - spawn_ns) * 1e-9
        if code is None:
            reason = f"timed out after {timeout:.0f} s"
        else:
            try:
                reason = req.check(code, out)
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        result.wall_s += (perf_counter_ns() - spawn_ns) * 1e-9
        result.cpu_s += children_cpu() - cpu0
        if reason is not None:
            stderr = (work / "stderr.txt").read_text(errors="replace").strip()[-300:]
            result.failures.append(f"{' '.join(req.argv)}: {reason} {stderr}".strip())
        result.latencies.append(latency)
        result.bytes_in += req.input_path.stat().st_size if req.input_path else 0
        result.bytes_out += len(out)
        if traced:
            try:
                trace = json.loads(spans.read_text())
            except (OSError, ValueError):  # the request died before writing its spans
                trace = {"spans": [], "aggregates": [], "counters": {}}
            trace.update(spawn=spawn_ns, exit=exit_ns)
            result.traces.append(trace)
            spans.unlink(missing_ok=True)
        if probe is not None:
            probe.after_request()
    return result


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, the weights being the Beta((n+1)p, (n+1)(1-p)) mass over each
    rank's share of [0, 1]. Requests of different sizes leave gaps between
    latency clusters; a single order statistic next to a gap jumps across it
    when one request runs slow, the weighted mean moves smoothly."""
    ordered = np.sort(samples)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(weights @ ordered)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten requests beyond it."""
    pct = 100.0 * max(1, len(latencies) - 10) / len(latencies)
    return quantile(latencies, pct / 100), pct


def end_to_end(passes: list[Pass], probe: SetupProbe) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    tail_s, tail_pct = tail(latencies)
    # The largest peak of any waited-for child. Each request imports all that a
    # setup probe imports, so the largest is a request's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (probe.median(), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "request_p50_s": (quantile(latencies, 0.5), "s"),
        "request_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "request_tail_percentile": round(tail_pct, 2),
        "request_samples": len(latencies),
        "setup_samples": len(probe.times),
    }
    return metrics, notes


def span_self_times(spans: list[list], aggregates: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover, in seconds."""
    own = [(end - start) * 1e-9 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= (end - start) * 1e-9
    for _, parent, _, ns, _ in aggregates:
        if parent >= 0:
            own[parent] -= ns * 1e-9
    return own


def layer_split(traced: Pass) -> dict:
    """Per-layer totals of one traced pass."""
    total = defaultdict(float)  # name -> summed duration
    own = defaultdict(float)  # name -> summed self time
    calls = defaultdict(int)
    measured = defaultdict(float)
    roundtrip_s = 0.0
    outside_main_s = 0.0
    counters = defaultdict(lambda: [0, 0])
    for trace in traced.traces:
        spans, aggregates = trace["spans"], trace["aggregates"]
        for name, _, count, ns, value in aggregates:  # leaf calls: all of their time is self time
            total[name] += ns * 1e-9
            own[name] += ns * 1e-9
            calls[name] += count
            measured[name] += value
        for (name, start, end, parent, value), self_s in zip(spans, span_self_times(spans, aggregates)):
            duration = (end - start) * 1e-9
            total[name] += duration
            own[name] += self_s
            calls[name] += 1
            measured[name] += value or 0
            if name == "states.build_state" and parent >= 0 and spans[parent][0] == "correspondence.solve_weights":
                roundtrip_s += duration
            if name == "cli.main":  # before the tracer is installed, and after main returns
                outside_main_s += (trace["install_start"] - trace["spawn"] + trace["exit"] - end) * 1e-9
        for name, (count, value) in trace["counters"].items():
            counters[name][0] += count
            counters[name][1] += value

    factor = ("residues.PrimeSolver.__init__", "residues.SmithSolver.__init__")
    solve = ("residues.PrimeSolver.solve", "residues.SmithSolver.solve")
    solves = sum(calls[n] for n in solve)
    split = {m: sum(v for n, v in own.items() if n.split(".")[0] == m) for m in MODULES}
    metrics = {
        "residues.factor_s": (sum(total[n] for n in factor), "s"),
        "residues.factor_entries": (sum(measured[n] for n in factor), "count"),
        "residues.solve_s": (sum(total[n] for n in solve), "s"),
        "residues.solves": (solves, "count"),
        "residues.consistent_ratio": (sum(measured[n] for n in solve) / solves if solves else 0.0, "ratio"),
        "correspondence.assemble_s": (total["correspondence.build_system"], "s"),
        "correspondence.system_entries": (measured["correspondence.build_system"], "count"),
        "correspondence.roundtrip_s": (roundtrip_s, "s"),
        "correspondence.fingerprint_s": (total["correspondence.CorrespondenceSystem.fingerprint"], "s"),
        "correspondence.census_self_s": (own["correspondence.census"], "s"),
        "states.build_s": (total["states.build_state"], "s"),
        "states.monomial_tables": (counters["states.monomial_table"][0], "count"),
        "states.entries_computed": (counters["states.monomial_table"][1], "count"),
        "states.dense_s": (total["states.to_dense"] + total["states.dense_text"], "s"),
        "states.parse_s": (total["states.phases_from_dict"], "s"),
        "graphs.parse_s": (total["graphs.from_json"], "s"),
        "graphs.edges_parsed": (measured["graphs.from_json"], "count"),
        "stabilizers.verify_s": (own["stabilizers.verify"], "s"),
        "stabilizers.corrections": (counters["stabilizers.correction_exponents"][0], "count"),
        "stabilizers.conjugation_s": (total["stabilizers.conjugation_report"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.bytes_in": (traced.bytes_in, "B"),
        "cli.bytes_out": (traced.bytes_out, "B"),
        "process.outside_main_s": (outside_main_s, "s"),
    }
    metrics.update({f"split.{m}_self_s": (v, "s") for m, v in split.items()})
    return metrics


def per_layer(pairs: list[tuple[Pass, Pass]]) -> tuple[dict, dict]:
    """Median over traced passes of each layer metric, plus the tracing overhead."""
    splits = [layer_split(traced) for _, traced in pairs]
    metrics = {name: (statistics.median(s[name][0] for s in splits), unit) for name, (_, unit) in splits[0].items()}
    untraced_wall = statistics.median(plain.wall_s for plain, _ in pairs)
    traced_wall = statistics.median(traced.wall_s for _, traced in pairs)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    split = {m: metrics[f"split.{m}_self_s"][0] for m in MODULES}
    dominant = max(split, key=split.get)
    notes = {
        "dominant_layer": dominant,
        "dominant_share_of_traced_wall": round(split[dominant] / traced_wall, 4),
        "untraced_wall_s": untraced_wall,
    }
    return metrics, notes


def machine_context() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def input_context(requests) -> dict:
    return {
        "requests_per_pass": len(requests),
        "table_entries": sum(r.size for r in requests),
        "system_entries": sum(r.system_entries for r in requests),
        "input_bytes": sum(r.input_path.stat().st_size for r in requests if r.input_path),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REQUEST_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "quditgraphs" / "cli.py").is_file():
        print(f"error: no quditgraphs sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        requests = workloads.make_requests(args.workload, args.seed, work)
        passes = max(
            math.ceil(MIN_TAIL_SAMPLES / len(requests)),
            round(PASSES[args.workload] * args.seconds / REFERENCE_SECONDS),
        )
        context = {"workload": args.workload, "seed": args.seed, "passes": passes, "trace": args.trace}
        context.update(machine_context())
        context.update(input_context(requests))
        # Each pass sends the list in its own seeded order, so a slow spell of
        # the host does not always fall on the same requests.
        rng = random.Random(args.seed)
        indexed = list(enumerate(requests))

        def shuffled():
            return rng.sample(indexed, len(indexed))

        if args.trace:
            pairs = [
                (
                    run_pass(shuffled(), env, root, work, False, deadline),
                    run_pass(shuffled(), env, root, work, True, deadline),
                )
                for _ in range(max(1, passes // 2))
            ]
            all_passes = [p for pair in pairs for p in pair]
            metrics, notes = per_layer(pairs)
        else:
            probe = SetupProbe(env, root, max(1, len(requests) * passes // SETUP_SAMPLES), deadline)
            all_passes = [run_pass(shuffled(), env, root, work, False, deadline, probe) for _ in range(passes)]
            metrics, notes = end_to_end(all_passes, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failures = [f for p in all_passes for f in p.failures]
    attempted = len(requests) * len(all_passes)
    context.update(notes)
    context["failed_ratio"] = f"{len(failures)} of {attempted}"
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'failed_ratio':34s} {context['failed_ratio']}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
