"""Seeded inputs and request lists for the three workloads.

Inputs are written with plain ``json`` before any timing starts, so the
program under test only ever sees generated files. Each request carries the
CLI arguments after ``python -m quditgraphs``, the input file it reads (for
the bytes-in count) and the oracle check for its output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

SOLVE_CELLS = [
    ("multihypergraph", d, n)
    for d, n in [(2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (6, 3), (7, 2), (8, 2)]
] + [("hypergraph", d, n) for d, n in [(3, 5), (3, 6), (4, 5), (5, 4), (6, 4)]]

CENSUS_CELLS = [
    (mode, d, n)
    for d, n in [(2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1), (7, 1)]
    for mode in ("multihypergraph", "hypergraph")
]

# (d, n, edge count, largest arity) of the state workload's edge maps.
STATE_MAPS = [(2, 16, 64, 3), (3, 10, 64, 3), (5, 7, 64, 3), (7, 6, 64, 3), (6, 7, 64, 3), (3, 9, 256, 4)]
IDENTITY_CHECKS = [(3, 4, True), (4, 3, True), (5, 2, True), (7, 3, False)]


@dataclass(frozen=True)
class Request:
    argv: list[str]
    input_path: Path | None
    check: Callable[[int, bytes], str | None]
    size: int  # table entries d^n the request works on
    system_entries: int = 0  # rows x cols of the linear system it solves


def smallest_prime_factor(d: int) -> int:
    return next(p for p in range(2, d + 1) if d % p == 0)


def random_edges(rng: random.Random, d: int, n: int, mode: str) -> list[dict]:
    """Each edge of the mode's kind present with probability 1/2, weight in 1..d-1."""
    max_exp = 1 if mode == "hypergraph" else d - 1
    edges = []
    for t in range(1, n + 1):
        for support in combinations(range(n), t):
            for exps in product(range(1, max_exp + 1), repeat=t):
                if rng.random() < 0.5:
                    edges.append(
                        {"vertices": list(support), "exponents": list(exps), "weight": rng.randrange(1, d)}
                    )
    return edges


def arity_quotas(d: int, n: int, count: int, max_arity: int) -> list[int]:
    """Edges per arity 1..max_arity: an even split, with what an arity cannot
    hold moved up. It depends on the sizes alone, so the work per request
    does not change with the seed."""
    quotas = [count // max_arity + (t >= max_arity - count % max_arity) for t in range(max_arity)]
    for t in range(max_arity - 1):
        excess = quotas[t] - math.comb(n, t + 1) * (d - 1) ** (t + 1)
        if excess > 0:
            quotas[t] -= excess
            quotas[t + 1] += excess
    return quotas


def sampled_edges(rng: random.Random, d: int, n: int, count: int, max_arity: int) -> list[dict]:
    """``count`` distinct multihyperedges of arity <= max_arity, in canonical order."""
    chosen: dict[tuple, int] = {}
    for t, quota in enumerate(arity_quotas(d, n, count, max_arity), start=1):
        target = len(chosen) + quota
        while len(chosen) < target:
            support = tuple(sorted(rng.sample(range(n), t)))
            exps = tuple(rng.randrange(1, d) for _ in range(t))
            chosen.setdefault((t, support, exps), rng.randrange(1, d))
    return [
        {"vertices": list(s), "exponents": list(e), "weight": w}
        for (_, s, e), w in sorted(chosen.items())
    ]


def unreachable_table(rng: random.Random, d: int, n: int, mode: str) -> np.ndarray:
    """A canonical table no edge map of the mode produces.

    Prime d, hypergraph: add an exponent-2 monomial, which lies outside the
    span of the multilinear ones. Composite d: every monomial vanishes mod p
    at p*e_v for the smallest prime p dividing d, so set f(p*e_v) to a unit
    mod p.
    """
    if oracle.is_prime(d):
        assert mode == "hypergraph" and d > 2
        edges = random_edges(rng, d, n, mode)
        edges.append({"vertices": [rng.randrange(n)], "exponents": [2], "weight": rng.randrange(1, d)})
        return oracle.phase_table(d, n, edges)
    p = smallest_prime_factor(d)
    table = np.array([0] + [rng.randrange(d) for _ in range(d**n - 1)], dtype=np.int64)
    v = rng.randrange(n)
    table[p * d ** (n - 1 - v)] = rng.choice([x for x in range(d) if x % p])
    return table


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload) + "\n")
    return path


def solve_requests(rng: random.Random, work: Path) -> list[Request]:
    out = []
    for mode, d, n in SOLVE_CELLS:
        built = oracle.phase_table(d, n, random_edges(rng, d, n, mode))
        if oracle.is_prime(d) and mode == "multihypergraph":
            other = np.array([0] + [rng.randrange(d) for _ in range(d**n - 1)], dtype=np.int64)
            verdict = "unique"
        else:
            other = unreachable_table(rng, d, n, mode)
            verdict = "inconsistent"
        for tag, table, expect in (("built", built, "roundtrip"), ("other", other, verdict)):
            path = _write(
                work / f"solve-{mode}-{d}-{n}-{tag}.json",
                {"d": d, "n": n, "phases": [int(x) for x in table]},
            )
            out.append(
                Request(
                    ["solve", "--phases", str(path), "--mode", mode],
                    path,
                    partial(oracle.check_solve, d, n, mode, table, expect),
                    d**n,
                    (d**n - 1) * oracle.variable_count(d, n, mode),
                )
            )
    return out


def census_requests(rng: random.Random, work: Path) -> list[Request]:
    # The census inputs are (d, n, mode) alone; the seed only orders the requests.
    cells = list(CENSUS_CELLS)
    rng.shuffle(cells)
    return [
        Request(
            ["census", "--d", str(d), "--n", str(n), "--mode", mode],
            None,
            partial(oracle.check_census, d, n, mode),
            d**n,
        )
        for mode, d, n in cells
    ]


def states_requests(rng: random.Random, work: Path) -> list[Request]:
    out = []
    for d, n, count, max_arity in STATE_MAPS:
        edges = sampled_edges(rng, d, n, count, max_arity)
        table = oracle.phase_table(d, n, edges)
        path = _write(work / f"state-{d}-{n}-{count}.json", {"d": d, "n": n, "edges": edges})
        out += [
            Request(["build-state", "--graph", str(path)], path,
                    partial(oracle.check_phases, d, n, table), d**n),
            Request(["verify-stabilizers", "--graph", str(path)], path,
                    partial(oracle.check_verify, d, n), d**n),
            Request(["build-state", "--graph", str(path), "--dense"], path,
                    partial(oracle.check_dense, d, n, table), d**n),
        ]
    for d, n, exhaustive in IDENTITY_CHECKS:
        argv = ["identity-check", "--d", str(d), "--n", str(n)] + (["--exhaustive"] if exhaustive else [])
        out.append(Request(argv, None, partial(oracle.check_identity, d, n, exhaustive), d**n))
    return out


REQUEST_LISTS = {"solve": solve_requests, "census": census_requests, "states": states_requests}


def make_requests(workload: str, seed: int, work: Path) -> list[Request]:
    work.mkdir(parents=True, exist_ok=True)
    return REQUEST_LISTS[workload](random.Random(f"{workload}:{seed}"), work)
