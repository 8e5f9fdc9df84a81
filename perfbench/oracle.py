"""Output checks for every CLI verb the benchmark drives.

Nothing here imports quditgraphs: phase tables are re-evaluated with plain
numpy from f(i) = sum_e m_e prod_{v in e} i_v^{s_v} mod d, and the census and
identity-check verdicts come from facts of the mathematics, so a bug in the
package cannot also hide in its own check. Each check takes the exit code and
stdout bytes of one request and returns None when they are right, or a
one-line reason when they are not.
"""

from __future__ import annotations

import json
from itertools import combinations, product

import numpy as np


def is_prime(d: int) -> bool:
    return d >= 2 and all(d % p for p in range(2, int(d**0.5) + 1))


def digit_columns(d: int, n: int) -> list[np.ndarray]:
    """Digit i_v of every flat index, i_0 most significant."""
    idx = np.arange(d**n, dtype=np.int64)
    return [(idx // d ** (n - 1 - v)) % d for v in range(n)]


def phase_table(d: int, n: int, edges: list[dict]) -> np.ndarray:
    """f(i) = sum_e m_e prod_v i_v^{s_v} mod d over all d^n indices."""
    digits = digit_columns(d, n)
    powers = [np.array([pow(x, s, d) for x in range(d)], dtype=np.int64) for s in range(d)]
    table = np.zeros(d**n, dtype=np.int64)
    for edge in edges:
        mono = np.ones(d**n, dtype=np.int64)
        for v, s in zip(edge["vertices"], edge["exponents"]):
            mono = mono * powers[s][digits[v]] % d
        table = (table + edge["weight"] * mono) % d
    return table


def check_phases(d: int, n: int, table: np.ndarray, code: int, out: bytes) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    payload = json.loads(out)
    if (payload.get("d"), payload.get("n")) != (d, n):
        return "wrong (d, n) echoed"
    if not np.array_equal(np.array(payload["phases"], dtype=np.int64), table):
        return "phase table differs from the oracle"
    return None


def check_dense(d: int, n: int, table: np.ndarray, code: int, out: bytes) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    rows = np.array(out.split(), dtype=np.float64).reshape(-1, 3)
    if rows.shape[0] != d**n or not np.array_equal(rows[:, 0], np.arange(d**n)):
        return "dense output does not list indices 0 .. d^n - 1 in order"
    expected = np.exp(2j * np.pi * table / d) * d ** (-n / 2)
    error = np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - expected))
    if error > 1e-12:
        return f"dense amplitudes differ from d^(-n/2) w^f(i) by {error:.3e}"
    return None


def check_solve(
    d: int, n: int, mode: str, table: np.ndarray, verdict: str, code: int, out: bytes
) -> str | None:
    """``verdict`` is 'roundtrip' (built from edges), 'unique' (consistent with
    count 1) or 'inconsistent' (unreachable by construction)."""
    payload = json.loads(out)
    if payload.get("mode") != mode:
        return "wrong mode echoed"
    if verdict == "inconsistent":
        if code != 1 or payload["consistent"] or payload["count"] != 0:
            return f"exit {code}, consistent={payload['consistent']}: expected unreachable"
        if payload["solution"] is not None:
            return "unreachable table came with a solution"
        return None
    if code != 0 or not payload["consistent"]:
        return f"exit {code}, consistent={payload['consistent']}: expected reachable"
    solution = payload["solution"]
    if (solution["d"], solution["n"]) != (d, n):
        return "solution has the wrong (d, n)"
    edges = solution["edges"]
    if mode == "hypergraph" and any(s != 1 for e in edges for s in e["exponents"]):
        return "hypergraph solution uses an exponent other than 1"
    if not np.array_equal(phase_table(d, n, edges), table):
        return "solution does not rebuild its table"
    # For prime d the monomials are independent functions, so the weights are unique.
    if (is_prime(d) or verdict == "unique") and payload["count"] != 1:
        return f"count {payload['count']}, expected 1"
    if payload["count"] < 1:
        return "consistent system with count < 1"
    return None


def variable_count(d: int, n: int, mode: str) -> int:
    return 2**n - 1 if mode == "hypergraph" else d**n - 1


def check_census(d: int, n: int, mode: str, code: int, out: bytes) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    r = json.loads(out)
    total = d ** (d**n - 1)
    histogram = {int(k): v for k, v in r["histogram"].items()}
    if (r["d"], r["n"], r["mode"]) != (d, n, mode):
        return "wrong (d, n, mode) echoed"
    if r["total_states"] != total or sum(histogram.values()) != total:
        return "total_states is not d^(d^n - 1)"
    if r["weight_assignments"] != d ** variable_count(d, n, mode):
        return "weight_assignments is not d^(#variables)"
    if r["solution_sum"] != r["weight_assignments"]:
        return "solution_sum != weight_assignments"
    # Every consistent right-hand side of one linear system has |kernel| solutions.
    counts = [k for k in histogram if k]
    if len(counts) != 1 or histogram[counts[0]] != r["reachable"]:
        return f"histogram {histogram} is not {{0: total - R, K: R}}"
    if r["reachable"] * counts[0] != r["weight_assignments"]:
        return "reachable * kernel size != weight_assignments"
    if is_prime(d) and mode == "multihypergraph" and histogram != {1: total}:
        return "prime-d multihypergraph census is not a bijection"
    if is_prime(d) and mode == "hypergraph" and r["reachable"] != d ** (2**n - 1):
        return "prime-d hypergraph census does not reach d^(2^n - 1) tables"
    if (d, n, mode) == (4, 1, "multihypergraph") and histogram != {0: 48, 4: 16}:
        return f"d=4 n=1 histogram {histogram}, expected {{0: 48, 4: 16}}"
    return None


def check_verify(d: int, n: int, code: int, out: bytes) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    r = json.loads(out)
    if (r["d"], r["n"]) != (d, n) or not r["all_stabilized"]:
        return "state not stabilized by its generators"
    if [v["vertex"] for v in r["vertices"]] != list(range(n)):
        return "not one check per vertex"
    if any(not v["stabilized"] or v["mismatch_indices"] for v in r["vertices"]):
        return "a vertex reports a mismatch"
    return None


def _identity_holds(d: int, s: int, m: int) -> bool:
    """CZ_e^m X_k CZ_e^{d-m} = X_k CZ_{e minus k}^{m(d-1)} iff
    m ((x-1)^s - x^s + 1) = 0 mod d for every x; the other vertices can all
    sit at 1, so they never rescue a failing x."""
    return all(m * (pow(x - 1, s, d) - pow(x, s, d) + 1) % d == 0 for x in range(d))


def check_identity(d: int, n: int, exhaustive: bool, code: int, out: bytes) -> str | None:
    r = json.loads(out)
    checked = 0
    mismatches = 0
    verdicts: dict[str, bool] = {}
    for t in range(1, n + 1 if exhaustive else min(n, 2) + 1):
        for _support in combinations(range(n), t):
            for exps in product(range(1, d), repeat=t):
                for m in range(d):
                    for s in exps:
                        holds = _identity_holds(d, s, m)
                        checked += 1
                        mismatches += not holds
                        verdicts[str(s)] = verdicts.get(str(s), True) and holds
    if r["checked"] != checked:
        return f"checked {r['checked']} gate identities, expected {checked}"
    if not r["deleted_edge_form_exact_by_target_exponent"].get("1"):
        return "target-exponent-1 identity reported broken"
    if r["deleted_edge_form_exact_by_target_exponent"] != verdicts:
        return "per-exponent verdicts differ from the oracle"
    if len(r["mismatches"]) != mismatches or r["all_hold"] != (mismatches == 0):
        return f"{len(r['mismatches'])} mismatches reported, expected {mismatches}"
    if code != (0 if mismatches == 0 else 1):
        return f"exit {code} does not match all_hold={r['all_hold']}"
    return None
