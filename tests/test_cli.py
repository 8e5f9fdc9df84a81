import hashlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from decimal import Decimal
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import quditgraphs
from quditgraphs import graphs, residues
from quditgraphs.cli import _any_int_digits, _encode, main

from helpers import phase_table_of_map, random_edge_map

WORKED_GRAPH = {
    "d": 3,
    "n": 2,
    "edges": [
        {"vertices": [0], "exponents": [1], "weight": 2},
        {"vertices": [0], "exponents": [2], "weight": 2},
        {"vertices": [1], "exponents": [1], "weight": 2},
        {"vertices": [1], "exponents": [2], "weight": 2},
        {"vertices": [0, 1], "exponents": [1, 2], "weight": 1},
        {"vertices": [0, 1], "exponents": [2, 2], "weight": 1},
    ],
}

WORKED_PHASES = {"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ADDRESS_SPACE = 3 * 2**29  # 1.5 GB


def run_capped(*argv, timeout=120):
    """The CLI in a child process whose address space is capped at 1.5 GB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    src = str(Path(quditgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quditgraphs", *argv],
        capture_output=True,
        text=True,
        preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


class TestBuildState:
    def test_worked_graph(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", WORKED_GRAPH)
        code, out, err = run(capsys, "build-state", "--graph", graph)
        assert code == 0 and err == ""
        assert json.loads(out) == WORKED_PHASES

    def test_empty_graph(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", {"d": 2, "n": 1, "edges": []})
        code, out, _ = run(capsys, "build-state", "--graph", graph)
        assert code == 0
        assert json.loads(out) == {"d": 2, "n": 1, "phases": [0, 0]}

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED_GRAPH)))
        code, out, _ = run(capsys, "build-state", "--stdin")
        assert code == 0
        assert json.loads(out) == WORKED_PHASES

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, out, err = run(capsys, "build-state", "--graph", str(path))
        assert code == 2 and out == ""
        assert "invalid JSON" in err

    def test_schema_error_reports_path(self, tmp_path, capsys):
        graph = write_json(
            tmp_path / "g.json",
            {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [0], "weight": 1}]},
        )
        code, _, err = run(capsys, "build-state", "--graph", graph)
        assert code == 2
        assert "edges[0].exponents[0]" in err

    def test_size_limit(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", {"d": 256, "n": 3, "edges": []})
        code, _, err = run(capsys, "build-state", "--graph", graph)
        assert code == 3 and "limit" in err

    def test_dense_output(self, tmp_path, capsys):
        graph = write_json(
            tmp_path / "g.json",
            {"d": 2, "n": 1, "edges": [{"vertices": [0], "exponents": [1], "weight": 1}]},
        )
        code, out, _ = run(capsys, "build-state", "--graph", graph, "--dense")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        index, re, im = lines[1].split()
        assert index == "1"
        assert float(re) == pytest.approx(-(2**-0.5))
        assert float(im) == pytest.approx(0.0, abs=1e-12)

    def test_byte_determinism(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", WORKED_GRAPH)
        _, first, _ = run(capsys, "build-state", "--graph", graph)
        _, second, _ = run(capsys, "build-state", "--graph", graph)
        assert first == second


# SHA-256 of solve stdout, taken before the census moved out of the
# numpy-backed modules: (phase table, extra flags, exit code, digest).
PINNED_SOLVE = [
    (WORKED_PHASES, ["--mode", "multihypergraph"], 0,
     "931b06ed81f8f2b85941882ded3554e65779c8a08ba43a11be6b9f4bb9f10909"),
    (WORKED_PHASES, ["--mode", "hypergraph"], 1,
     "97ef2abb487e3e5cac5db824630a996f93b57b3e2c805f677ad9fd1ab45e3519"),
    ({"d": 4, "n": 1, "phases": [0, 2, 0, 2]}, ["--mode", "multihypergraph", "--all-solutions"], 0,
     "ebb5440eef1b8103d3b8f7111a1889dcb30125e1b8dbc9acac6dae805e85553c"),
    ({"d": 6, "n": 2, "phases": [0] * 36}, ["--mode", "multihypergraph", "--all-solutions"], 0,
     "79a0cdd80bdc00b23545af88d198d4573072cc332fd0bf0205df6ad131ce4e81"),
]


class TestSolve:
    @pytest.mark.parametrize("table,flags,exit_code,digest", PINNED_SOLVE)
    def test_pinned_output(self, tmp_path, capsys, table, flags, exit_code, digest):
        phases = write_json(tmp_path / "p.json", table)
        code, out, _ = run(capsys, "solve", "--phases", phases, *flags)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plain_mode_unsolvable(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", WORKED_PHASES)
        code, out, _ = run(capsys, "solve", "--phases", phases, "--mode", "hypergraph")
        assert code == 1
        payload = json.loads(out)
        assert payload["consistent"] is False and payload["count"] == 0
        assert payload["solution"] is None

    def test_decorated_mode_unique(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", WORKED_PHASES)
        code, out, _ = run(capsys, "solve", "--phases", phases, "--mode", "multihypergraph")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is True and payload["count"] == 1
        assert payload["solution"] == WORKED_GRAPH

    def test_all_solutions_mod4(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", {"d": 4, "n": 1, "phases": [0, 1, 2, 1]})
        code, out, _ = run(
            capsys, "solve", "--phases", phases, "--mode", "multihypergraph", "--all-solutions"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        weight_vectors = [
            tuple(edge["weight"] for edge in solution["edges"])
            for solution in payload["all_solutions"]
        ]
        assert weight_vectors == [(1, 1, 3), (1, 3, 1), (3, 1, 1), (3, 3, 3)]

    def test_solution_cap(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", {"d": 4, "n": 1, "phases": [0, 1, 2, 1]})
        code, out, _ = run(
            capsys,
            "solve", "--phases", phases, "--mode", "multihypergraph",
            "--all-solutions", "--solution-cap", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert "all_solutions" not in payload
        assert "exceeds cap" in payload["all_solutions_omitted"]

    def test_negative_solution_cap_is_usage_error(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", {"d": 4, "n": 1, "phases": [0, 1, 2, 1]})
        code, out, err = run(
            capsys,
            "solve", "--phases", phases, "--mode", "multihypergraph",
            "--all-solutions", "--solution-cap", "-1",
        )
        assert code == 2 and out == ""
        assert "--solution-cap" in err

    def test_noncanonical_is_usage_error(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", {"d": 2, "n": 1, "phases": [1, 0]})
        code, _, err = run(capsys, "solve", "--phases", phases, "--mode", "hypergraph")
        assert code == 2 and "f(0" in err

    @pytest.mark.parametrize("verb", ["solve", "build-state"])
    def test_non_utf8_file_names_its_path(self, tmp_path, capsys, verb):
        path = tmp_path / "p.json"
        path.write_bytes(b"\xff{}")
        flag, mode = ("--phases", ["--mode", "hypergraph"]) if verb == "solve" else ("--graph", [])
        code, out, err = run(capsys, verb, flag, str(path), *mode)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: $: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("built", [False, True])
    def test_large_base_is_not_factored(self, tmp_path, capsys, built):
        # Factoring this 512 x 512 W by elimination took about 2 minutes.
        d = 512
        phases = [0] * d
        if built:
            phases = phase_table_of_map(random_edge_map(random.Random(512), d, 1))
        path = write_json(tmp_path / "p.json", {"d": d, "n": 1, "phases": phases})
        start = time.perf_counter()
        code, out, _ = run(capsys, "solve", "--phases", path, "--mode", "multihypergraph")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        payload = json.loads(out)
        # gcd(s!, 2^9) over s < 512, with v_2(s!) = s - popcount(s) (Legendre).
        kernel = math.prod(2 ** min(s - bin(s).count("1"), 9) for s in range(d))
        assert payload["consistent"] and payload["count"] == kernel
        rebuilt = phase_table_of_map(graphs.from_json(json.dumps(payload["solution"])))
        assert rebuilt == phases

    def test_round_trip_via_files(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", WORKED_GRAPH)
        code, out, _ = run(capsys, "build-state", "--graph", graph)
        assert code == 0
        phases = tmp_path / "p.json"
        phases.write_text(out)
        code, out, _ = run(
            capsys, "solve", "--phases", str(phases), "--mode", "multihypergraph"
        )
        assert code == 0
        assert json.loads(out)["solution"] == WORKED_GRAPH


class TestLimitsBeforeWork:
    """Sizes whose power d^n would take minutes to build are refused at once."""

    @staticmethod
    def run_timed(capsys, *argv):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        return result

    def test_build_state_huge_table(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", {"d": 1000, "n": 100000000, "edges": []})
        code, out, err = self.run_timed(capsys, "build-state", "--graph", graph)
        assert code == 3 and out == "" and "limit" in err

    def test_solve_huge_table(self, tmp_path, capsys):
        phases = write_json(tmp_path / "p.json", {"d": 1000, "n": 100000000, "phases": [0]})
        code, out, err = self.run_timed(
            capsys, "solve", "--phases", phases, "--mode", "multihypergraph"
        )
        assert code == 3 and out == "" and "limit" in err

    def test_census_huge_table_count(self, capsys):
        code, out, err = self.run_timed(
            capsys, "census", "--d", "10", "--n", "10", "--mode", "hypergraph"
        )
        assert code == 3 and out == "" and "limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--d", "2", "--n", "9" * 4300, "--mode", "hypergraph"],
            ["identity-check", "--d", "2", "--n", "9" * 4300],
            ["matrix", "--d", "3", "--block", "9" * 4300],
        ],
        ids=["census", "identity-check", "matrix"],
    )
    def test_longest_flag_value_is_a_size_refusal(self, capsys, argv):
        # The refused count has 4301 digits or more, past the int -> str limit.
        code, out, err = self.run_timed(capsys, *argv)
        assert code == 3 and out == "" and "-bit number>" in err and len(err) < 200

    def test_census_dimension_below_two_is_usage_error(self, capsys):
        code, out, _ = self.run_timed(
            capsys, "census", "--d", "0", "--n", "1", "--mode", "hypergraph"
        )
        assert code == 2 and out == ""

    @pytest.mark.parametrize("d,n", [("50", "8"), ("3", "30")])
    def test_identity_check_huge_table(self, capsys, d, n):
        code, out, err = self.run_timed(capsys, "identity-check", "--d", d, "--n", n)
        assert code == 3 and out == "" and "limit" in err

    def test_identity_check_limit_counts_only_the_checked_edges(self, capsys):
        # Every edge at d=2, n=11: 11·4^11 entries, over the limit. Arity <= 2:
        # 2·(11 + 110) = 242 checks of 2^11 entries each, under it.
        code, out, err = self.run_timed(
            capsys, "identity-check", "--d", "2", "--n", "11", "--exhaustive"
        )
        assert code == 3 and out == "" and "limit" in err
        code, out, _ = self.run_timed(capsys, "identity-check", "--d", "2", "--n", "11")
        assert code == 0 and json.loads(out)["checked"] == 242

    def test_matrix_huge_entries(self, capsys):
        code, out, err = self.run_timed(capsys, "matrix", "--d", "100000", "--block", "1")
        assert code == 3 and out == "" and "99999^2 entries" in err

    def test_matrix_huge_power(self, capsys):
        code, out, err = self.run_timed(capsys, "matrix", "--d", "5", "--block", "30000000")
        assert code == 3 and out == "" and "4^60000000 entries" in err

    def test_matrix_qubit_block_is_one_entry_at_any_power(self, capsys):
        code, out, _ = self.run_timed(capsys, "matrix", "--d", "2", "--block", "30000000")
        assert code == 0 and json.loads(out)["entries"] == [1]

    @pytest.mark.parametrize("mode", ["hypergraph", "multihypergraph"])
    def test_solve_builds_no_dense_system(self, tmp_path, mode):
        # 2^14 entries: its dense (2^14 - 1)^2 system does not fit in 1.5 GB.
        phases = write_json(tmp_path / "p.json", {"d": 2, "n": 14, "phases": [0] * 2**14})
        result = run_capped("solve", "--phases", phases, "--mode", mode)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["consistent"] and payload["count"] == 1
        assert payload["solution"] == {"d": 2, "n": 14, "edges": []}

    @pytest.mark.parametrize("mode", ["hypergraph", "multihypergraph"])
    def test_solve_refuses_an_oversized_base(self, tmp_path, mode):
        # A valid 4099-entry table, but the factor of its base has 4099^2 entries.
        phases = write_json(tmp_path / "p.json", {"d": 4099, "n": 1, "phases": [0] * 4099})
        start = time.perf_counter()
        result = run_capped("solve", "--phases", phases, "--mode", mode)
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3 and result.stdout == ""
        assert "4099 x 4099" in result.stderr and "limit" in result.stderr

    @pytest.mark.parametrize("d,n", [(4, 7), (6, 5)])
    def test_solve_refuses_huge_kernel_generators(self, tmp_path, d, n):
        phases = write_json(tmp_path / "p.json", {"d": d, "n": n, "phases": [0] * d**n})
        start = time.perf_counter()
        result = run_capped("solve", "--phases", phases, "--mode", "multihypergraph")
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3 and result.stdout == ""
        assert "kernel generators" in result.stderr and "limit" in result.stderr

    def test_solve_refuses_to_list_too_many_solutions(self, tmp_path):
        # 2^88 solutions of 63 weights each: within the cap, past the table limit.
        phases = write_json(tmp_path / "p.json", {"d": 4, "n": 3, "phases": [0] * 64})
        result = run_capped(
            "solve", "--phases", phases, "--mode", "multihypergraph",
            "--all-solutions", "--solution-cap", str(10**30), timeout=10,
        )
        assert result.returncode == 3 and result.stdout == ""
        assert f"solutions of {2**88} x 63^1 entries" in result.stderr

    def test_solve_prints_counts_of_any_length(self, tmp_path):
        d, n = 16, 3
        phases = write_json(tmp_path / "p.json", {"d": d, "n": n, "phases": [0] * d**n})
        result = run_capped(
            "solve", "--phases", phases, "--mode", "multihypergraph", "--all-solutions"
        )
        assert result.returncode == 0, result.stderr
        # The kernel of W^{⊗3} mod 16 from the integer Smith form of W:
        # one factor gcd(D_a·D_b·D_c, 16) per diagonal position (a, b, c).
        smith = smith_normal_form(Matrix([[pow(i, s, d) for s in range(d)] for i in range(d)]))
        diagonal = [int(smith[i, i]) for i in range(d)]
        expected = math.prod(
            math.gcd(a * b * c, d) for a, b, c in product(diagonal, repeat=n)
        )
        digits = str(Decimal(expected))  # no int -> str digit limit
        assert len(digits) > 4300
        assert re.search(r'"count": (\d+)', result.stdout).group(1) == digits
        assert f'"all_solutions_omitted": "count {digits} exceeds cap 1024"' in result.stdout

    @pytest.mark.parametrize("bad", [True, 1.5, "1", -1, 3, 2**70])
    def test_bad_phase_entry_is_usage_error(self, tmp_path, capsys, bad):
        phases = [0] * 9
        phases[5] = bad
        path = write_json(tmp_path / "p.json", {"d": 3, "n": 2, "phases": phases})
        code, out, err = run(capsys, "solve", "--phases", path, "--mode", "hypergraph")
        assert (code, out) == (2, "")
        assert err.startswith("error: phases[5]: ")

    def test_input_ints_stay_under_the_digit_limit(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"d": 2, "n": 1, "phases": [0, ' + "1" * 5000 + "]}")
        result = run_capped("solve", "--phases", str(path), "--mode", "hypergraph")
        assert result.returncode == 2 and result.stdout == ""


MILLION_ZEROS = "[" + ", ".join(["0"] * 10**6) + "]"
LONG_INT = "1" * 5000  # past Python's int <-> str digit limit


class TestOversizedInputs:
    """A refusal names the bad field in one short stderr line, and never echoes
    a large input back."""

    @pytest.mark.parametrize(
        "verb,text,start",
        [
            ("solve", MILLION_ZEROS, "$: expected an object, got [0, 0, 0"),
            ("build-state", MILLION_ZEROS, "$: expected an object, got [0, 0, 0"),
            ("verify-stabilizers", MILLION_ZEROS, "$: expected an object, got [0, 0, 0"),
            (
                "solve",
                json.dumps({"d": 3, "n": 1, "phases": "a" * 10**6}),
                "phases: expected a list, got 'aaa",
            ),
            (
                "build-state",
                json.dumps(
                    {"d": 3, "n": 1, "edges": [
                        {"vertices": "a" * 10**6, "exponents": [1], "weight": 1}
                    ]}
                ),
                "edges[0].vertices: expected a list, got 'aaa",
            ),
            ("build-state", json.dumps({"d": 3, "n": 1, "edges": [], "k" * 10**6: 0}), "kkk"),
            (
                "solve",
                json.dumps({"d": 2, "n": 1, "phases": [0, 1], "extra": 1}),
                "extra: unknown field",
            ),
            ("solve", '{"d": ' + LONG_INT + ', "n": 1, "phases": [0]}', "$: invalid JSON: "),
            ("build-state", '{"d": ' + LONG_INT + ', "n": 1, "edges": []}', "$: invalid JSON: "),
        ],
        ids=["solve-list", "build-state-list", "verify-stabilizers-list", "solve-string",
             "build-state-string", "build-state-key", "solve-key", "solve-long-int",
             "build-state-long-int"],
    )
    def test_one_short_line(self, tmp_path, capsys, verb, text, start):
        path = tmp_path / "input.json"
        path.write_text(text)
        flag = "--phases" if verb == "solve" else "--graph"
        mode = ["--mode", "hypergraph"] if verb == "solve" else []
        code, out, err = run(capsys, verb, flag, str(path), *mode)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + start), err[:300]
        assert err.count("\n") == 1 and len(err.encode()) < 300, len(err)
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("verb", ["solve", "build-state"])
    def test_long_int_names_the_digit_limit(self, tmp_path, capsys, verb):
        path = tmp_path / "input.json"
        path.write_text('{"d": ' + LONG_INT + ', "n": 1, "phases": [0], "edges": []}')
        flag, mode = ("--phases", ["--mode", "hypergraph"]) if verb == "solve" else ("--graph", [])
        code, out, err = run(capsys, verb, flag, str(path), *mode)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"error: $: invalid JSON: integer longer than {limit} digits\n"


class TestLimitBoundaries:
    """Each verb's closed-form entry count, pinned: with the table limit set
    to exactly that count the request exits 3, and at count + 1 it runs."""

    @staticmethod
    def refused_at_size(monkeypatch, capsys, entries, *argv):
        monkeypatch.setattr(residues, "DEFAULT_TABLE_LIMIT", entries)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "limit" in err
        monkeypatch.setattr(residues, "DEFAULT_TABLE_LIMIT", entries + 1)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        return json.loads(out)

    def test_build_state_table(self, tmp_path, monkeypatch, capsys):
        graph = write_json(tmp_path / "g.json", WORKED_GRAPH)
        payload = self.refused_at_size(monkeypatch, capsys, 9, "build-state", "--graph", graph)
        assert payload == WORKED_PHASES

    @pytest.mark.parametrize("d,block", [(3, 3), (4, 1), (5, 2)])
    def test_matrix_block(self, monkeypatch, capsys, d, block):
        entries = (d - 1) ** (2 * block)
        payload = self.refused_at_size(
            monkeypatch, capsys, entries, "matrix", "--d", str(d), "--block", str(block)
        )
        assert len(payload["entries"]) == entries

    @pytest.mark.parametrize("block", ["1", "30000000"])
    def test_qubit_block_is_one_entry(self, monkeypatch, capsys, block):
        payload = self.refused_at_size(
            monkeypatch, capsys, 1, "matrix", "--d", "2", "--block", block
        )
        assert payload["entries"] == [1]

    @pytest.mark.parametrize(
        "d,n,exhaustive",
        [(2, 2, True), (3, 2, True), (2, 3, False), (3, 2, False), (4, 3, False)],
    )
    def test_identity_check(self, monkeypatch, capsys, d, n, exhaustive):
        if exhaustive:
            entries = n * (d - 1) * d ** (2 * n)
        else:
            entries = (n * (d - 1) + n * (n - 1) * (d - 1) ** 2) * d ** (n + 1)
        argv = ["identity-check", "--d", str(d), "--n", str(n)] + ["--exhaustive"] * exhaustive
        payload = self.refused_at_size(monkeypatch, capsys, entries, *argv)
        # The closed form counts exactly the table entries the checks compute.
        assert payload["checked"] * d**n == entries


class TestVerifyStabilizers:
    def test_worked_graph_all_stabilized(self, tmp_path, capsys):
        graph = write_json(tmp_path / "g.json", WORKED_GRAPH)
        code, out, _ = run(capsys, "verify-stabilizers", "--graph", graph)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_stabilized"] is True
        assert payload["vertices"] == [
            {"vertex": 0, "stabilized": True, "mismatch_indices": []},
            {"vertex": 1, "stabilized": True, "mismatch_indices": []},
        ]


# SHA-256 of census stdout for the benchmark's census cells, taken before
# the census moved from the Smith form of W to its closed form.
PINNED_CENSUS = [
    ("multihypergraph", 2, 3, "70579c5f56e06e942f74137d456ef7ea71bd204c5c39b3a6748ec38352f94c70"),
    ("hypergraph", 2, 3, "6a61699374bf664a32cddc8fe3a154c7fee7d924a8ce992e5b90916d43076333"),
    ("multihypergraph", 2, 4, "6a008bd0f5a03ad0e6cf47ee3cf49dc5777771aa2254a3e04e616dff6711d7a4"),
    ("hypergraph", 2, 4, "7720ea1093764b0fe8ba6b22466c3502844a7f29f78fbc8e91d19ba446cb60c4"),
    ("multihypergraph", 3, 1, "7d7c8387e9548cc754ef578c9c19d1b0dfcc4ae412005b74117b739e0b50fb0e"),
    ("hypergraph", 3, 1, "34c54ff77634d06d8ff5c804ecd7685b7799a287337715c2048a6e8d88775c07"),
    ("multihypergraph", 3, 2, "9be888a8cad48f8002c0d9ce32014eccc5186ac4beeec855575f911c89a621c2"),
    ("hypergraph", 3, 2, "0785dd241e67b66cfd51514787458435bc1e747301566e65f670ae8468012027"),
    ("multihypergraph", 4, 1, "bf7eca73ea48e2e9e2920353e542caffd000deea152c2d614122050730a098c2"),
    ("hypergraph", 4, 1, "d4f2ab81dfb8f7d42628f49f87114f52da168f50777e93691c8b5445f04c733b"),
    ("multihypergraph", 5, 1, "5acbf6cf185dd631001dbcece193b36287683bd05223a9879f8092b1509417b7"),
    ("hypergraph", 5, 1, "00bbc384c8436ce4ac27a417f58c58a4d076c951753d8d6d00bac354dac27771"),
    ("multihypergraph", 6, 1, "305679be9f19c74d8fdb4fc91339d67e899dd7d4acc7614a24f3ebcac9d1b87a"),
    ("hypergraph", 6, 1, "739f0f005f52b0b5324c1eca55969a4192f1fd211cd2a05e32e165b9b322c099"),
    ("multihypergraph", 7, 1, "3ca3de47af41e0d4973702473b493cb4112cd0b497c3058de98c298c71bf252d"),
    ("hypergraph", 7, 1, "670596eb64a411eaeb014eed2fb51d128e10511c1e12055ee1b4dd373f35f65d"),
]


class TestCensus:
    @pytest.mark.parametrize("mode,d,n,digest", PINNED_CENSUS)
    def test_pinned_output(self, capsys, mode, d, n, digest):
        code, out, _ = run(capsys, "census", "--d", str(d), "--n", str(n), "--mode", mode)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_large_base_is_not_factored(self, capsys):
        # Factoring this 512 x 512 W in pure Python took minutes; the digest
        # is of the output that run printed.
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "census", "--d", "512", "--n", "1", "--mode", "multihypergraph"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "da248a9fefdc344031255c876fa8ca8cb35ab11adc57901a526e43e107f73ef8"
        )

    def test_mod4_histogram(self, capsys):
        code, out, _ = run(
            capsys, "census", "--d", "4", "--n", "1", "--mode", "multihypergraph"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["histogram"] == {"0": 48, "4": 16}
        assert payload["solution_sum"] == 64

    def test_size_limit_boundary(self, capsys):
        # bits(2)·2^(2n) reaches the 2^24 table limit first at n=12.
        code, out, _ = run(capsys, "census", "--d", "2", "--n", "11", "--mode", "multihypergraph")
        assert code == 0 and json.loads(out)["total_states"] == 2**2047
        code, out, err = run(capsys, "census", "--d", "2", "--n", "12", "--mode", "multihypergraph")
        assert code == 3 and out == "" and "limit" in err


class TestIdentityCheck:
    def test_qubits_all_hold(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--d", "2", "--n", "2", "--exhaustive")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True and payload["mismatches"] == []

    def test_qutrit_mismatch_reported(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--d", "3", "--n", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["deleted_edge_form_exact_by_target_exponent"] == {
            "1": True,
            "2": False,
        }
        first = payload["mismatches"][0]
        assert first["correction_diagonal"] == [1, 2, 0]
        assert first["deleted_edge_diagonal"] == [2, 2, 2]


class TestMatrix:
    def test_mod4_block(self, capsys):
        code, out, _ = run(capsys, "matrix", "--d", "4", "--block", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == payload["cols"] == 3
        assert payload["entries"] == [1, 1, 1, 2, 0, 0, 3, 1, 3]

    def test_mod6_block_matches_digit_powers(self, capsys):
        code, out, _ = run(capsys, "matrix", "--d", "6", "--block", "1")
        assert code == 0
        payload = json.loads(out)
        expected = [pow(i, s, 6) for i in range(1, 6) for s in range(1, 6)]
        assert payload["entries"] == expected


# Ints past Python's default 4300-digit limit on int -> str, either sign.
HUGE_INTS = st.builds(
    lambda digits, sign: sign * (10**digits + 7), st.integers(4300, 4310), st.sampled_from([1, -1])
)
TEXT = st.text() | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", "\u2028", "\ud800", "😀"])
SCALARS = st.none() | st.booleans() | st.integers() | HUGE_INTS | st.floats() | TEXT
# Lists of plain ints take the encoder's C path; a bool sends a list down the other.
INT_LISTS = st.lists(st.integers() | HUGE_INTS, max_size=12) | st.lists(
    st.integers() | st.booleans(), min_size=1, max_size=12
)
JSON_VALUES = st.recursive(
    SCALARS | INT_LISTS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=25,
)


class TestEncoder:
    @given(JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_matches_indented_json_dumps(self, value):
        with _any_int_digits():
            assert _encode(value, "\n") == json.dumps(value, indent=2)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["solve", "--mode", "hypergraph"]) == 2

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "quditgraphs", "matrix", "--d", "2", "--block", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["entries"] == [1]


def _map_6_7():
    """64 edges of arity <= 3 at d = 6, n = 7, as in the benchmark's largest map."""
    pool = graphs.enumerate_multihyperedges(7, 6, max_arity=3)
    edges = random.Random(7).sample(pool, 64)
    return graphs.to_dict(graphs.WeightedEdgeMap(6, 7, {e: 1 + i % 5 for i, e in enumerate(edges)}))


class TestProcessEntry:
    """``python -m quditgraphs`` runs ``__main__.main``, the entry the console
    script shares, in a real process."""

    @pytest.mark.parametrize(
        "argv,exit_code",
        [
            (["census", "--d", "3", "--n", "1", "--mode", "hypergraph"], 0),
            (["solve", "--phases", WORKED_PHASES, "--mode", "hypergraph"], 1),
            (["census", "--d", "0", "--n", "1", "--mode", "hypergraph"], 2),
            (["census", "--d", "10", "--n", "10", "--mode", "hypergraph"], 3),
            (["build-state", "--dense", "--graph", _map_6_7()], 0),
            (["identity-check", "--d", "7", "--n", "3"], 1),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3", "dense-6-7", "identity-7-3"],
    )
    def test_same_output_as_in_process(self, tmp_path, capsys, argv, exit_code):
        # A dict in argv is an input file.
        argv = [
            write_json(tmp_path / "input.json", arg) if isinstance(arg, dict) else arg
            for arg in argv
        ]
        process = subprocess.run(
            [sys.executable, "-m", "quditgraphs", *argv], capture_output=True, timeout=120
        )
        code, out, _ = run(capsys, *argv)
        assert (process.returncode, code) == (exit_code, exit_code)
        assert process.stdout == out.encode()

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "flags,first", [(["--dense"], b"0"), ([], b"{")], ids=["dense-stream", "json-payload"]
    )
    def test_closed_stdout_exits_141_without_a_traceback(self, tmp_path, unbuffered, flags, first):
        # About 1.8 MB in four blocks, or 0.3 MB of JSON in one write: far
        # more than a pipe holds. Unbuffered, stdout writes to the raw file.
        graph = {"d": 4, "n": 8, "edges": [{"vertices": [0, 1], "exponents": [1, 2], "weight": 1}]}
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered is not None:
            environ["PYTHONUNBUFFERED"] = unbuffered
        process = subprocess.Popen(
            [sys.executable, "-m", "quditgraphs", "build-state", *flags, "--graph",
             write_json(tmp_path / "g.json", graph)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=environ,
        )
        assert process.stdout.read(1) == first
        process.stdout.close()
        stderr = process.stderr.read()
        assert (process.wait(timeout=60), stderr) == (141, b"")

    def test_library_call_freezes_nothing(self, capsys):
        import gc

        assert main(["census", "--d", "3", "--n", "1", "--mode", "hypergraph"]) == 0
        assert gc.get_freeze_count() == 0
