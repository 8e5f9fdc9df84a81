import contextlib
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
from quditgraphs import cli, counting, graphs, residues
from quditgraphs.cli import _any_int_digits, _encode, main

import oracles
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
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps(WORKED_GRAPH).encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run(capsys, "build-state", "--stdin")
        assert code == 0
        assert json.loads(out) == WORKED_PHASES

    @pytest.mark.parametrize("verb", ["build-state", "verify-stabilizers"])
    def test_closed_stdin_is_a_schema_error(self, capsys, monkeypatch, verb):
        # Python sets sys.stdin to None when it starts with fd 0 closed.
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, verb, "--stdin")
        assert (code, out, err) == (2, "", "error: $: cannot read <stdin>: Bad file descriptor\n")

    def test_closed_stdin_in_a_process(self):
        src = str(Path(quditgraphs.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "quditgraphs", "build-state", "--stdin"],
            capture_output=True,
            text=True,
            preexec_fn=lambda: os.close(0),
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: $: cannot read <stdin>: Bad file descriptor\n"

    @pytest.mark.parametrize(
        "environ",
        [
            {"LC_ALL": "C"},
            {"LC_ALL": "C.UTF-8"},
            {"PYTHONIOENCODING": "utf-8:strict"},
            {"PYTHONIOENCODING": "latin-1"},
        ],
        ids=["C", "C.UTF-8", "strict", "latin-1"],
    )
    def test_stdin_reads_as_a_file_does_under_every_locale(self, environ, tmp_path):
        src = str(Path(quditgraphs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, **environ)
        encoding = environ.get("PYTHONIOENCODING", "utf-8").split(":")[0]
        path = tmp_path / "graph.json"
        # Bytes that are not UTF-8, and a UTF-8 key outside the schema.
        for data, message in [
            (b"\xff\xfe", "$: cannot read <stdin>: 'utf-8' codec can't decode byte 0xff"),
            ('{"d": 2, "n": 1, "edges": [], "\u00e9": 1}'.encode(), "\u00e9: unknown field"),
        ]:
            path.write_bytes(data)
            from_file, from_stdin = (
                subprocess.run(
                    [sys.executable, "-m", "quditgraphs", "build-state", *argv],
                    input=data, capture_output=True, env=env, timeout=60,
                )
                for argv in (["--graph", str(path)], ["--stdin"])
            )
            assert from_file.returncode == from_stdin.returncode == 2
            assert from_stdin.stdout == from_file.stdout == b""
            assert from_stdin.stderr == from_file.stderr.replace(str(path).encode(), b"<stdin>")
            assert from_stdin.stderr.startswith(f"error: {message}".encode(encoding))

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

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"d": 3, "n": 1, "edges": {}}, "edges: expected a list, got {}"),
            (
                {"d": 3, "n": 1, "edges": [{"vertices": [], "exponents": [], "weight": 1}]},
                "edges[0].vertices: edge must be nonempty",
            ),
            (
                {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [1, 1], "weight": 1}]},
                "edges[0].exponents: one exponent per vertex required",
            ),
            (
                {"d": 3, "n": 2, "edges": [{"vertices": [1, 0], "exponents": [1, 1], "weight": 1}]},
                "edges[0].vertices: vertices must be strictly increasing",
            ),
            (
                {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [1], "weight": 3}]},
                "edges[0].weight: weight out of range [0, 3)",
            ),
            ({"d": 1, "n": 1, "edges": []}, "d: expected an integer >= 2, got 1"),
        ],
        ids=["edges-not-a-list", "empty-edge", "exponent-count", "unsorted", "weight", "d-1"],
    )
    def test_edge_map_schema_refusal_is_one_line(self, tmp_path, capsys, payload, message):
        graph = write_json(tmp_path / "g.json", payload)
        assert run(capsys, "build-state", "--graph", graph) == (2, "", f"error: {message}\n")

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
# numpy-backed modules and re-pinned once when the fingerprint became a
# hash of (d, n, mode), the only bytes that moved: (phase table, extra
# flags, exit code, digest).
PINNED_SOLVE = [
    (WORKED_PHASES, ["--mode", "multihypergraph"], 0,
     "9400c7d5dc3a3cf49d672928480e04ad91f3d58e7c9dd825f165ef4cd8262fa8"),
    (WORKED_PHASES, ["--mode", "hypergraph"], 1,
     "c0845a9da613e5156cbc0aa542882bb5c73fa55b7d147d33545720a1367feb8a"),
    ({"d": 4, "n": 1, "phases": [0, 2, 0, 2]}, ["--mode", "multihypergraph", "--all-solutions"], 0,
     "c8f84745199daf4793d29848a5e41fd0f1c8e7ba7c1b920d18b4e6af39c79ace"),
    ({"d": 6, "n": 2, "phases": [0] * 36}, ["--mode", "multihypergraph", "--all-solutions"], 0,
     "30ec24757157518c20cf584c18ef0211f162c36f1a1bc08385c1221e5830ae5c"),
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

    @pytest.mark.parametrize(
        "mode,refusal",
        [("hypergraph", "solve pass products of 4099^2"), ("multihypergraph", "4099 x 4099")],
    )
    def test_solve_refuses_an_oversized_base(self, tmp_path, mode, refusal):
        # A valid 4099-entry table, but the factor of its base has k x 4099
        # entries, and a pass 4099^2 products.
        phases = write_json(tmp_path / "p.json", {"d": 4099, "n": 1, "phases": [0] * 4099})
        start = time.perf_counter()
        result = run_capped("solve", "--phases", phases, "--mode", mode)
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3 and result.stdout == ""
        assert refusal in result.stderr and "limit" in result.stderr

    @pytest.mark.parametrize("d,n", [(4, 7), (6, 5)])
    def test_solve_refuses_huge_kernel_generators(self, tmp_path, d, n):
        phases = write_json(tmp_path / "p.json", {"d": d, "n": n, "phases": [0] * d**n})
        start = time.perf_counter()
        result = run_capped("solve", "--phases", phases, "--mode", "multihypergraph")
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3 and result.stdout == ""
        assert "kernel generators" in result.stderr and "limit" in result.stderr

    @pytest.mark.parametrize("mode", ["hypergraph", "multihypergraph"])
    def test_solve_refuses_pass_products_past_d_256(self, tmp_path, mode):
        # Past d = 256 every product of a pass is a Python multiply: d^(n+1)
        # of them at n = 2 would take minutes, so the request exits 3 at once.
        phases = write_json(tmp_path / "p.json", {"d": 257, "n": 2, "phases": [0] * 257**2})
        start = time.perf_counter()
        result = run_capped("solve", "--phases", phases, "--mode", mode)
        assert time.perf_counter() - start < 2.0
        assert result.returncode == 3 and result.stdout == ""
        assert "solve pass products of 257^3 entries" in result.stderr

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
# the census moved from the Smith form of W to its closed form and
# re-pinned once, as the solve digests were, for the new fingerprint.
PINNED_CENSUS = [
    ("multihypergraph", 2, 3, "e114bda7248385331dba59698d2b03eef00811101f3feee44367067b4f7a084f"),
    ("hypergraph", 2, 3, "c1e51081f44c307273ac957c048f76092b688408c451b384b20f1d04592f33fc"),
    ("multihypergraph", 2, 4, "ed8b8434d1f72bd42c8d84b014a2c143e95710988ef42ed61ebeaba3992e0dd8"),
    ("hypergraph", 2, 4, "25a7af1f3d323f4783fc2a2b6184113d95de63528fbc64a9e133ce69d4278854"),
    ("multihypergraph", 3, 1, "a98d6194c4abcef45761d82a3b426278187db5b9b8241212b7df49261147a2f7"),
    ("hypergraph", 3, 1, "be93dcdb29349f4e9eac79ee99a18b35db0023bbb6a6d93ed8c7da3ac9f4ae77"),
    ("multihypergraph", 3, 2, "8af7db288c1237afa516139fb9219e4c4bd24c87e390bf0efa3cadacee2a5c0a"),
    ("hypergraph", 3, 2, "ad91a1c082d14f2ea15419da9b4439ca87ffbcfc874c37dac68981a31ddd515d"),
    ("multihypergraph", 4, 1, "6118e8092cbf0bec3823ac21cf5a716714308c5c18cd67e21e153772649f3646"),
    ("hypergraph", 4, 1, "7abee0dcd01b3067ec9920dc2afaa1889c5a8e27853873d67af375220a0b00bb"),
    ("multihypergraph", 5, 1, "acdabbcdd485e38564bb13186ac19feef0c0a001306ce83ad7f385227c1fd62c"),
    ("hypergraph", 5, 1, "984ae43e99547ea52a229c6579d514c20b1ea531651e577633f11a8b2fded032"),
    ("multihypergraph", 6, 1, "982117d0e1ca6f4407d92b100f41abc2ed7cf72f40bac6c7ee058b1824d3276b"),
    ("hypergraph", 6, 1, "8f675b765239be7476f38147a80487df7eb68e7b69f469df0129df6d039770b3"),
    ("multihypergraph", 7, 1, "418401e6f129dc9ea1c916fd7560ee0c5c4ece47d21bd6107288f5c8dfef0ddf"),
    ("hypergraph", 7, 1, "63daa380fa1a6f69048bf6e99ba49b762fabbaf0bcd41c624ce237d04b8976ce"),
]


class TestCensus:
    @pytest.mark.parametrize("mode,d,n,digest", PINNED_CENSUS)
    def test_pinned_output(self, capsys, mode, d, n, digest):
        code, out, _ = run(capsys, "census", "--d", str(d), "--n", str(n), "--mode", mode)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_large_base_is_not_factored(self, capsys):
        # Factoring this 512 x 512 W in pure Python took minutes; the digest
        # is of the output that run printed, with the new fingerprint.
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "census", "--d", "512", "--n", "1", "--mode", "multihypergraph"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4d96f4de506852b00cee2b7a768b57cfc5377784146e27921b1f6f3ca6e5c935"
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "a verb is required: one of build-state, solve, verify-stabilizers, census, "
                 "identity-check, matrix"),
            (["matrix", "--d", "1", "--block", "1"], "need d >= 2 and size >= 1"),
            (["matrix", "--d", "3", "--block", "0"], "need d >= 2 and size >= 1"),
        ],
        ids=["no-verb", "matrix-d-1", "matrix-block-0"],
    )
    def test_refusal_is_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

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


REPO = Path(__file__).resolve().parents[1]
OPTIONS = sorted({name for _, _, options in cli._VERBS.values() for name in options} | {"--help"})
# Every option with each of its prefixes ("--" alone included), and -h in the
# forms argparse reads as -h with a value.
FLAG_WORDS = sorted({name[:i] for name in OPTIONS for i in range(2, len(name) + 1)}) + [
    "-h", "-hh", "-hx", "-h=h", "-h=", "-", "---", "-d", "-x",
]
VALUE_WORDS = [
    "0", "1", "2", "3", "-1", "-3", "-1.5", "-.5", "+2", " 2", "2_0", "1.5", "x", "", "-", "--",
    "--x", "-x y", "a b", "-3\n", "٣", "9" * 4301, "h", "hh", "=", "-h", "-h=h",
    *counting.MODES, "graph", "Hypergraph",
]
VERB_WORDS = [*cli._VERBS, "frobnicate", "cens", "Census"]
REQUIRED = {
    "build-state": ["--graph", "g.json"],
    "solve": ["--phases", "p.json", "--mode", "hypergraph"],
    "verify-stabilizers": ["--stdin"],
    "census": ["--d", "3", "--n", "1", "--mode", "multihypergraph"],
    "identity-check": ["--d", "3", "--n", "1"],
    "matrix": ["--d", "2", "--block", "1"],
}


@st.composite
def argv_lists(draw):
    """A verb, often with its required options, and up to four insertions:
    an option word alone, with its value next or after "=", or any word."""
    verb = draw(st.sampled_from(VERB_WORDS))
    argv = [verb, *(REQUIRED.get(verb, []) if draw(st.booleans()) else [])]
    for _ in range(draw(st.integers(0, 4))):
        flag, value = draw(st.sampled_from(FLAG_WORDS)), draw(st.sampled_from(VALUE_WORDS))
        words = draw(st.sampled_from([[flag], [flag, value], [f"{flag}={value}"], [value]]))
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = words
    return argv


ARGPARSE = oracles._build_parser()


def _argparse_outcome(argv):
    """help, usage, or the handler and typed arguments the argparse oracle gives."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = vars(ARGPARSE.parse_args(argv))
    except SystemExit as exc:
        return "usage" if exc.code else "help"
    return args.pop("func"), {k: (type(v), v) for k, v in args.items()}


def _table_outcome(argv):
    try:
        handler, args = cli._parse(argv)
    except ValueError:
        return "usage"
    if handler is cli._cmd_help:
        return "help"
    return handler, {k: (type(v), v) for k, v in vars(args).items()}


def _example_argvs():
    """The argv of every README example line and of every CI console-script line."""
    readme = (REPO / "README.md").read_text()
    smoke = (REPO / ".github" / "console-script-smoke.sh").read_text()
    lines = re.findall(r"^quditgraphs ([^#\n]*)", readme, re.M)
    lines += re.findall(r"^\d ([a-z-]+ .*)$", smoke, re.M)
    assert len(lines) >= 39, lines
    return [line.replace("$", "").split() for line in lines]


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse 3.13 reads some argv differently from 3.10-3.12"
)
class TestArgparseOracle:
    """``cli._parse`` accepts what the argparse parser it replaced accepts, with
    the same values: every argv is parsed by both, to help, a usage error or
    the same handler and arguments. The one difference: an option given
    "=--" is refused where argparse stored an empty list, on which the verb
    then failed with a traceback."""

    @staticmethod
    def check(argv):
        table = _table_outcome(argv)
        if table == "usage" and any(word.endswith("=--") for word in argv):
            return
        assert table == _argparse_outcome(argv), argv

    @given(argv_lists())
    @settings(max_examples=3000, deadline=None)
    def test_generated_argv(self, argv):
        self.check(argv)

    @pytest.mark.parametrize("argv", _example_argvs(), ids=" ".join)
    def test_documented_and_ci_argv(self, argv):
        assert _table_outcome(argv) == _argparse_outcome(argv)

    @pytest.mark.parametrize(
        "argv,outcome",
        [
            (["census", "--d=3", "--n=1", "--mo=hypergraph"], cli._cmd_census),
            (["census", "--d", "-3", "--n", "1", "--mode", "hypergraph", "--d", "4"], cli._cmd_census),
            (["-h", "frobnicate"], "help"),
            (["census", "--d", "x", "-h"], "usage"),
            (["census", "-h", "--d", "x"], "help"),
            (["census", "-h", "--=x"], "usage"),  # an ambiguous prefix fails before -h acts
            (["census", "--d", "--n", "1"], "usage"),
            (["build-state", "--graph", "g.json", "--stdin"], "usage"),
            (["build-state", "--dense=1", "--stdin"], "usage"),
            (["census", "--d", "3", "--n", "1", "--mode", "hypergraph", "--"], "usage"),
        ],
    )
    def test_pinned_outcomes(self, argv, outcome):
        table = _table_outcome(argv)
        assert (table if isinstance(table, str) else table[0]) == outcome
        self.check(argv)

    def test_empty_list_value_is_refused(self):
        argv = ["census", "--d", "3", "--n=--", "--mode", "hypergraph"]
        assert _argparse_outcome(argv)[1]["n"] == (list, [])
        assert _table_outcome(argv) == "usage"


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
