"""Every verb starts and finishes without importing numpy.

Each check runs in a fresh interpreter, because this test process has
numpy loaded already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditgraphs
from quditgraphs import counting

SRC = str(Path(quditgraphs.__file__).resolve().parents[1])

# Modules no request loads, at any exit code: argparse with the gettext and
# locale it imports, and OpenSSL's hashes.
NEVER_LOADED = ["argparse", "gettext", "locale", "hashlib", "_hashlib"]

# Runs the CLI as ``python -m quditgraphs`` does and reports, as the last
# line of stderr, the exit code, whether numpy was imported and which of
# NEVER_LOADED were.
CLI_PROBE = f"""
import json, runpy, sys
sys.argv = ["quditgraphs", *sys.argv[1:]]
try:
    runpy.run_module("quditgraphs", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = sorted(set({NEVER_LOADED!r}) & set(sys.modules))
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules, "loaded": loaded}}), file=sys.stderr)
"""

# The probe in a child where ``import numpy`` raises ImportError.
NUMPY_BLOCKED_PROBE = 'import sys\nsys.modules["numpy"] = None\n' + CLI_PROBE

# The environment without a BLAS thread setting of the caller's.
UNSET_BLAS = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def _python(*args, environ=os.environ, stdin=None):
    path = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(environ, PYTHONPATH=path),
        timeout=60,
    )


def _with_input_file(argv, tmp_path):
    """``argv`` with a dict in it written to an input file and passed as its path."""
    path = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    return [str(path) if isinstance(arg, dict) else arg for arg in argv]


def _probe(line):
    """The exit code and numpy flag of a CLI_PROBE report, once it shows that
    none of NEVER_LOADED was loaded."""
    report = json.loads(line)
    assert report.pop("loaded") == [], report
    return report


def _cli(*argv):
    result = _python("-c", CLI_PROBE, *argv)
    return _probe(result.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "statement",
    [
        "import quditgraphs",
        "import quditgraphs.cli",
        "import quditgraphs.counting",
        "from quditgraphs.newton import KroneckerSolver, solve_phases",
    ],
)
def test_import_loads_no_numpy(statement):
    result = _python("-c", f"{statement}; import sys; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["census", "--d", "4", "--n", "1", "--mode", "multihypergraph"], 0),
        (["census", "--d", "2", "--n", "3", "--mode", "hypergraph"], 0),
        # Refused before d^n is built: 2^(2^100000000 - 1) would never finish.
        (["census", "--d", "2", "--n", "100000000", "--mode", "multihypergraph"], 3),
        (["census", "--d", "0", "--n", "1", "--mode", "hypergraph"], 2),
        (["frobnicate"], 2),
        (["census", "--d", "3", "--n", "1"], 2),
        (["-h"], 0),
        (["census", "--help"], 0),
        (["identity-check", "--d", "10", "--n", "10"], 3),
        # identity-check runs without numpy at every exit code.
        (["identity-check", "--d", "2", "--n", "2", "--exhaustive"], 0),
        (["identity-check", "--d", "3", "--n", "1"], 1),
        (["identity-check", "--d", "7", "--n", "3"], 1),
        (["build-state", "--graph", {"d": 1000, "n": 100000000, "edges": []}], 3),
        (
            [
                "build-state",
                "--graph",
                {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [0], "weight": 1}]},
            ],
            2,
        ),
        (["verify-stabilizers", "--graph", {"d": 1000, "n": 100000000, "edges": []}], 3),
        (
            [
                "verify-stabilizers",
                "--graph",
                {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [0], "weight": 1}]},
            ],
            2,
        ),
        (["matrix", "--d", "5", "--block", "30000000"], 3),
        (["solve", "--phases", {"d": 3, "n": 1}, "--mode", "hypergraph"], 2),
        *(
            (["solve", "--phases", {"d": 3, "n": 1, "phases": phases}, "--mode", "hypergraph"], 2)
            for phases in ([0, True, 2], [0, 1], [0, 1, 3])
        ),
        (
            [
                "solve",
                "--phases",
                {"d": 1000, "n": 100000000, "phases": []},
                "--mode",
                "multihypergraph",
            ],
            3,
        ),
        # solve runs on lanes at any size: 2401 entries, one solution.
        (["solve", "--phases", {"d": 7, "n": 4, "phases": [0] * 7**4}, "--mode", "multihypergraph"], 0),
        (
            [
                "solve",
                "--phases",
                {"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]},
                "--mode",
                "hypergraph",
            ],
            1,
        ),
        (["solve", "--phases", {"d": 3, "n": 1, "phases": [1, 0, 0]}, "--mode", "hypergraph"], 2),
    ],
    ids=["census", "census-hypergraph", "census-limit", "census-usage", "unknown-verb",
         "missing-option", "help", "census-help",
         "identity-check-limit", "identity-check-holds", "identity-check-fails",
         "identity-check-large", "build-state-limit", "build-state-schema",
         "verify-stabilizers-limit", "verify-stabilizers-schema", "matrix-limit",
         "solve-schema", "solve-entry-type", "solve-entry-count", "solve-entry-range",
         "solve-limit", "solve", "solve-unreachable", "solve-noncanonical"],
)
def test_cli_path_loads_no_numpy(argv, code, tmp_path):
    argv = _with_input_file(argv, tmp_path)
    assert _cli(*argv) == {"code": code, "numpy": False}


# A map with a decorated edge, whose stabilizer corrections are not the
# deleted-edge form: the kernel runs every table kind on it.
GRAPH = {
    "d": 3,
    "n": 3,
    "edges": [
        {"vertices": [0], "exponents": [2], "weight": 1},
        {"vertices": [0, 2], "exponents": [2, 1], "weight": 2},
        {"vertices": [0, 1, 2], "exponents": [1, 2, 2], "weight": 1},
    ],
}
EDGE_MAP_VERBS = [
    ["build-state", "--graph"],
    ["build-state", "--stdin"],
    ["build-state", "--dense", "--graph"],
    ["build-state", "--dense", "--stdin"],
    ["verify-stabilizers", "--graph"],
    ["verify-stabilizers", "--stdin"],
]


@pytest.mark.parametrize("argv", EDGE_MAP_VERBS, ids=" ".join)
def test_edge_map_verbs_load_no_numpy(argv, tmp_path):
    # The kernel builds every table on bytes, so these run to exit 0 without numpy.
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH))
    stdin = json.dumps(GRAPH) if "--stdin" in argv else ""
    argv = argv + [str(path)] if "--graph" in argv else argv
    result = _python("-c", CLI_PROBE, *argv, stdin=stdin)
    assert _probe(result.stderr.splitlines()[-1]) == {"code": 0, "numpy": False}
    assert result.stdout


DEEP = "[" * 100_000  # far deeper than the JSON decoder recurses


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--phases", DEEP, "--mode", "hypergraph"],
        ["build-state", "--graph", DEEP],
        ["build-state", "--stdin"],
        ["verify-stabilizers", "--graph", DEEP],
    ],
    ids=["solve", "build-state-file", "build-state-stdin", "verify-stabilizers"],
)
def test_deeply_nested_json_is_a_schema_error(argv, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    argv = [str(path) if arg is DEEP else arg for arg in argv]
    result = _python("-c", CLI_PROBE, *argv, stdin=DEEP if "--stdin" in argv else "")
    *message, probe = result.stderr.splitlines()
    assert _probe(probe) == {"code": 2, "numpy": False}
    assert len(message) == 1 and message[0].startswith("error: $: invalid JSON: "), message


PHASES = {"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}


@pytest.mark.parametrize(
    "argv,code",
    [
        (["matrix", "--d", "6", "--block", "1"], 0),
        (["matrix", "--d", "3", "--block", "3"], 0),
        (["matrix", "--d", "3", "--block", "100"], 3),
        (["solve", "--phases", PHASES, "--mode", "multihypergraph"], 0),
        (["solve", "--phases", PHASES, "--mode", "hypergraph"], 1),
        (["census", "--d", "3", "--n", "2", "--mode", "hypergraph"], 0),
        (["build-state", "--graph", GRAPH], 0),
        (["build-state", "--dense", "--graph", GRAPH], 0),
        (["verify-stabilizers", "--graph", GRAPH], 0),
        (["identity-check", "--d", "3", "--n", "2"], 1),
    ],
    ids=["matrix", "matrix-block-3", "matrix-limit", "solve", "solve-unreachable", "census",
         "build-state", "build-state-dense", "verify-stabilizers", "identity-check"],
)
def test_every_verb_runs_where_numpy_cannot_be_imported(argv, code, tmp_path):
    # The same stdout, stderr and exit code as a run that could load numpy.
    argv = _with_input_file(argv, tmp_path)
    normal = _python("-m", "quditgraphs", *argv)
    blocked = _python("-c", NUMPY_BLOCKED_PROBE, *argv)
    *message, probe = blocked.stderr.splitlines()
    assert normal.returncode == code, normal.stderr
    assert json.loads(probe)["code"] == code, blocked.stderr
    assert (blocked.stdout, message) == (normal.stdout, normal.stderr.splitlines())
    assert normal.stdout or code == 3


# Runs the CLI as the console script does and reports, as the last line of
# stderr, the exit code and every quditgraphs module loaded.
MODULES_PROBE = """
import json, sys
from quditgraphs.__main__ import main
code = main()
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "quditgraphs")
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""
ENTRY = ["", "__main__", "cli", "counting"]
EDGE_GATES = [*ENTRY, "diagonals", "graphs", "lanes"]
SOLVE = [*ENTRY, "graphs", "lanes", "newton"]


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["census", "--d", "3", "--n", "2", "--mode", "hypergraph"], ENTRY),
        (["--help"], ENTRY),
        (["matrix", "--d", "3", "--block", "2"], [*ENTRY, "lanes"]),
        (["solve", "--phases", PHASES, "--mode", "multihypergraph"], SOLVE),
        (["solve", "--phases", PHASES, "--mode", "multihypergraph", "--all-solutions"], SOLVE),
        (["build-state", "--graph", GRAPH], EDGE_GATES),
        (["build-state", "--dense", "--graph", GRAPH], EDGE_GATES),
        (["verify-stabilizers", "--graph", GRAPH], EDGE_GATES),
        (["identity-check", "--d", "2", "--n", "2", "--exhaustive"], EDGE_GATES),
    ],
    ids=["census", "help", "matrix", "solve", "solve-all-solutions", "build-state",
         "build-state-dense", "verify-stabilizers", "identity-check"],
)
def test_each_verb_loads_exactly_its_modules(argv, modules, tmp_path):
    result = _python("-c", MODULES_PROBE, *_with_input_file(argv, tmp_path))
    expected = sorted(f"quditgraphs.{name}".rstrip(".") for name in modules)
    assert json.loads(result.stderr.splitlines()[-1]) == {"code": 0, "loaded": expected}


def test_library_import_leaves_the_environment_alone():
    result = _python(
        "-c",
        "import os; before = dict(os.environ); import quditgraphs, quditgraphs.cli; "
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)",
        environ=UNSET_BLAS,
    )
    assert result.stdout.split() == ["True", "False"], result.stderr


# Modules a census never runs: the edge and state layers, the solver's
# module, and dataclasses with the inspect it imports.
NOT_FOR_CENSUS = [
    "dataclasses", "inspect", "quditgraphs.graphs", "quditgraphs.states",
    "quditgraphs.correspondence",
]


# Modules a solve never runs: no module of the package imports dataclasses,
# the solve runs on the lanes of ``quditgraphs.lanes``, and the edge-gate
# kernel is for edge maps.
NOT_FOR_SOLVE = ["dataclasses", "inspect", "numpy", "quditgraphs.diagonals"]


def _importtime(*argv):
    """The modules ``python -X importtime -m quditgraphs`` lists for a request."""
    result = _python("-X", "importtime", "-m", "quditgraphs", *argv)
    lines = result.stderr.splitlines()
    return result.returncode, [line.rsplit("|", 1)[-1].strip() for line in lines]


def test_importtime_lists_no_numpy_module():
    code, imported = _importtime("census", "--d", "4", "--n", "1", "--mode", "multihypergraph")
    assert code == 0, imported
    assert "quditgraphs.counting" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    assert not set(NOT_FOR_CENSUS) & set(imported)


@pytest.mark.parametrize(
    "verb", [["build-state"], ["build-state", "--dense"], ["verify-stabilizers"]], ids=" ".join
)
def test_edge_map_importtime_lists_no_numpy(verb, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH))
    code, imported = _importtime(*verb, "--graph", str(path))
    assert code == 0, imported
    assert "quditgraphs.diagonals" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_identity_check_importtime_lists_the_kernel_and_no_numpy():
    # The exhaustive d=3 n=2 check finds a broken identity: exit 1.
    code, imported = _importtime("identity-check", "--d", "3", "--n", "2", "--exhaustive")
    assert code == 1, imported
    assert "quditgraphs.diagonals" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("mode", ["hypergraph", "multihypergraph"])
def test_solve_importtime_lists_no_dataclasses_inspect_or_numpy(mode, tmp_path):
    # The worked table is reachable in multihypergraph mode only: one
    # request exits 0 and the other 1.
    path = tmp_path / "phases.json"
    path.write_text(json.dumps({"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}))
    code, imported = _importtime("solve", "--phases", str(path), "--mode", mode)
    assert code == (0 if mode == "multihypergraph" else 1), imported
    assert {"quditgraphs.graphs", "quditgraphs.lanes", "quditgraphs.newton"} <= set(imported)
    loaded = set(imported) | {name.split(".")[0] for name in imported}
    assert not set(NOT_FOR_SOLVE) & loaded


def test_matrix_importtime_lists_lanes_and_no_kernel_or_numpy():
    code, imported = _importtime("matrix", "--d", "6", "--block", "1")
    assert code == 0, imported
    assert "quditgraphs.lanes" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    assert "quditgraphs.diagonals" not in imported


def test_cli_import_loads_no_edge_layer():
    result = _python(
        "-c", "import json, sys, quditgraphs.cli; print(json.dumps(list(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert not {
        "dataclasses", "inspect", "quditgraphs.graphs", "hashlib", "argparse", "_hashlib"
    } & loaded


def test_no_verb_loads_openssl(tmp_path):
    # solve and census print a fingerprint, hashed by the interpreter's own
    # SHA-256 module; no verb imports hashlib or OpenSSL's _hashlib.
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"d": 3, "n": 2, "edges": []}))
    phases = tmp_path / "phases.json"
    phases.write_text(json.dumps(PHASES))
    for argv, code in [
        (["build-state", "--graph", str(graph)], 0),
        (["census", "--d", "3", "--n", "1", "--mode", "hypergraph"], 0),
        (["solve", "--phases", str(phases), "--mode", "hypergraph"], 1),
    ]:
        report = json.loads(_python("-c", CLI_PROBE, *argv).stderr.splitlines()[-1])
        assert (report["code"], report["loaded"]) == (code, [])


# The probe in a child where neither built-in SHA-256 module can be imported,
# so that the fingerprint falls back to hashlib.
SHA_BLOCKED_PROBE = 'import sys\nsys.modules["_sha256"] = sys.modules["_sha2"] = None\n' + CLI_PROBE


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--d", "3", "--n", "2", "--mode", "multihypergraph"],
        ["census", "--d", "12", "--n", "1", "--mode", "hypergraph"],
        ["solve", "--phases", PHASES, "--mode", "multihypergraph"],
        ["solve", "--phases", PHASES, "--mode", "hypergraph"],
    ],
    ids=["census", "census-hypergraph", "solve", "solve-unreachable"],
)
def test_fingerprint_without_the_builtin_sha256_module(argv, tmp_path):
    # The hashlib fallback prints the same bytes as the built-in module.
    argv = _with_input_file(argv, tmp_path)
    normal = _python("-m", "quditgraphs", *argv)
    blocked = _python("-c", SHA_BLOCKED_PROBE, *argv)
    report = json.loads(blocked.stderr.splitlines()[-1])
    assert report["code"] == normal.returncode and "hashlib" in report["loaded"]
    assert blocked.stdout == normal.stdout and 'fingerprint": "' in normal.stdout


class TestLazyExports:
    def test_dir_lists_exports_before_they_load(self):
        result = _python(
            "-c",
            "import quditgraphs, sys; "
            "print(set(quditgraphs.__all__) <= set(dir(quditgraphs)), 'numpy' in sys.modules)",
        )
        assert result.stdout.split() == ["True", "False"], result.stderr

    def test_every_exported_name_resolves(self):
        for name in quditgraphs.__all__:
            assert getattr(quditgraphs, name) is not None

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from quditgraphs import *", namespace)
        assert set(quditgraphs.__all__) <= set(namespace)
        assert namespace["census"] is counting.census

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            quditgraphs.no_such_name

    def test_size_limit_is_one_class(self):
        assert quditgraphs.SizeLimit is counting.SizeLimit

    def test_every_name_comes_from_the_module_that_defines_it(self):
        for name, module in quditgraphs._EXPORTS.items():
            home = importlib.import_module(f"quditgraphs.{module}")
            tree = ast.parse(Path(home.__file__).read_text())
            defined = {node.name for node in tree.body if hasattr(node, "name")}
            defined |= {
                target.id
                for node in tree.body
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            assert name in defined, (name, module)
            assert getattr(quditgraphs, name) is getattr(home, name)

    def test_numpy_free_names_load_no_numpy(self):
        # The names of the modules that import no numpy, quditgraphs.verify among them.
        names = [
            name
            for name, module in quditgraphs._EXPORTS.items()
            if module in ("counting", "diagonals", "graphs", "newton")
        ]
        assert "verify" in names
        result = _python(
            "-c",
            f"import quditgraphs, sys; [getattr(quditgraphs, name) for name in {names!r}]; "
            "print('numpy' in sys.modules)",
        )
        assert result.stdout.strip() == "False", result.stderr

    def test_census_is_one_function(self):
        from quditgraphs import cli, correspondence

        assert quditgraphs.census is correspondence.census is counting.census
        assert cli.counting is counting
