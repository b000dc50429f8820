"""Each command imports only the modules it runs.

``distinv/__init__.py`` exports its names lazily (PEP 562) and ``cli``
imports a command's modules in its handler, so start-up pays only for what
the command uses.  Each check runs a fresh interpreter, since this one has
imported every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distinv

SRC = str(Path(distinv.__file__).resolve().parent.parent)

# run distinv.cli.main on argv, then print the distinv modules loaded
_PROBE = """
import json, sys
from distinv.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stdout = sys.__stdout__
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "distinv")))
"""

# every name the package exported before its exports became lazy
EXPORTS = {
    "graphs": [
        "DisconnectedGraphError", "DistanceData", "FormatError", "Graph",
        "GraphError", "all_pairs_distances", "complement", "emit_graph6",
        "from_edge_list", "induced_subgraph", "is_connected", "parse_edge_list",
        "parse_graph6",
    ],
    "invariants": ["CSV_HEADER", "InvariantReport", "full_report"],
    "families": [
        "FamilyError", "FamilySpec", "a_k", "attach_pendant_paths_at",
        "attach_pendants_at", "build_family", "cartesian_product", "complete",
        "cycle", "double_star", "figure1", "hypercube", "parse_family_spec",
        "path", "star", "thm29_construction",
    ],
    "sweeps": [
        "SweepError", "SweepSpec", "SweepSummary", "enumerate_connected_graphs",
        "enumerate_trees", "fold_sweep", "iter_sweep", "parse_sweep_spec",
        "sample_diameter2_graphs",
    ],
    "ud": [
        "UdCertificate", "eccentric_set", "find_ud_certificate", "is_ud_pair",
        "transmission_gap", "transmission_gap_equality_set",
    ],
    "theorems": [
        "ALL_UNARY_IDS", "CheckReport", "TheoremVerdict", "UNARY_CHECKS",
        "check_c44", "check_product_identities", "check_t42", "check_t43",
        "check_t52", "check_t54", "hunt",
    ],
}  # fmt: skip


def _loaded(*argv, cwd):
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
    )  # fmt: skip
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_version_loads_only_the_cli(tmp_path):
    assert _loaded("--version", cwd=tmp_path) == {"distinv", "distinv.cli"}


@pytest.mark.parametrize("command", ["invariants", "ud"])
def test_ingest_commands_load_no_sweep_code(tmp_path, command):
    # graph6 lines of orders 2 and 3, an edge list, a disconnected graph
    (tmp_path / "in.g6").write_text("A_\nBw\nBW\nCK\n")
    (tmp_path / "p3.edges").write_text("3 2\n0 1\n1 2\n")
    argv = [command, "in.g6", "p3.edges", "--output", "out.txt"]
    loaded = _loaded(*argv, cwd=tmp_path)
    assert (tmp_path / "out.txt").read_text().count("\n") == 4 + (command == "invariants")
    want = {"distinv", "distinv.cli", "distinv.graphs", "distinv.invariants"}
    assert loaded == want | ({"distinv.ud"} if command == "ud" else set())


def test_every_export_resolves():
    code = (
        "import distinv, json, sys; "
        "print(json.dumps({n: getattr(distinv, n).__module__ for n in sys.argv[1:]}))"
    )
    names = [name for names in EXPORTS.values() for name in names if name[0].islower()]
    done = subprocess.run(
        [sys.executable, "-c", code, *names],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )  # fmt: skip
    origin = {n: m for m, names in EXPORTS.items() for n in names}
    assert json.loads(done.stdout) == {n: f"distinv.{origin[n]}" for n in names}
    for module, names in EXPORTS.items():
        assert getattr(distinv, module).__name__ == f"distinv.{module}"
        for name in names:
            assert getattr(distinv, name) is getattr(getattr(distinv, module), name)
    assert set(distinv.__all__) == set(EXPORTS) | {n for v in EXPORTS.values() for n in v}
    with pytest.raises(AttributeError):
        distinv.no_such_name  # noqa: B018


def test_only_invariants_imports_struct():
    # the packed-lane format has one home, invariants.Lanes: a struct codec
    # elsewhere is a second definition of a lane
    users = set()
    for path in Path(distinv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "struct" in names or isinstance(node, ast.ImportFrom) and node.module == "struct":
                users.add(path.stem)
    assert users == {"invariants"}


def test_sweeps_import_no_per_graph_bfs():
    # a sweep's filters are kernel gates: a per-graph BFS or degree loop in
    # sweeps would be a second definition of the filtered invariants
    tree = ast.parse((Path(distinv.__file__).parent / "sweeps.py").read_text())
    nodes = list(ast.walk(tree))
    names = {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert "gate_words" in names and "all_pairs_distances" not in names
    assert "min_degree" not in attrs
