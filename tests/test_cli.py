"""Command-line interface: commands, formats, exit codes."""

import argparse
import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from distinv import Graph, emit_graph6, from_edge_list, parse_graph6
from distinv import graphs as graphs_mod
from distinv import invariants as invariants_mod
from distinv import ud as ud_mod
from distinv.cli import _build_parser, main
from distinv.families import path
from distinv.graphs import MAX_INPUT_ORDER
from distinv.invariants import LANE_MAX_N
from distinv.theorems import LANE_BLOCK


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_graph6_stdin(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("A_\n")
        code, out, err = run_cli(capsys, "invariants", str(f))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,m,diam")
        assert lines[1] == "2,1,1,1,1,2,1,2,2,2,1,1,1,1,true"

    def test_stdin_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _FakeStdin("A_\nBw\n"))
        code, out, err = run_cli(capsys, "invariants")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "p3.edges"
        f.write_text("# path\n3 2\n0 1\n1 2\n")
        code, out, err = run_cli(capsys, "invariants", "--format", "json", str(f))
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["W"] == 4 and rec["E2"] == 4

    def test_tab_separated_edge_list(self, capsys, tmp_path):
        # an edge list is told from graph6 by its header's two fields,
        # whatever whitespace parts them
        spaced, tabbed = tmp_path / "p3.edges", tmp_path / "p3-tabs.edges"
        spaced.write_text("# path\n3 2\n0 1\n1 2\n")
        tabbed.write_text("# path\n3\t2\n0\t1\n1\t2\n")
        for command in ("invariants", "ud"):
            want = run_cli(capsys, command, str(spaced))
            assert want[0] == 0 and want[2] == ""
            assert run_cli(capsys, command, str(tabbed)) == want

    @pytest.mark.parametrize("command", ["invariants", "ud"])
    def test_stdin_read_line_by_line(self, monkeypatch, command):
        # the first row is written after at most one window of lines is read
        lines = ["Bw\n"] * (3 * LANE_BLOCK)
        stdin = _CountingStdin(lines)
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", stdin)
        argv = [command] + (["--format", "json"] if command == "invariants" else [])
        assert main(argv) == 0
        assert stdin.read_lines == len(lines)
        assert stdin.at_first_write <= LANE_BLOCK + 1

    def test_read_error_names_the_input_and_goes_on(self, capsys, monkeypatch, tmp_path):
        # an OSError while reading, after the open, is that input's error line
        good = tmp_path / "good.g6"
        good.write_text("Bw\n")
        monkeypatch.setattr(sys, "stdin", _FailingStdin(["A_\n"]))
        code, out, err = run_cli(capsys, "invariants", "-", str(good))
        assert code == 2
        assert err == "error: <stdin>: [Errno 5] Input/output error\n"
        assert len(out.splitlines()) == 3  # header, <stdin>:1 and good.g6:1

    def test_petersen_fixture(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys, "invariants", "--format", "json", str(data_dir / "petersen.edges")
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert (rec["n"], rec["m"], rec["W"], rec["E1"], rec["E2"]) == (
            10, 15, 75, 40, 60,
        )
        assert rec["self_centered"] is True

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_\n!!!bogus!!!\n")
        code, out, err = run_cli(capsys, "invariants", str(f))
        assert code == 2
        assert "error:" in err
        assert len(out.strip().splitlines()) == 2  # header + the good row

    def test_huge_order_header_exit_2(self, capsys, tmp_path, monkeypatch):
        # the order bound must trip before the parser builds any graph
        from distinv import graphs as graphs_mod

        def refuse(n, edges):
            raise AssertionError(f"allocated a graph of order {n}")

        monkeypatch.setattr(graphs_mod, "from_edge_list", refuse)
        f = tmp_path / "huge.edges"
        f.write_text("1000000000 0\n")
        code, out, err = run_cli(capsys, "invariants", str(f))
        assert code == 2
        assert "exceeds the input bound" in err

    def test_disconnected_graph_record(self, capsys, tmp_path):
        f = tmp_path / "disc.edges"
        f.write_text("4 2\n0 1\n2 3\n")
        code, out, err = run_cli(capsys, "invariants", str(f))
        assert code == 2 and "disconnected" in err


class TestFamilyCommand:
    def test_ak2(self, capsys):
        code, out, err = run_cli(capsys, "family", "ak:2")
        assert code == 0
        assert parse_graph6(out.strip()).n == 8

    def test_cartesian(self, capsys):
        code, out, err = run_cli(capsys, "family", "cartesian(path:3,cycle:5)")
        assert code == 0
        assert parse_graph6(out.strip()).n == 15

    def test_figure1(self, capsys):
        code, out, err = run_cli(capsys, "family", "figure1")
        g = parse_graph6(out.strip())
        assert g.n == 16 and g.m == 22

    def test_bad_spec_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "family", "bogus:3")
        assert code == 2 and "error:" in err

    def test_repeated_key_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "family", "thm29:n=10,n=11,np=1")
        assert code == 2 and out == ""
        assert "repeated key 'n'" in err

    @pytest.mark.parametrize(
        "spec,order",
        [
            ("thm29:n=100000,np=3", 100000),
            ("path:100000000", 100000000),
            ("ak:100000", 200004),
            ("hypercube:13", 8192),
            ("cartesian(complete:3000,complete:3000)", 9000000),
            ("pendant_ud(complete:2047,l=1)", 2049),
        ],
    )
    def test_order_above_input_bound_exit_2(self, capsys, spec, order):
        # refused from the spec alone: building any of these takes seconds to
        # hours, or ends in a MemoryError
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "family", spec)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (
            f"error: family {spec} has {order} vertices, "
            f"above the bound of {MAX_INPUT_ORDER}\n"
        )

    def test_order_at_input_bound_builds(self, capsys):
        code, out, err = run_cli(capsys, "family", "hypercube:11")
        assert code == 0 and parse_graph6(out.strip()).n == MAX_INPUT_ORDER


class TestEnumerateCommand:
    def test_trees(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "trees:2..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 1 + 2 + 3 + 6
        assert all(parse_graph6(ln).m == parse_graph6(ln).n - 1 for ln in lines)

    def test_diam2_seeded_reproducible(self, capsys):
        code1, out1, _ = run_cli(capsys, "enumerate", "diam2:n=9,count=5,seed=11")
        code2, out2, _ = run_cli(capsys, "enumerate", "diam2:n=9,count=5,seed=11")
        assert code1 == code2 == 0 and out1 == out2

    def test_seed_flag_overrides(self, capsys):
        _, out1, _ = run_cli(capsys, "enumerate", "--seed", "3", "diam2:n=9,count=5")
        _, out2, _ = run_cli(capsys, "enumerate", "diam2:n=9,count=5,seed=3")
        assert out1 == out2

    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "trees:1..99")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "spec,key",
        [
            ("diam2:n=9,count=2,count=1,seed=3", "count"),
            ("trees:5..6,filter=nope,filter=min_degree_2", "filter"),
        ],
    )
    def test_repeated_option_exit_2(self, capsys, spec, key):
        code, out, err = run_cli(capsys, "enumerate", spec)
        assert code == 2 and out == ""
        assert f"repeated sweep option '{key}'" in err


class TestVerifyCommand:
    def test_tree_claims_exit_0(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--sweep", "trees:2..10", "--theorems", "T3.1,T3.2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem_id,graphs_visited,hypothesis_hits,counterexamples,equality_cases"
        assert lines[1].startswith("T3.1,200,")

    def test_all_unary_small(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--sweep", "connected:3..5", "--theorems", "all-unary"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 14

    def test_json_format(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--format", "json",
            "--sweep", "trees:3..3", "--theorems", "T3.1",
        )
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["theorem_id"] == "T3.1" and rec["equality_count"] == 1

    def test_counterexample_exit_1(self, capsys):
        # the one real failure in the catalog: T3.3 on the order-9 double star
        code, out, err = run_cli(
            capsys, "verify", "--sweep", "trees:9..9", "--theorems", "T3.3"
        )
        assert code == 1
        assert "counterexample T3.3" in err
        assert "T3.3,47,47,1,0" in out

    def test_workers_flag_same_output(self, capsys):
        args = ["verify", "--sweep", "trees:2..9", "--theorems", "T3.1,L4.1"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args, "--workers", "3")
        assert code1 == code2 == 0 and out1 == out2

    def test_bad_theorem_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--sweep", "trees:3..4", "--theorems", "T9.9"
        )
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("token", [",,", " , ", ""])
    def test_no_theorem_ids_exit_2(self, capsys, token):
        # nothing to check: no sweep runs and no header is printed
        code, out, err = run_cli(
            capsys, "verify", "--sweep", "trees:2..5", "--theorems", token
        )
        assert code == 2 and out == ""
        assert "error: no theorem ids given" in err


class TestUdCommand:
    def test_tree_certificate(self, capsys, tmp_path):
        f = tmp_path / "p5.edges"
        f.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        code, out, err = run_cli(capsys, "ud", str(f))
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["is_ud"] and rec["pair"] == [0, 4] and rec["diam"] == 4

    def test_figure1_pair(self, capsys, tmp_path, data_dir):
        from distinv import figure1

        f = tmp_path / "f.g6"
        f.write_text(emit_graph6(figure1()) + "\n")
        code, out, err = run_cli(capsys, "ud", str(f))
        rec = json.loads(out.strip())
        assert rec["is_ud"] and rec["pair"] == [0, 11]

    def test_c6_failures(self, capsys, tmp_path):
        f = tmp_path / "c6.edges"
        f.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        code, out, err = run_cli(capsys, "ud", str(f))
        rec = json.loads(out.strip())
        assert rec["is_ud"] is False and len(rec["failures"]) == 3

    @pytest.mark.parametrize("command", ["ud", "invariants"])
    def test_holds_at_most_one_block_of_graphs(self, monkeypatch, tmp_path, command):
        # CK is disconnected; every parse is checked against the rows and error lines already
        # written: the graphs parsed and not yet written never exceed
        # LANE_BLOCK
        f = tmp_path / "many.g6"
        f.write_text("A_\nBw\nCK\n" * LANE_BLOCK)
        written = _LineCounter()
        parsed = 0
        real_decode = graphs_mod.decode_graph6

        def parse(line):
            nonlocal parsed
            parsed += 1
            assert parsed - written.rows <= LANE_BLOCK
            return real_decode(line)

        monkeypatch.setattr(graphs_mod, "decode_graph6", parse)
        monkeypatch.setattr(sys, "stdout", written)
        monkeypatch.setattr(sys, "stderr", written)
        assert main([command, str(f)]) == 2
        assert parsed == 3 * LANE_BLOCK
        assert written.rows == 3 * LANE_BLOCK + (command == "invariants")

    @pytest.mark.parametrize(
        "command, compute", [("ud", "find_ud_certificate"), ("invariants", "full_report")]
    )
    def test_large_order_is_not_held(self, monkeypatch, tmp_path, command, compute):
        # a graph above LANE_MAX_N goes through the per-graph path as it is
        # read: by the next parse it has been computed, so the window keeps
        # its output line and not the graph
        f = tmp_path / "big.g6"
        big = emit_graph6(path(LANE_MAX_N + 1))
        f.write_text("\n".join(["A_", big, "Bw", big, "A_"]) + "\n")
        pending = []
        module = ud_mod if command == "ud" else invariants_mod
        real_decode, real_compute = graphs_mod.decode_graph6, getattr(module, compute)

        def parse(line):
            assert not pending
            n, pairs = real_decode(line)
            if n > LANE_MAX_N:
                pending.append(Graph._raw(n, graphs_mod._rows_from_pairs(n, pairs)))
            return n, pairs

        def run(g, *args):
            if g.n > LANE_MAX_N:
                pending.remove(g)
            return real_compute(g, *args)

        monkeypatch.setattr(graphs_mod, "decode_graph6", parse)
        monkeypatch.setattr(module, compute, run)
        assert main([command, str(f)]) == 0
        assert not pending

    @pytest.mark.parametrize(
        "command, compute", [("ud", "find_ud_certificate"), ("invariants", "full_report")]
    )
    def test_disconnected_lane_takes_no_per_graph_path(
        self, capsys, monkeypatch, tmp_path, command, compute
    ):
        # B? (order 3, no edges) shares its order with two triangles: its
        # error line comes from the lane kernel's None, with no per-graph call
        f, ok = tmp_path / "window.g6", tmp_path / "connected.g6"
        f.write_text("Bw\nB?\nBw\n")
        ok.write_text("Bw\nBw\n")
        module = ud_mod if command == "ud" else invariants_mod
        calls = []
        real = getattr(module, compute)
        monkeypatch.setattr(module, compute, lambda *a: calls.append(a) or real(*a))
        code, out, err = run_cli(capsys, command, str(f))
        assert code == 2 and not calls
        assert err == f"error: {f}:2: graph is disconnected\n"
        assert out == run_cli(capsys, command, str(ok))[1]


class _LineCounter:
    rows = 0

    def write(self, text):
        self.rows += text.count("\n")

    def flush(self):
        pass


class TestOutputAndPackaging:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "verify", "--output", str(target),
            "--sweep", "trees:3..4", "--theorems", "T3.1",
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("theorem_id,")

    @pytest.mark.parametrize(
        "argv,code,left",
        [
            (["enumerate", "bogus:3"], 2, "kept\n"),
            (["family", "nope:3"], 2, "kept\n"),
            (["verify", "--sweep", "bogus:3", "--theorems", "T3.1"], 2, "kept\n"),
            (["verify", "--sweep", "trees:3..4", "--theorems", "T9.9"], 2, "kept\n"),
            # a command that succeeds without printing still truncates
            (["enumerate", "connected:1..1,filter=min_degree_2"], 0, ""),
        ],
        ids=["enumerate", "family", "verify-sweep", "verify-claim", "empty-success"],
    )
    def test_output_file_untouched_until_first_write(
        self, capsys, tmp_path, argv, code, left
    ):
        target = tmp_path / "o.txt"
        target.write_text("kept\n")
        got, out, err = run_cli(capsys, argv[0], "--output", str(target), *argv[1:])
        assert got == code and out == ""
        assert target.read_text() == left

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["family", "path:3"], "dir"),
            (["enumerate", "trees:3"], "missing"),
            # the sweep runs to the end before the first write
            (["verify", "--sweep", "trees:2..9", "--theorems", "T3.1,L4.1"], "dir"),
            # a command that succeeds without printing still opens the file
            (["enumerate", "connected:1..1,filter=min_degree_2"], "missing"),
        ],
        ids=["family-dir", "enumerate-missing", "verify-dir", "empty-success-missing"],
    )
    def test_unopenable_output_exit_2(self, capsys, tmp_path, argv, where):
        target = tmp_path if where == "dir" else tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, argv[0], "--output", str(target), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot open output file: ")
        assert str(target) in err and err.count("\n") == 1

    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "distinv.cli", "family", "path:4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert parse_graph6(proc.stdout.strip()).n == 4

    @pytest.mark.parametrize("command", ["ud", "invariants", "enumerate"])
    def test_closed_stdout_is_one_error_line(self, tmp_path, command):
        # the reader takes one line and closes the pipe while most of the
        # output, far more than a pipe holds, is still to come
        f = tmp_path / "in.g6"
        f.write_text(f"Bw\n{emit_graph6(path(4))}\n" * 20000)
        argv = ["enumerate", "trees:2..16"] if command == "enumerate" else [command, str(f)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "distinv.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "error: output closed before the command finished\n"


# every option string each command accepts; an option a command's handler
# does not read must not come back
OPTIONS = {
    "invariants": ["--format", "--output"],
    "family": ["--output"],
    "enumerate": ["--seed", "--output"],
    "verify": ["--format", "--workers", "--seed", "--verbose", "--output",
               "--sweep", "--theorems"],
    "ud": ["--output"],
}

# (command, option, value) for each option a command does not read
REMOVED = [
    ("invariants", "--workers", "2"),
    ("invariants", "--seed", "3"),
    ("invariants", "--verbose", None),
    ("family", "--format", "json"),
    ("family", "--workers", "2"),
    ("family", "--seed", "3"),
    ("family", "--verbose", None),
    ("enumerate", "--format", "json"),
    ("enumerate", "--workers", "2"),
    ("enumerate", "--verbose", None),
    ("ud", "--format", "csv"),
    ("ud", "--workers", "2"),
    ("ud", "--seed", "3"),
    ("ud", "--verbose", None),
]


class TestOptionSurface:
    def test_each_command_declares_only_the_options_it_reads(self):
        (sub,) = [
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]  # fmt: skip
        got = {
            name: sorted(
                s for a in p._actions for s in a.option_strings
                if s not in ("-h", "--help")
            )  # fmt: skip
            for name, p in sub.choices.items()
        }
        assert got == {name: sorted(opts) for name, opts in OPTIONS.items()}

    @pytest.mark.parametrize("command,option,value", REMOVED)
    def test_unread_option_exit_2(self, capsys, tmp_path, command, option, value):
        f = tmp_path / "g.g6"
        f.write_text("A_\n")
        target = {"family": "path:4", "enumerate": "trees:2..4"}.get(command, str(f))
        argv = [command, option, *([value] if value else []), target]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--seed", "3", "trees:2..5"],
            ["enumerate", "--seed", "0", "connected:3..4"],
            ["verify", "--seed", "1", "--sweep", "trees:2..4", "--theorems", "T3.1"],
        ],
    )
    def test_seed_on_unseeded_sweep_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --seed ")

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["--seed", "-1"], "seed"),
            (["--seed", "18446744073709551616"], "seed"),
            (["--sweep", "diam2:n=9,count=1073741825"], "count"),
            (["--sweep", "diam2:n=9,count=3,seed=18446744073709551621"], "seed"),
        ],
    )
    def test_diam2_stream_bounds_exit_2(self, capsys, argv, bound):
        base = ["verify", "--sweep", "diam2:n=9,count=3", "--theorems", "P2.4"]
        code, out, err = run_cli(capsys, *base, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: random sweep needs") and bound in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_run_one(self, capsys, workers):
        args = ["verify", "--sweep", "trees:2..9", "--theorems", "T3.1,L4.1"]
        code1, out1, _ = run_cli(capsys, *args, "--workers", "1")
        code2, out2, _ = run_cli(capsys, *args, "--workers", workers)
        assert code1 == code2 == 0 and out1 == out2


DIAM2 = "diam2:n=9..10,count=200,seed=5"
DIAM2_IDS = "T2.3,P2.4,T2.5,P2.6,T2.7,C2.8i,C2.8ii"
SWEEP_FILES = {
    "{wide}": ("diam2:n=31..33,count=50,seed=5", "trees:16..16"),
    "{wide128}": ("diam2:n=126..128,count=6,seed=5",),
}

# SHA-256 of stdout, stderr and exit code, each followed by a NUL byte; an
# argument "{ingest}" stands for a file holding the graph6 lines of DIAM2 and
# of trees:2..9, then a malformed line and a disconnected graph ("{good}" is
# the same file without those two lines); "{dense}" stands for a file holding
# the graph6 line of a dense order-100 graph and a line with a padding bit set;
# "{wide}" and "{wide128}" for files holding the graph6 lines of the sweeps
# that SWEEP_FILES names
GOLDEN = {
    "verify-connected-json": (
        ["verify", "--sweep", "connected:3..6", "--theorems", "all-unary",
         "--format", "json", "--verbose"],
        "848eccfb13253a2d73ab5da16297bba46d385c9693f68be8c9a3a57ba3099085",
    ),
    # two workers cut the mask scan at other block boundaries: other groups
    # of lanes with one gate word and report, and the same output
    "verify-connected-json-w2": (
        ["verify", "--sweep", "connected:3..6", "--theorems", "all-unary",
         "--format", "json", "--verbose", "--workers", "2"],
        "848eccfb13253a2d73ab5da16297bba46d385c9693f68be8c9a3a57ba3099085",
    ),
    "verify-trees-exit-1": (
        ["verify", "--sweep", "trees:2..12", "--theorems", "T3.1,T3.2,T3.3,L4.1"],
        "db0bcc94f29668059c057a30c8752023be1f44e367fe081fddbad19e0eb50540",
    ),
    # two workers fold the tree residues in children, and the T3.3
    # counterexample is reported from a child: the same output as one worker
    "verify-trees-json-w2": (
        ["verify", "--sweep", "trees:2..12", "--theorems", "T3.1,T3.2,T3.3,L4.1",
         "--format", "json", "--verbose", "--workers", "2"],
        "22033f05e782cfef648e01b941db89d47ced9779009eb3b8c8f8818c926f83da",
    ),
    "verify-diam2-w1": (
        ["verify", "--sweep", DIAM2, "--theorems", DIAM2_IDS, "--workers", "1"],
        "8877899e178512b8de528fcd1f912ecf3ebe5f6dc9db962142b59b4ee1b18985",
    ),
    "verify-diam2-w2": (
        ["verify", "--sweep", DIAM2, "--theorems", DIAM2_IDS, "--workers", "2"],
        "8877899e178512b8de528fcd1f912ecf3ebe5f6dc9db962142b59b4ee1b18985",
    ),
    "enumerate-diam2": (
        ["enumerate", DIAM2],
        "dd3e1e9cbb77ca7e0dbf6067246b7143871b0a9acbb746fb00831e2f083ccbc4",
    ),
    "invariants-csv": (
        ["invariants", "{good}"],
        "855dbb7723ee6f11bc009576a776bf2669bd618cb8521f9adc73039ce8d0194b",
    ),
    "invariants-json": (
        ["invariants", "--format", "json", "{good}"],
        "c3c7d547118673430f2bfc8c2254db16657f8fb1414f6b6f755c5df7a92ff5be",
    ),
    "ud": (
        ["ud", "{good}"],
        "b881afd3ce08aa18e8aed98b51c8a413141be2fecf121082bd8a465bec85bcec",
    ),
    "invariants-bad-lines": (
        ["invariants", "{ingest}"],
        "165765a85afe5969514c28d8bec876afae05bbbbfa4e6cffb44d3c15edeac9f2",
    ),
    "ud-bad-lines": (
        ["ud", "{ingest}"],
        "5b51468f2481d8980090d1b8e72fa9bc257f09aaf99030e5fb589c9d811ee8cc",
    ),
    "verify-bad-spec": (
        ["verify", "--sweep", "connected:0..9", "--theorems", "P2.1"],
        "becc70c701bbfa8f14fc54770f6e9689c4644a6079ac11554a4c7764bff1cbe3",
    ),
    "enumerate-connected": (
        ["enumerate", "connected:1..6"],
        "6c29dfb7ab0f7345c1ab70721dc5ae50a9b6a7f35ca64fe0e1d4a615fcf97eea",
    ),
    "family-hypercube-7": (
        ["family", "hypercube:7"],
        "ba9b2e365b6117174320e493cefaa85d7844f2022000f74713d35c9b49b4b263",
    ),
    "invariants-dense-padding": (
        ["invariants", "{dense}"],
        "559e660b2f37b418aeae70c1d6e1d1e6c6c5cb2ccdf6e7b16709ac1395d1b6ea",
    ),
    "ud-dense-padding": (
        ["ud", "{dense}"],
        "213d18b4aaeb966324288b9d33472b50faaf47c1e207553a2560d4b4deee5cdd",
    ),
    # the UD scan in 32- and 64-bit lanes, deep tree BFS (trees:16..16), and
    # in 128- and 256-bit lanes
    "ud-wide": (
        ["ud", "{wide}"],
        "9879df5e92bd58b6a586c745ede6724563032ab9e83e8244005ad0d64a5ef108",
    ),
    "ud-wide-128": (
        ["ud", "{wide128}"],
        "e3c9e1dcb476270566a232507527219789905e577ff1e8acaaef45f222671b54",
    ),
    # orders 13..16 straddle the 16/32-bit lane width bound
    "verify-diam2-lane-bound": (
        ["verify", "--sweep", "diam2:n=13..16,count=60,seed=5", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "c7e2ffd9d3c52a45c5f645b69536e8a997367ac32f76dfdd9b012d9fb0eebdc2",
    ),
    # P15 among them: the largest lane sums
    "verify-trees-15": (
        ["verify", "--sweep", "trees:15..15", "--theorems", "T3.1,T3.2,L4.1",
         "--format", "json", "--verbose"],
        "67a9c2e95c607da7a1c51deaa3dd48f9ab4f5b22b3f5e33dcdab52f6ad168458",
    ),
    # T3.3's complements in 16-bit lanes at order 15 and 32-bit lanes at 16
    "verify-t33-lane-bound": (
        ["verify", "--sweep", "trees:15..16", "--theorems", "T3.3",
         "--format", "json", "--verbose"],
        "e82f2a3d80d5fa01eb89d127638f4109cbc3b9823fd32dc873b25a86b9e16e18",
    ),
    # orders across the lane width bounds 31/32, 63/64 and 127/128
    "verify-diam2-width-32": (
        ["verify", "--sweep", "diam2:n=30..33,count=20,seed=5", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "1422117ad3ecda359127bde744f9fe2450eb1f37117e8ec7266d895b0de5d25e",
    ),
    "verify-diam2-width-64": (
        ["verify", "--sweep", "diam2:n=62..65,count=8,seed=5", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "f0a8c6440540b9580014f23c76791b034287ca0f36d6529bdd87d816c6f9313d",
    ),
    "verify-diam2-width-128": (
        ["verify", "--sweep", "diam2:n=126..128,count=4,seed=5", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "90af23af38e0848ab6ad0e76316612734589bfedf91e91deae49153fcd180f96",
    ),
    # every tree of order 16, T3.3's complements among them, in 32-bit lanes
    "verify-trees-16": (
        ["verify", "--sweep", "trees:16..16", "--theorems", "T3.1,T3.2,T3.3,L4.1",
         "--format", "json", "--verbose"],
        "4804921a8bbd14709b310abc8621c9c92578a7f569d1e912acbc356ddf459d08",
    ),
    # the tree stream's graphs and their order, in 16- and 32-bit lanes
    "enumerate-trees-18": (
        ["enumerate", "trees:2..18"],
        "83fa5be234e690d2ec7229a024b080a39cee13e94d1ac37e125a727eb45a2483",
    ),
    # "{mixed}" stands for the files of _write_mixed plus stdin: orders
    # across every lane width bound, malformed lines among the graphs, a
    # disconnected graph in a group of its order, orders 0, 1, 2 and 256
    "invariants-mixed-csv": (
        ["invariants", "{mixed}", "p3.edges", "-"],
        "b1c73f725ee95a7635208b5934eb8c8e52a8475a882ffe3fbaf757bef9093ae7",
    ),
    "invariants-mixed-json": (
        ["invariants", "--format", "json", "{mixed}", "p3.edges", "-"],
        "d24c0bd604cfea3e8eb30563695dd5694f60a5593a810b8475f0780f9a8d55a0",
    ),
    "ud-mixed": (
        ["ud", "{mixed}", "p3.edges", "-"],
        "1467aacbe4654d0d87779a8e3819c9f392b97a8d520d9f9ff049a16f89e1d8f7",
    ),
    # a lone graph of order 255: a group of one
    "invariants-p255": (
        ["invariants", "--format", "json", "p255.g6"],
        "ca66a1ba89ef877b90cbf470a368ff3e50181879be735958da3400ee5ee03a65",
    ),
    "ud-p255": (
        ["ud", "p255.g6"],
        "a389be2d0587a61c311a6b8c73bacf9a6124b7c6057f491ac25780203f13a1c9",
    ),
    # "{window}" stands for window.g6 of _write_window, one input window of
    # mixed orders with dense blocks, a graph alone at its order, a
    # disconnected graph, a malformed line and an order-256 graph
    "window-invariants-json": (
        ["invariants", "--format", "json", "{window}"],
        "96487005188bb5591aae4d27afbfa7f319afa22fa18c279f8d4d3a3b0af6a35b",
    ),
    "window-ud": (
        ["ud", "{window}"],
        "37daeb9909f6b3ba285494ffee977019b119c87d3c3902abc0599c6ec694275a",
    ),
    # each filter, on a tree, a sampled and a labeled sweep
    "enumerate-trees-non-self-centered": (
        ["enumerate", "trees:2..12,filter=non_self_centered"],
        "22b809afd84ccbe419647ee2d4c73c0c2cdbe0d99d85997904ece388d4b3a847",
    ),
    "enumerate-diam2-min-degree-2": (
        ["enumerate", "diam2:n=9..10,count=300,seed=5,filter=min_degree_2"],
        "e7f3b91d3e4f793a2d2c7096576acd385dcaba3ae124dfac341f05ced18daf83",
    ),
    # a filter over the rows alone, which runs no lane BFS
    "verify-diam2-min-degree-2": (
        ["verify", "--sweep", "diam2:n=9..12,count=2000,seed=5,filter=min_degree_2",
         "--theorems", "T2.3,P2.4,T2.5,T2.7,C2.8i,C2.8ii", "--format", "json", "--verbose"],
        "627323d850d755d1703885ef9b00f0f1d7afba7166088186b206a769fa8b6957",
    ),
    "verify-connected-min-degree-2": (
        ["verify", "--sweep", "connected:3..6,filter=min_degree_2", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "477e59c5c4a35b1341601fb0eaaf2a9be9492c1481ed6f27ef7c4e12e99eb90a",
    ),
    # the graph6 "~" header from order 63, and the 64/128-bit lane widths,
    # in a sweep's output and in the blocks enumerate writes.  No lane of it is
    # named: a sample this large has no universal vertex, and L4.1's gap at v
    # on a self-centered diameter-2 graph is deg(v) > 0
    "verify-diam2-header-63": (
        ["verify", "--sweep", "diam2:n=61..64,count=30,seed=5", "--theorems",
         "all-unary", "--format", "json", "--verbose"],
        "68dfbce01c6ac408fb88df769e7e12b752518ba31fabaa86f48a865a844e1d85",
    ),
    "enumerate-diam2-header-63": (
        ["enumerate", "diam2:n=61..64,count=30,seed=5"],
        "48c89111e7151ed5052f4d60a4a91527e18abfa3183ca70b63ac3dc7c4abf5c9",
    ),
    "enumerate-trees-13-14": (
        ["enumerate", "trees:13..14"],
        "4fe6f6147393c1a8558a6de321238cf0519762975edb1ce05394514c713bc3ba",
    ),
    "verify-connected-self-centered": (
        ["verify", "--sweep", "connected:3..6,filter=self_centered", "--theorems",
         "all-unary", "--format", "json"],
        "514276acf10acd06459baaaeba9e0810ef0f95913b2aa147211e98689105c051",
    ),
}


def _digest(code, out, err):
    h = hashlib.sha256()
    for part in (out, err, str(code)):
        h.update(part.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(capsys, monkeypatch, tmp_path, name):
    argv, digest = GOLDEN[name]
    if "{good}" in argv or "{ingest}" in argv:
        # relative names, so the error labels on stderr do not vary
        monkeypatch.chdir(tmp_path)
        lines = []
        for spec in (DIAM2, "trees:2..9"):
            assert main(["enumerate", spec]) == 0
            lines.append(capsys.readouterr().out)
        (tmp_path / "good.g6").write_text("".join(lines))
        (tmp_path / "ingest.g6").write_text("".join(lines) + "!!!bogus!!!\nCK\n")
    if "{dense}" in argv:
        monkeypatch.chdir(tmp_path)
        dense = from_edge_list(
            100, [(u, v) for v in range(100) for u in range(v) if (u * v + u + v) % 5]
        )
        (tmp_path / "dense.g6").write_text(emit_graph6(dense) + "\nA`\n")
    for key in SWEEP_FILES.keys() & set(argv):
        monkeypatch.chdir(tmp_path)
        lines = []
        for spec in SWEEP_FILES[key]:
            assert main(["enumerate", spec]) == 0
            lines.append(capsys.readouterr().out)
        (tmp_path / f"{key[1:-1]}.g6").write_text("".join(lines))
    if "{mixed}" in argv or "p255.g6" in argv:
        monkeypatch.chdir(tmp_path)
        _write_mixed(capsys, tmp_path)
        monkeypatch.setattr(sys, "stdin", _FakeStdin("A_\nBw\nCK\nD?{\n"))
    if "{window}" in argv:
        monkeypatch.chdir(tmp_path)
        _write_window(capsys, tmp_path)
    names = {"{good}": "good.g6", "{ingest}": "ingest.g6", "{dense}": "dense.g6",
             "{mixed}": "mixed.g6", "{window}": "window.g6"}
    argv = [names.get(a, f"{a[1:-1]}.g6" if a in SWEEP_FILES else a) for a in argv]
    assert _digest(*run_cli(capsys, *argv)) == digest


def _write_mixed(capsys, tmp_path):
    """Write mixed.g6, p255.g6 and p3.edges into ``tmp_path``.

    mixed.g6 is one shuffled file of diam2: samples at orders 15/16, 31/32
    and 127/128, the trees of orders 2..9, P_255 and C_255, and K_256, with
    "?", "@" twice and "A_"; two malformed lines and two disconnected
    graphs (orders 2 and 9, each among graphs of its order) sit in its
    middle.
    """
    lines = []
    for argv in (
        ["enumerate", "diam2:n=15..16,count=12,seed=5"],
        ["enumerate", "diam2:n=31..32,count=4,seed=5"],
        ["enumerate", "diam2:n=127..128,count=2,seed=5"],
        ["enumerate", "trees:2..9"],
        ["family", "cycle:255"],
        ["family", "complete:256"],
        ["family", "path:255"],
    ):
        assert main(argv) == 0
        lines.extend(capsys.readouterr().out.split())
    (tmp_path / "p255.g6").write_text(lines[-1] + "\n")
    lines += ["?", "@", "@", "A_"]
    random.Random(12).shuffle(lines)
    third = len(lines) // 3
    lines[third:third] = ["!!!bogus!!!", "H??????", "D?}", "A?"]
    (tmp_path / "mixed.g6").write_text("\n".join(lines) + "\n")
    (tmp_path / "p3.edges").write_text("# path\n3 2\n0 1\n1 2\n")


def _write_window(capsys, tmp_path):
    """Write window.g6 into ``tmp_path``: one shuffled window of diam2:
    samples at orders 9..12, the trees of orders 2..8, K_20, K_20 minus an
    edge, K_33 and K_33 minus an edge (dense blocks), C_13 (the only graph
    of its order), P_256 (above the lane orders), a disconnected order-4
    graph among the trees of order 4 and a malformed line."""
    lines = []
    for argv in (
        ["enumerate", "diam2:n=9..12,count=40,seed=7"],
        ["enumerate", "trees:2..8"],
        ["family", "complete:20"],
        ["family", "complete:33"],
        ["family", "cycle:13"],
        ["family", "path:256"],
    ):
        assert main(argv) == 0
        lines.extend(capsys.readouterr().out.split())
    for n in (20, 33):
        edges = [(u, v) for v in range(n) for u in range(v) if (u, v) != (3, 7)]
        lines.append(emit_graph6(from_edge_list(n, edges)))
    lines += ["CK", "!!!bogus!!!"]
    random.Random(18).shuffle(lines)
    assert len(lines) < LANE_BLOCK
    (tmp_path / "window.g6").write_text("\n".join(lines) + "\n")


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text

    def __iter__(self):
        return iter(self._text.splitlines(keepends=True))


class _FailingStdin:
    """Stdin whose lines raise EIO once the given ones are read."""

    def __init__(self, lines):
        self._lines = lines

    def __iter__(self):
        yield from self._lines
        raise OSError(5, "Input/output error")


class _CountingStdin:
    """Lines of stdin, counted as they are read, one at a time or all at
    once; ``at_first_write`` is the count when the output is first
    written to."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.read_lines = 0
        self.at_first_write = None

    def __iter__(self):
        for line in self._lines:
            self.read_lines += 1
            yield line

    def read(self):
        return "".join(self)

    def write(self, text):
        if self.at_first_write is None:
            self.at_first_write = self.read_lines

    def flush(self):
        pass
