"""Command-line interface: commands, formats, exit codes."""

import json
import subprocess
import sys

from distinv import parse_graph6
from distinv.cli import main


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


class TestUdCommand:
    def test_tree_certificate(self, capsys, tmp_path):
        f = tmp_path / "p5.edges"
        f.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        code, out, err = run_cli(capsys, "ud", str(f))
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["is_ud"] and rec["pair"] == [0, 4] and rec["diam"] == 4

    def test_figure1_pair(self, capsys, tmp_path, data_dir):
        from distinv import emit_graph6, figure1

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


class TestOutputAndPackaging:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "verify", "--output", str(target),
            "--sweep", "trees:3..4", "--theorems", "T3.1",
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("theorem_id,")

    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "distinv.cli", "family", "path:4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert parse_graph6(proc.stdout.strip()).n == 4


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text
