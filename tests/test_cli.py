"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import json

import pytest

from linfor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_star_host(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "6", "--k", "3", "--a", "1")
        assert code == 0
        assert out == "Esa?\n"  # K_{1,5}

    def test_matches_library(self, capsys, tmp_path):
        from linfor import ConstructionParams, build_host, to_graph6

        out_file = tmp_path / "host.g6"
        code, _, _ = run(
            capsys, "construct", "--n", "8", "--k", "5", "--a", "0",
            "--out", str(out_file),
        )
        assert code == 0
        expected = to_graph6(build_host(ConstructionParams(8, 5, 0)))
        assert out_file.read_text() == expected + "\n"

    def test_invalid_parts_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "5", "--k", "3", "--a", "2")
        assert code == 2
        assert "error" in err


class TestCount:
    def test_counts_per_line(self, capsys, tmp_path):
        from linfor import Graph, to_graph6

        src = tmp_path / "graphs.g6"
        src.write_text(
            to_graph6(Graph.complete(4)) + "\n" + to_graph6(Graph.cycle(5)) + "\n"
        )
        code, out, _ = run(capsys, "count", "--in", str(src), "--r", "3")
        assert code == 0
        assert out == "4\n0\n"

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("C~\x07\n")
        code, _, _ = run(capsys, "count", "--in", str(src), "--r", "2")
        assert code == 2

    def test_parse_failure_names_physical_line(self, capsys, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("C~\n\nC~\x07\nC~\n")  # blank line 2 still counts
        for argv in (
            ("count", "--in", str(src), "--r", "2"),
            ("transform", "closure", "--in", str(src), "--k", "4"),
            ("verify", "theorem1", "--in", str(src), "--k", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "error: line 3: " in err


class TestTransform:
    def test_closure(self, capsys, tmp_path):
        from linfor import Graph, to_graph6

        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(Graph.cycle(5)) + "\n")
        code, out, _ = run(capsys, "transform", "closure", "--in", str(src), "--k", "4")
        assert code == 0
        assert out.strip() == to_graph6(Graph.complete(5))

    def test_core(self, capsys, tmp_path):
        from linfor import Graph, to_graph6

        tree = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        src = tmp_path / "tree.g6"
        src.write_text(to_graph6(tree) + "\n")
        code, out, _ = run(capsys, "transform", "core", "--in", str(src), "--a", "1")
        assert code == 0
        assert out.strip() == to_graph6(Graph.empty(0))

    def test_missing_parameter_exit_2(self, capsys, tmp_path):
        src = tmp_path / "g.g6"
        src.write_text("C~\n")
        code, _, _ = run(capsys, "transform", "closure", "--in", str(src))
        assert code == 2


class TestVerify:
    def test_theorem1_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "verify", "theorem1", "--n", "5", "--out", str(out_file)
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert all(row["verdict"] == "pass" for row in doc["reports"])

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "verify", "theorem5", "--n", "6", "--k", "1",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("theorem,n,k,r,d,")
        assert len(lines) >= 2

    def test_reports_byte_identical_across_threads(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, _, _ = run(
            capsys, "verify", "theorem1", "--n", "6", "--threads", "1",
            "--out", str(f1),
        )
        code2, _, _ = run(
            capsys, "verify", "theorem1", "--n", "6", "--threads", "4",
            "--out", str(f2),
        )
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_stability_suite_runs(self, capsys, tmp_path):
        out_file = tmp_path / "t4.json"
        code, _, _ = run(
            capsys, "verify", "theorem4", "--k", "7", "--n", "21",
            "--samples", "2", "--out", str(out_file),
        )
        assert code == 0

    def test_failing_check_exits_1(self, capsys, tmp_path):
        # with d forced to 0 the mid host sits below the r=3 threshold at
        # small n, an honest failure of the exceedance check
        out_file = tmp_path / "t4-fail.json"
        code, _, _ = run(
            capsys, "verify", "theorem4", "--k", "9", "--n", "20", "--r", "3",
            "--d", "0", "--samples", "1", "--out", str(out_file),
        )
        assert code == 1
        doc = json.loads(out_file.read_text())
        assert any(row["verdict"] == "fail" for row in doc["reports"])

    def test_input_graph_mode(self, capsys, tmp_path):
        from linfor import Graph, to_graph6

        src = tmp_path / "graphs.g6"
        src.write_text(to_graph6(Graph.star(5)) + "\n" + to_graph6(Graph.complete(5)) + "\n")
        out_file = tmp_path / "check.json"
        code, _, _ = run(
            capsys, "verify", "theorem1", "--in", str(src), "--k", "3",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["reports"]) == 2

    def test_input_graph_mode_honours_budget(self, capsys, tmp_path):
        # K_4 is L_4-free, and nu = 2 <= lf = 3 <= 2 nu leaves it to the search
        src = tmp_path / "k4.g6"
        src.write_text("C~\n")
        argv = ("verify", "theorem1", "--in", str(src), "--k", "4")
        code, out, err = run(capsys, *argv, "--budget", "1")
        assert code == 2
        assert "budget of 1 states" in err
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # the report as printed before the freeness check became a decision
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "69ad3bca3a6b863830b7478fc1aa8467bf3397c7822593869b8a41e85500b636"
        )

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theorem9"])
        assert exc.value.code == 2


class TestThreads:
    def test_env_ignored_and_zero_rejected(self, capsys, monkeypatch):
        from linfor.cli import build_parser

        monkeypatch.setenv("LINFOR_THREADS", "3")
        assert build_parser().parse_args(["verify", "theorem1"]).threads == 1
        code, _, err = run(capsys, "verify", "theorem1", "--n", "3", "--threads", "0")
        assert code == 2
        assert "--threads must be at least 1" in err
