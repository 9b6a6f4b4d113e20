"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linfor.cli import main

BUDGET_ONLY = "--budget applies only to theorem4 and --in on theorems 1-3"


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

    def test_control_bytes_around_record_exit_2(self, capsys, tmp_path):
        # a vertical tab or unit separator is not whitespace around a record
        src = tmp_path / "bad.g6"
        src.write_bytes(b"C~\x0b\n\x1fC~\n")
        code, out, err = run(capsys, "count", "--in", str(src), "--r", "3")
        assert code == 2
        assert out == ""
        assert "error: line 1: graph6 byte outside printable range 63..126" in err
        src.write_bytes(b"C~ \t\r\n\x1fC~\n")
        code, out, err = run(capsys, "count", "--in", str(src), "--r", "3")
        assert code == 2
        assert out == ""
        assert "error: line 2: graph6 byte outside printable range 63..126" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("data", [
        b"A_\x0cA_\nB?\n",  # a form feed is no line break
        b"A_\nB?\nC\xc3\xa9\n",  # non-ASCII bytes on line 3
    ], ids=["form_feed", "non_ascii"])
    def test_bad_bytes_exit_2_with_physical_line(
        self, capsys, tmp_path, monkeypatch, source, data
    ):
        line = 1 if b"\x0c" in data else 3
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            path = "-"
        else:
            path = tmp_path / "bad.g6"
            path.write_bytes(data)
        code, out, err = run(capsys, "count", "--in", str(path), "--r", "2")
        assert code == 2
        assert out == ""
        assert f"error: line {line}: " in err


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
        for op, message in [
            ("closure", "closure needs --k"),
            ("core", "core needs --a (the disintegration degree)"),
        ]:
            code, out, err = run(capsys, "transform", op, "--in", str(src))
            assert code == 2
            assert out == ""
            assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [
    ("count", "--r", "3"),
    ("transform", "core", "--a", "1"),
    ("verify", "theorem1", "--k", "3"),
], ids=["count", "transform_core", "verify_theorem1"])
def test_empty_input_exit_2(capsys, tmp_path, argv):
    src = tmp_path / "empty.g6"
    src.write_text("")
    code, out, err = run(capsys, *argv, "--in", str(src))
    assert code == 2
    assert out == ""
    assert "error: no graph6 records in input" in err


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

    def test_threads_flag_is_a_usage_error(self):
        # --threads never acted and is gone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theorem1", "--n", "3", "--threads", "2"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("theorem, r", [
        ("theorem1", 2), ("theorem2", 3), ("theorem5", 2), ("theorem6", 3),
    ])
    def test_input_graph_mode_takes_the_theorems_default_r(
        self, capsys, tmp_path, theorem, r
    ):
        src = tmp_path / "k6.g6"
        src.write_text("E~~w\n")  # K_6
        code, out, _ = run(capsys, "verify", theorem, "--in", str(src), "--k", "2")
        assert code == 0
        assert [row["r"] for row in json.loads(out)["reports"]] == [r]

    def test_input_graph_mode_honours_budget(self, capsys, tmp_path):
        # this n = 13 record is L_12-free: nu = 6 leaves the bracket open,
        # the greedy forest has 11 edges and the A-set bound gives 12 = k, so
        # the search decides it
        src = tmp_path / "n13.g6"
        src.write_text("LGC@walJ??cGED\n")
        code, out, err = run(
            capsys, "verify", "theorem1", "--in", str(src), "--k", "12", "--budget", "1"
        )
        assert code == 2
        assert "budget of 1 states" in err
        src = tmp_path / "k4.g6"
        src.write_text("C~\n")
        code, out, _ = run(capsys, "verify", "theorem1", "--in", str(src), "--k", "4")
        assert code == 0
        # the report as printed before the freeness check became a decision
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "69ad3bca3a6b863830b7478fc1aa8467bf3397c7822593869b8a41e85500b636"
        )

    def test_stability_suite_honours_budget(self, capsys):
        # a perturbed H(9,8,2) is left open by every step before the search,
        # which passes 5 states
        code, out, err = run(
            capsys, "verify", "theorem4", "--k", "8", "--n", "9", "--budget", "5"
        )
        assert code == 2
        assert out == ""
        assert "budget of 5 states" in err

    def test_stability_budget_leaves_default_rows(self, capsys):
        # every lf and freeness question of the default theorem4 run is
        # decided before any search, so the least budget prints the same bytes
        code, out, _ = run(capsys, "verify", "theorem4", "--budget", "1")
        assert code == 0
        golden = Path(__file__).parent / "golden" / "theorem4.json"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (("theorem3", "--k", "5", "--d", "2"), "theorem3 needs n >= 6, got n = 5"),
        (("theorem6", "--k", "2", "--d", "1"), "theorem6 needs n >= 6, got n = 5"),
        (("theorem1", "--k", "6"), "theorem1 needs n >= 6, got n = 5"),
        (("theorem3", "--k", "6", "--d", "3"), "theorem3: min degree must lie in 0..2"),
    ], ids=["theorem3_k5_d2", "theorem6_k2_d1", "theorem1_k6", "theorem3_k6_d3"])
    def test_input_graph_outside_range_exit_2(self, capsys, tmp_path, argv, message):
        src = tmp_path / "k5.g6"
        src.write_text("D~{\n")  # K_5
        code, out, err = run(capsys, "verify", argv[0], "--in", str(src), *argv[1:])
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv, message", [
        (("theorem1", "--k", "9"), "verify theorem1 --k 9: no check in range"),
        (("theorem3", "--n", "5", "--k", "5", "--d", "1"),
         "verify theorem3 --n 5 --k 5 --d 1: no check in range"),
        (("theorem5", "--n", "2"), "verify theorem5 --n 2: no check in range"),
    ], ids=["theorem1_k9", "theorem3_k5_d1", "theorem5_n2"])
    def test_oracle_k_past_n_exit_2(self, capsys, argv, message):
        # a grid in which every k's least n lies past the range has no row
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv, ks", [
        (("theorem1", "--n", "6", "--k", "5"), [5]),
        (("theorem2", "--n", "6", "--k", "3"), [3, 3, 3]),
        (("theorem3", "--n", "5", "--d", "1"), [3, 3, 4]),
        (("theorem6", "--d", "2"), [2, 2]),
        (("theorem6", "--k", "2", "--d", "2"), [2, 2]),
        (("theorem6", "--k", "3", "--d", "2"), [2, 2]),
    ], ids=["theorem1_k5", "theorem2_k3", "theorem3_d1", "theorem6_d2",
            "theorem6_k2_d2", "theorem6_k3_d2"])
    def test_oracle_grid_starts_at_least_n(self, capsys, argv, ks):
        # each k's n range starts where its oracle is defined, and unless --k
        # fixes one k (on theorems 5 and 6 it is the largest) a --d skips the
        # k whose d range excludes it
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [row["k"] for row in reports] == ks
        assert all(row["n"] > row["k"] for row in reports)

    @pytest.mark.parametrize("argv, message", [
        (("theorem1", "--r", "3"), "theorem1 counts edges and takes no --r"),
        (("theorem5", "--r", "3"), "theorem5 counts edges and takes no --r"),
        (("theorem2", "--r", "2"), "theorem2 takes no --r 2"),
        (("theorem1", "--d", "1"), "theorem1 takes no --d"),
        (("theorem2", "--d", "1"), "theorem2 takes no --d"),
        (("theorem5", "--d", "0"), "theorem5 takes no --d"),
        (("theorem4", "--dedup"), "--dedup applies only to the exhaustive oracles"),
        (("theorem7", "--dedup"), "--dedup applies only to the exhaustive oracles"),
        (("theorem1", "--in", "-", "--k", "3", "--dedup"),
         "--dedup applies only to the exhaustive oracles"),
        (("theorem4", "--r", "1"), "theorem4: r must be at least 2, got 1"),
        (("theorem7", "--r", "1"), "theorem7: r must be at least 2, got 1"),
        # above a = floor((K-5)/2) some listed host cannot clear the threshold
        (("theorem4", "--d", "2"), "theorem4: min degree must lie in 0..1, got 2"),
        (("theorem4", "--k", "8", "--d", "2"),
         "theorem4: min degree must lie in 0..1, got 2"),
        (("theorem7", "--k", "3", "--d", "2"),
         "theorem7: min degree must lie in 0..1, got 2"),
        (("theorem4", "--d", "3"), "theorem4: min degree must lie in 0..1, got 3"),
        (("theorem4", "--d", "-1"), "theorem4: min degree must lie in 0..1, got -1"),
        # at n = K every graph is in the family; below it the hosts do not exist
        (("theorem4", "--k", "7", "--n", "7"), "theorem4 needs n >= 8, got n = 7"),
        (("theorem4", "--k", "7", "--n", "6"), "theorem4 needs n >= 8, got n = 6"),
        (("theorem7", "--k", "2", "--n", "5"), "theorem7 needs n >= 6, got n = 5"),
        (("theorem1", "--in", "-", "--k", "3", "--n", "99"),
         "--n does not apply with --in"),
        (("theorem1", "--n", "4", "--samples", "0"),
         "--samples and --seed apply only to theorems 4 and 7"),
        (("theorem1", "--n", "4", "--seed", "3"),
         "--samples and --seed apply only to theorems 4 and 7"),
        # only the L_k-freeness searches read a budget: no oracle grid's,
        # and nothing of the matching family's (the dedup oracle keeps its own)
        (("theorem1", "--n", "4", "--budget", "5"), BUDGET_ONLY),
        (("theorem3", "--n", "5", "--dedup", "--budget", "5"), BUDGET_ONLY),
        (("theorem7", "--budget", "5"), BUDGET_ONLY),
        (("theorem5", "--in", "no-such-file.g6", "--k", "2", "--budget", "5"),
         BUDGET_ONLY),
        (("theorem4", "--budget", "0"), "--budget must be positive"),
        # refused before --k is asked for or the file is opened
        (("theorem4", "--in", "no-such-file.g6", "--k", "7"),
         "input-graph mode does not support theorem4"),
        (("theorem7", "--in", "no-such-file.g6"),
         "input-graph mode does not support theorem7"),
        # --k is asked for before the file is opened
        (("theorem1", "--in", "no-such-file.g6"), "input-graph mode needs --k"),
        # refused before the first row, not after every row below it
        (("theorem1", "--n", "9"), "enumeration ceiling is n = 8"),
    ], ids=["theorem1_r", "theorem5_r", "theorem2_r2", "theorem1_d", "theorem2_d",
            "theorem5_d", "theorem4_dedup", "theorem7_dedup", "input_dedup",
            "theorem4_r1", "theorem7_r1", "theorem4_d2", "theorem4_k8_d2",
            "theorem7_k3_d2", "theorem4_d3", "theorem4_d_negative", "theorem4_n7",
            "theorem4_n6", "theorem7_n5", "input_n",
            "theorem1_samples", "theorem1_seed", "theorem1_budget",
            "theorem3_dedup_budget", "theorem7_budget", "input_theorem5_budget",
            "theorem4_budget0", "theorem4_in", "theorem7_in", "input_no_k",
            "theorem1_n9"])
    def test_flag_that_does_not_apply_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        # below 1 the subgraph row is a false FAIL or a vacuous pass
        code, out, err = run(capsys, "verify", "theorem4", "--samples", samples)
        assert code == 2
        assert out == ""
        assert f"error: samples must be at least 1, got {samples}" in err

    def test_dedup_reaches_n7(self, capsys):
        argv = ("verify", "theorem1", "--n", "7", "--k", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, dedup_out, _ = run(capsys, *argv, "--dedup")
        assert code == 0
        fast, slow = (json.loads(text)["reports"] for text in (out, dedup_out))
        assert [row["n"] for row in slow] == [6, 7]
        assert [row["oracle_value"] for row in slow] == [
            row["oracle_value"] for row in fast
        ]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theorem9"])
        assert exc.value.code == 2


class TestThreads:
    def test_env_ignored(self, capsys, monkeypatch):
        argv = ("verify", "theorem1", "--n", "4")
        code, plain, _ = run(capsys, *argv)
        monkeypatch.setenv("LINFOR_THREADS", "3")
        code_env, with_env, _ = run(capsys, *argv)
        assert code == code_env == 0
        assert with_env == plain


def _fresh_python(script: str, *args: str) -> str:
    """Run `script` in a new interpreter on this checkout's src; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NUMPY_FREE = """
import sys
import linfor, linfor.verify, linfor.cli
from linfor.cli import main
from linfor.verify import theorems

g6, out = sys.argv[1:]
for argv in (
    ["verify", "theorem4", "--k", "7", "--samples", "1"],
    ["verify", "theorem7", "--k", "2", "--samples", "1"],
    ["verify", "theorem1", "--in", g6, "--k", "4"],
    ["count", "--in", g6, "--r", "3"],
    ["transform", "core", "--in", g6, "--a", "0"],
    ["construct", "--n", "8", "--k", "5", "--a", "0"],
):
    assert main([*argv, "--out", out]) == 0, argv
assert "numpy" not in sys.modules
# perfbench's tracer patches these names on theorems
for name in ("graph_profiles", "count_cliques", "max_linear_forest",
             "matching_number", "to_graph6"):
    assert hasattr(theorems, name), name
rep = theorems.brute_ex(5, 2, 3)
assert "numpy" in sys.modules
print(rep.formula_value, rep.oracle_value, *rep.witnesses)
"""

TYPE_HINTS = """
import typing
from linfor.verify import profile, theorems

family = typing.get_type_hints(theorems.Family)
profiles = typing.get_type_hints(profile.graph_profiles)
counts = typing.get_type_hints(profile.clique_counts)
import numpy
assert family["profile_test"] == typing.Callable[[int, int], numpy.ndarray]
assert profiles["return"] is counts["masks"] is counts["return"] is numpy.ndarray
"""


class TestNumpyLoading:
    def test_only_an_oracle_row_loads_numpy(self, tmp_path):
        g6 = tmp_path / "k4.g6"
        g6.write_text("C~\n")
        out = _fresh_python(NUMPY_FREE, str(g6), str(tmp_path / "out"))
        assert out == "4 4 Ds_ DiO DXG DFC D?{\n"

    def test_array_annotations_resolve(self):
        _fresh_python(TYPE_HINTS)
