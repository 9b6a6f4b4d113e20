"""`linfor verify` report bytes pinned against golden files.

The goldens in tests/golden/ were captured with
``python -m linfor.cli verify <theorem> [options] [--format <fmt>] > <file>``:
every theorem at the CLI defaults in both formats, theorem4 at k = 8 (the
even-k ``plusplus`` host), theorem7 at k = 4, each suite at its family's
least k (theorem4 at k = 5, theorem7 at k = 2, both with a = 0), and the
further oracle, ``--dedup`` and ``--in`` runs named in ``CASES``.  ``inputs.g6`` holds twelve
records with 7 <= n <= 10 drawn from ``random.Random(5)``: lines 1, 3, ...
are G(n, p) with p in {0.15, 0.3, 0.6}, lines 2, 4, ... are hosts
H(n, K, a), K in {4, 5}, with each edge deleted with probability 0.2.
``theorem3_n6_k5_d1.json`` holds ``reports_json([brute_ex(6, 2, 5,
min_degree=1)])``, the one row of ``verify theorem3 --n 6 --k 5 --d 1``; it
is compared both through the oracle and through the CLI.  Any change to a
report byte fails here.
"""

from pathlib import Path

import pytest

from linfor.cli import main
from linfor.verify import brute_ex, reports_json

GOLDEN = Path(__file__).parent / "golden"
INPUTS = str(GOLDEN / "inputs.g6")

CASES = {
    f"theorem{i}.{fmt}": (f"theorem{i}", "--format", fmt)
    for i in range(1, 8)
    for fmt in ("json", "csv")
}
CASES["theorem4_k8.json"] = ("theorem4", "--k", "8")
CASES["theorem7_k4.json"] = ("theorem7", "--k", "4")
CASES["theorem4_k5.json"] = ("theorem4", "--k", "5")  # each family's least k
CASES["theorem7_k2.json"] = ("theorem7", "--k", "2")
CASES.update({
    "theorem2_n6_r4.json": ("theorem2", "--n", "6", "--r", "4"),
    "theorem3_n6_r3.json": ("theorem3", "--n", "6", "--r", "3"),
    "theorem3_n6_k5_d1.json": ("theorem3", "--n", "6", "--k", "5", "--d", "1"),
    "theorem5_n7_k3.json": ("theorem5", "--n", "7", "--k", "3"),
    "theorem6_n7_k2_r4.json": ("theorem6", "--n", "7", "--k", "2", "--r", "4"),
    "theorem1_n5_dedup.json": ("theorem1", "--n", "5", "--dedup"),
    "theorem3_n5_dedup.json": ("theorem3", "--n", "5", "--dedup"),
    "theorem5_n6_k2_dedup.json": ("theorem5", "--n", "6", "--k", "2", "--dedup"),
    "theorem6_n6_d1_dedup.json": ("theorem6", "--n", "6", "--d", "1", "--dedup"),
    "theorem1_in_k4.json": ("theorem1", "--in", INPUTS, "--k", "4"),
    "theorem3_in_k5_d1.json": ("theorem3", "--in", INPUTS, "--k", "5", "--d", "1"),
    "theorem5_in_k2.json": ("theorem5", "--in", INPUTS, "--k", "2"),
    "theorem6_in_k2_r3_d1.json": (
        "theorem6", "--in", INPUTS, "--k", "2", "--r", "3", "--d", "1"),
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(["verify", *CASES[name]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_oracle_report_matches_golden():
    report = reports_json([brute_ex(6, 2, 5, min_degree=1)])
    assert report.encode() == (GOLDEN / "theorem3_n6_k5_d1.json").read_bytes()
