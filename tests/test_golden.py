"""`linfor verify` report bytes pinned against golden files.

The goldens in tests/golden/ were captured with
``python -m linfor.cli verify <theorem> [--k K] --format <fmt> > <file>``
at the CLI defaults, plus theorem4 at k = 8 (the even-k ``plusplus`` host)
and theorem7 at k = 4.  Any change to a report byte fails here.
"""

from pathlib import Path

import pytest

from linfor.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    f"theorem{i}.{fmt}": (f"theorem{i}", "--format", fmt)
    for i in range(1, 8)
    for fmt in ("json", "csv")
}
CASES["theorem4_k8.json"] = ("theorem4", "--k", "8")
CASES["theorem7_k4.json"] = ("theorem7", "--k", "4")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(["verify", *CASES[name]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
