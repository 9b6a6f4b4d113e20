"""The benchmark's own tests, on a tiny size of every workload.

    python3 perfbench/smoke_check.py

For each workload it checks that
- an untraced run is correct and prints every end-to-end metric of
  BENCHMARK.json with its unit, plus the item_tail_ms and fail_ratio lines;
- a traced run prints every per-layer metric of BENCHMARK.json with its unit;
- a run against a copy of refs/ with one item's digest corrupted reports
  that item, and only it, as failed (fail_ratio > 0, correct false).
Exits 1 with a message on the first broken expectation.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke_refs"
SEED = 5

from workloads import REFS_DIR, WORKLOADS, load_refs  # noqa: E402


def run(workload: str, trace: int, refs: Path = REFS_DIR) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--refs", str(refs)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit("FAIL " + msg)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        lines, res = run(name, 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{name}: end-to-end metrics {got} != {e2e}")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: tiny run not correct: {res}")
        for metric in ("item_tail_ms", "fail_ratio"):
            expect(any(line.startswith(metric + " = ") for line in lines),
                   f"{name}: no {metric} line")

        _lines, res = run(name, 1)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == layers, f"{name}: per-layer metrics differ from BENCHMARK.json")
        expect(res["correct"], f"{name}: traced tiny run not correct")

        shutil.rmtree(SCRATCH, ignore_errors=True)
        shutil.copytree(REFS_DIR, SCRATCH)
        refs = load_refs(name, SCRATCH)
        wl = WORKLOADS[name](SEED, "tiny", refs)
        key = wl.item_key(wl.items[0])
        refs["items"][key] = "0" * 32
        (SCRATCH / f"{name}.json").write_text(json.dumps(refs))
        lines, res = run(name, 0, SCRATCH)
        passes = res["attempted"] // len(wl.items)
        expect(not res["correct"] and res["failed"] == passes,
               f"{name}: corrupted reference of {key} gave {res['failed']} failures "
               f"over {passes} passes")
        ratio = next(line for line in lines if line.startswith("fail_ratio = "))
        expect(float(ratio.split()[2]) > 0, f"{name}: fail_ratio not above 0")
        print(f"ok {name}: {res['failed']} of {res['attempted']} items failed "
              f"against the corrupted reference")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
