"""Capture the reference outputs in refs/ from the current commit.

    python3 perfbench/make_refs.py

Run it only at a commit whose outputs are known good: every later run of the
benchmark compares against these digests byte for byte.  It also builds the
input_check record pool (seeded, so rerunning it reproduces the same pool)
and sorts the pool into cost strata by the time each record takes here,
normalized by the host-speed probe.  Capturing everything takes about ten
minutes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import plain_api  # noqa: E402
from workloads import REFS_DIR, WORKLOADS  # noqa: E402

POOL_SEED = 20221114
POOL_SIZE = 600
STRATA = 60  # input_check runs one record per stratum
TIMINGS = 5  # stratify by the median normalized time over this many passes


def input_pool() -> list[dict]:
    from linfor import Graph, matching_number, to_graph6

    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        n = rng.randint(8, 13)
        p = rng.uniform(0.1, 0.9)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                 if rng.random() < p])
        g6 = to_graph6(g)
        if g6 in seen:
            continue
        seen.add(g6)
        nu = matching_number(g).size
        # k inside the bracket [nu, 2 nu] gives both L_k verdicts; theorem 5
        # needs n >= 2 k5 + 1, theorem 1 needs k <= n - 1
        k = rng.randint(max(1, nu), max(1, min(2 * nu, n - 1)))
        k5 = rng.randint(max(1, nu - 1), max(1, min(nu, (n - 1) // 2)))
        pool.append({"g6": g6, "n": n, "nu": nu, "k": k, "k5": k5,
                     "closure_k": n, "core_a": (k - 1) // 2, "stratum": 0})
    return pool


def capture(name: str) -> dict:
    api = plain_api()
    if name == "input_check":
        pool = input_pool()
        wl = WORKLOADS[name](0, "full", {"pool": pool})
        wl.items = pool
    else:
        wl = WORKLOADS[name](0, "full", {})
    _wall, times, _finish, outputs, tail, probes = wl.run_pass(api)
    if name == "input_check":
        # each record's time over the probes either side of it, as run.py
        # normalizes, so the strata do not follow the host's drift
        passes = [(times, probes)] + [wl.run_pass(api)[1::4] for _ in range(TIMINGS - 1)]
        times = [statistics.median(t[i] / (p[i] + p[i + 1]) for t, p in passes)
                 for i in range(len(pool))]
    bad = [wl.item_key(i) for i, o in zip(wl.items, outputs) if not wl.item_ok(i, o)]
    if bad or not wl.run_ok():
        raise SystemExit(f"{name}: invariants fail at this commit: {bad[:5]}")
    refs = wl.reference(outputs, tail)
    if name == "input_check":
        refs["reports"] = {}  # the report depends on the seeded selection
        order = sorted(range(len(pool)), key=lambda i: times[i])
        for rank, i in enumerate(order):
            pool[i]["stratum"] = rank * STRATA // len(pool)
        refs["pool"] = pool
    if name == "stability":
        # the suites' rows must not depend on the sampling seed
        other = WORKLOADS[name](1, "full", {})
        outputs1, tail1 = other.run_pass(api)[3:5]
        if other.reference(outputs1, tail1) != refs:
            raise SystemExit("stability: rows differ between seeds 0 and 1")
    return refs


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        refs = capture(name)
        path = REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(refs['items'])} items -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
