"""linfor benchmark: time to a correct verdict on four verification workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

One process, one client in a closed loop: the workload's items run one after
another.  An untimed memory pass comes first, then whole timed passes repeat
until ``--seconds`` is used up (at least two; ``--trace 1`` runs
untraced/traced pairs instead, at least one).  Every timed call sits between
two runs of a host-speed probe (``calibrate.py``), and end-to-end times are
reported in the probe's reference seconds.
Every output is checked against ``refs/`` and against invariants that share
no code with linfor.  Metric lines go to stdout; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record of the run, spans included, is written to
``.perfbench_out/`` under the repository root.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

from calibrate import PROBE_REF_S, START_REF_CMD, START_REF_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TAIL_MIN_ITEMS = 50  # item_tail_ms is reported only for passes this long
TAIL_ABOVE = 10  # samples the tail percentile must leave above it

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    from tracing import LAYER_METRICS

    units = {}
    for calls_name, self_name in LAYER_METRICS.values():
        if calls_name:
            units[calls_name] = "count"
        units[self_name] = "s"
    units.update({
        "profile.hit_ratio": "ratio",
        "profile.array_bytes": "B",
        "stability.embed_found_ratio": "ratio",
        "forests.budget_exceeded": "count",
        "reports.bytes": "B",
        "process.cpu_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["exhaustive", "stability", "input_check", "degree_extremal"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few items per workload, for the smoke check")
    ap.add_argument("--refs", type=Path, default=HERE / "refs",
                    help="reference directory (the smoke check passes a corrupted copy)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit: one set-up probe of the parent run")
    return ap.parse_args(argv)


def setup(args):
    """Everything setup_s covers: imports, seeded inputs, references."""
    sys.path.insert(0, str(ROOT / "src"))
    import linfor.verify  # noqa: F401  (numpy comes with it)
    from workloads import WORKLOADS, load_refs

    refs = load_refs(args.workload, args.refs)
    return WORKLOADS[args.workload](args.seed, args.size, refs)


def spawn_until_ready(cmd: list[str]) -> float:
    """Seconds from spawning `cmd` until it prints the monotonic clock.

    That clock is shared by all processes, so the child's exit is left out.
    """
    t0 = time.monotonic()
    proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - t0


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until its workload is ready:
    (raw seconds, reference seconds) of each of SETUP_PROBES set-ups.

    A reference interpreter start runs before the first set-up and after
    each one; a set-up is divided by the mean of the two either side of it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size, "--refs", str(args.refs)]
    ref_cmd = [sys.executable, *START_REF_CMD]
    raw, ref = [], []
    before = spawn_until_ready(ref_cmd)
    for _ in range(SETUP_PROBES):
        raw.append(spawn_until_ready(cmd))
        after = spawn_until_ready(ref_cmd)
        ref.append(raw[-1] / (before + after) * 2 * START_REF_S)
        before = after
    return raw, ref


def environment(args, linfor_threads_env) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "threads": 1,
        "LINFOR_THREADS": "cleared (was %r)" % linfor_threads_env,
    }


class Tally:
    """Attempted and failed items over every pass of the run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed_keys: list[str] = []
        self.first = True

    def add(self, outputs, tail) -> None:
        wl = self.workload
        self.attempted += len(wl.items)
        if tail is None:
            bad = [wl.item_key(i) for i in wl.items]
        else:
            bad = wl.failures(outputs, tail)
        if self.first and not wl.run_ok():
            bad = [wl.item_key(i) for i in wl.items]
        self.first = False
        self.failed_keys += bad


def no_probe() -> None:
    return None


def guarded_pass(workload, api, between=probe):
    """One pass; an item or report that raises is recorded as a failure."""
    try:
        return workload.run_pass(api, between)
    except Exception:  # noqa: BLE001 - the benchmark counts it and keeps going
        traceback.print_exc(file=sys.stderr)
        return None


def memory_pass(workload, api, tally) -> float:
    """One untimed pass that collects garbage after every call; the
    process's peak RSS in MB after it.

    linfor's calls leave reference cycles behind, and when the cyclic
    collector frees them depends on the whole allocation history, so the
    peak of an uncollected pass swings with the seed (see README.md).  The
    collected pass reads the memory the calls need.  It is also the run's
    warm-up, and its time counts toward `seconds`.
    """
    res = guarded_pass(workload, api, gc.collect)
    tally.add(*(res[3:5] if res else (None, None)))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, api, seconds, tally):
    """The memory pass, then timed passes until `seconds` is used up, at
    least two: (walls, item times, finish times, probe times, peak RSS)."""
    walls, times, finishes, probes = [], [], [], []
    start = perf_counter()
    rss = memory_pass(workload, api, tally)
    longest = perf_counter() - start  # the longest pass, probes included
    while True:
        t0 = perf_counter()
        res = guarded_pass(workload, api)
        longest = max(longest, perf_counter() - t0)
        if res is None:
            tally.add(None, None)
            walls.append(perf_counter() - t0)
        else:
            wall, item_times, finish, outputs, tail, pass_probes = res
            tally.add(outputs, tail)
            walls.append(wall)
            times.append(item_times)
            finishes.append(finish)
            probes.append(pass_probes)
        elapsed = perf_counter() - start
        if len(walls) >= 2 and elapsed + longest > seconds:
            return walls, times, finishes, probes, rss


def normalized(times, finishes, probes):
    """Per call, its time over the mean of the probes either side of it, in
    reference seconds; each call's median over the passes.  Returns (item
    times, finish time)."""
    per_item = []
    for i in range(len(times[0])):
        per_item.append(statistics.median(
            t[i] / (p[i] + p[i + 1]) * 2 * PROBE_REF_S for t, p in zip(times, probes)))
    finish = statistics.median(
        f / (p[-2] + p[-1]) * 2 * PROBE_REF_S for f, p in zip(finishes, probes))
    return per_item, finish


def run_traced(workload, api, seconds, tally):
    from tracing import Recorder

    rec = Recorder()
    untraced, traced, cpu, layers = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        c0 = process_time()
        res = guarded_pass(workload, api, no_probe)
        cpu.append(process_time() - c0)
        untraced.append(res[0] if res else perf_counter() - t0)
        tally.add(*(res[3:5] if res else (None, None)))
        rec.start_pass()
        t1 = perf_counter()
        with rec.patched() as traced_api:
            res = guarded_pass(workload, traced_api, no_probe)
        traced.append(res[0] if res else perf_counter() - t1)
        tally.add(*(res[3:5] if res else (None, None)))
        layers.append(rec.pass_metrics())
        if rec.pass_id == 0:
            first_spans = rec.dump()  # the record keeps one pass's spans
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - t0) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    fastest = untraced.index(min(untraced))
    metrics["process.cpu_s"] = cpu[fastest]
    metrics["trace.untraced_wall_s"] = untraced[fastest]
    metrics["trace.overhead_s"] = min(traced) - untraced[fastest]
    return metrics, {"untraced_walls": untraced, "traced_walls": traced,
                     "missing_patches": rec.missing, "spans": first_spans}


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, order statistic i weighted by the Beta((n+1)/2, (n+1)/2)
    mass on [(i-1)/n, i/n].  Where the items' costs rise steeply through
    the middle, two items swapping ranks moves the plain median by the gap
    between them; this estimate moves by a fraction of it."""
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    # the Beta density by the midpoint rule, gathered into n bins
    steps = 4000
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[min(n - 1, int(x * n))] += math.exp(
            (a - 1) * math.log(x * (1 - x)) - log_norm) / steps
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def item_tail(times: list[float]):
    """(value, percentile) of the highest percentile with TAIL_ABOVE samples above."""
    if len(times) < TAIL_MIN_ITEMS:
        return None
    xs = sorted(times)
    n = len(xs)
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    linfor_threads_env = os.environ.pop("LINFOR_THREADS", None)
    workload = setup(args)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    from tracing import plain_api

    raw_setup, setup_times = probe_setup(args)
    env = environment(args, linfor_threads_env)
    api = plain_api()
    tally = Tally(workload)
    n_items = len(workload.items)
    record = {"env": env, "setup_times": setup_times, "raw_setup_times": raw_setup}

    if args.trace:
        metrics, extra = run_traced(workload, api, args.seconds, tally)
        record.update(extra)
        units = layer_units()
        lines = [f"{name} = {metrics[name]!r} {units[name]}" for name in units]
    else:
        walls, times, finishes, probes, rss = run_untraced(
            workload, api, args.seconds, tally)
        per_item, finish = normalized(times, finishes, probes) if times else ([0.0], 0.0)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(per_item) + finish,
            "item_p50_ms": 1000 * hd_median(per_item),
            "peak_rss_mb": rss,
        }
        units = E2E_UNITS
        record.update({"walls": walls, "item_times": times, "finish_times": finishes,
                       "probe_times": probes})
        tail = item_tail(per_item)
        all_probes = [p for pass_probes in probes for p in pass_probes]
        lines = [
            f"setup_s = {metrics['setup_s']!r} s (median of {SETUP_PROBES} set-ups, "
            f"in reference starts of {START_REF_S:g} s; raw "
            f"{statistics.median(raw_setup):.4f} s)",
            f"wall_s = {metrics['wall_s']!r} s (reference seconds: each call's median "
            f"over {len(walls)} passes; raw fastest pass {min(walls):.4f} s, "
            f"median pass {statistics.median(walls):.4f} s)",
            f"item_p50_ms = {metrics['item_p50_ms']!r} ms "
            f"(reference: Harrell-Davis median over {len(per_item)} items of each "
            f"one's median; plain median {1000 * statistics.median(per_item):.4f} ms)",
            (f"item_tail_ms = {1000 * tail[0]!r} ms (reference, p{tail[1]:.1f}, "
             f"{TAIL_ABOVE} of {len(per_item)} samples above)" if tail else
             f"item_tail_ms = not reported ({n_items} items per pass < {TAIL_MIN_ITEMS})"),
            f"peak_rss_mb = {metrics['peak_rss_mb']!r} MB (after the collected pass; "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MB "
            f"after all passes)",
            f"host speed: probe median {1000 * statistics.median(all_probes):.4f} ms, "
            f"fastest {1000 * min(all_probes):.4f} ms, reference "
            f"{1000 * PROBE_REF_S:g} ms",
        ]
    failed = len(tally.failed_keys)
    lines.append(f"fail_ratio = {failed / tally.attempted!r} ratio "
                 f"({failed} of {tally.attempted} items failed)")
    record.update({"metrics": metrics, "attempted": tally.attempted,
                   "failed_items": tally.failed_keys})

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(f"linfor benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {n_items} items per pass")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    if failed:
        print("failed items: " + ", ".join(tally.failed_keys[:10]))
    print(f"record written to {out_file.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
