"""The four benchmark workloads.

Each workload builds its items from the seed, runs one pass of them through
the functions ``linfor verify``, ``count`` and ``transform`` call, and checks
every output against references captured by ``make_refs.py`` (``refs/``) and
against invariants from ``checks.py``.  A pass returns the per-item times;
checking happens afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import checks
from calibrate import probe

REFS_DIR = Path(__file__).resolve().parent / "refs"

STABILITY_SAMPLES = 25


def load_refs(name: str, refs_dir: Path = REFS_DIR) -> dict:
    return json.loads((refs_dir / f"{name}.json").read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Workload:
    """Items, one timed pass, and the checks of its outputs."""

    name = ""

    def __init__(self, seed: int, size: str, refs: dict):
        self.seed = seed
        self.size = size
        self.refs = refs
        self.items = self.make_items()

    def make_items(self) -> list:
        raise NotImplementedError

    def call(self, api: dict, item):
        raise NotImplementedError

    def finish(self, api: dict, outputs: list) -> dict:
        """Timed calls after the last item (report serialization); default none."""
        return {}

    def before_pass(self) -> None:
        """Untimed reset before each pass."""

    def run_pass(self, api: dict, between=probe
                 ) -> tuple[float, list[float], float, list, dict, list]:
        """(pass wall time, per-item times, finish time, outputs, finish
        outputs, results of `between`).

        `between` runs untimed before every item, before the finish and after
        it, so call i sits between runs i and i + 1.  By default it is the
        host-speed probe, and its results are the probe times.  The pass
        wall time is the calls' own: `between` is left out.
        """
        self.before_pass()
        times = []
        outputs = []
        probes = []
        for item in self.items:
            probes.append(between())
            t0 = perf_counter()
            outputs.append(self.call(api, item))
            times.append(perf_counter() - t0)
        probes.append(between())
        t0 = perf_counter()
        tail = self.finish(api, outputs)
        finish = perf_counter() - t0
        probes.append(between())
        return sum(times) + finish, times, finish, outputs, tail, probes

    def item_key(self, item) -> str:
        raise NotImplementedError

    def item_digest(self, out) -> str:
        raise NotImplementedError

    def item_ok(self, item, out) -> bool:
        """Invariant checks that share no code with linfor."""
        return True

    def run_ok(self) -> bool:
        """Untimed checks made once per run."""
        return True

    def tail_ok(self, outputs: list, tail: dict) -> bool:
        """Whole-report checks; a failure fails every item of the pass."""
        reports = self.refs.get("reports", {})
        return all(digest(text) == reports.get(key) for key, text in tail.items())

    def failures(self, outputs: list, tail: dict) -> list[str]:
        """Keys of failed items: a reference mismatch or a broken invariant."""
        refs = self.refs["items"]
        tail_ok = self.tail_ok(outputs, tail)
        bad = []
        for item, out in zip(self.items, outputs):
            key = self.item_key(item)
            if not (tail_ok and refs.get(key) == self.item_digest(out)
                    and self.item_ok(item, out)):
                bad.append(key)
        return bad

    def reference(self, outputs: list, tail: dict) -> dict:
        return {
            "items": {self.item_key(i): self.item_digest(o)
                      for i, o in zip(self.items, outputs)},
            "reports": {key: digest(text) for key, text in tail.items()},
        }


def _row_text(rep) -> str:
    from linfor.verify.reports import reports_json

    return reports_json([rep])


def _extremal_row_ok(rep) -> bool:
    return (rep.verdict == "pass" and rep.formula_value
            == checks.expected_formula(rep.theorem, rep.n, rep.k, rep.r, rep.d))


class Exhaustive(Workload):
    """Theorems 1, 2, 3, 5 and 6 by exhaustive oracles, from a cold profile cache."""

    name = "exhaustive"

    def make_items(self):
        # n = 7 is left out: its 9-13 s profile build is one call, so a run
        # fits two or three passes of it, and the probes either side of a
        # call that long cannot follow the host's drift through it
        n_max = 6 if self.size == "full" else 5
        items = []
        for theorem, r in (("theorem1", 2), ("theorem2", 3)):
            for n in range(max(3, r), n_max + 1):
                items += [(theorem, "ex", n, r, k, None) for k in range(1, n)]
        for n in range(3, n_max + 1):
            for k in range(2, n):
                items += [("theorem3", "ex", n, 2, k, d) for d in range((k - 1) // 2 + 1)]
        for k in (1, 2):
            items += [("theorem5", "match", n, 2, k, None)
                      for n in range(2 * k + 1, n_max + 1)]
        for k in (1, 2):
            for n in range(2 * k + 2, n_max + 1):
                items += [("theorem6", "match", n, 3, k, d) for d in range(k + 1)]
        return items

    def before_pass(self):
        # every `linfor verify` process pays the profile build; a kernel
        # without this cache leaves nothing to clear
        from linfor.verify import profile

        cache = getattr(profile, "_cache", None)
        if cache is not None:
            cache.clear()

    def call(self, api, item):
        _theorem, kind, n, r, k, d = item
        fn = api["brute_ex"] if kind == "ex" else api["brute_ex_matching"]
        return fn(n, r, k, min_degree=d, threads=1)

    def finish(self, api, outputs):
        groups: dict[str, list] = {}
        for item, rep in zip(self.items, outputs):
            groups.setdefault(item[0], []).append(rep)
        return {theorem: api["reports_json"](reps) for theorem, reps in groups.items()}

    def tail_ok(self, outputs, tail):
        if self.size != "full":
            return True  # group reports are captured for the full item set only
        return super().tail_ok(outputs, tail)

    def item_key(self, item):
        theorem, _kind, n, r, k, d = item
        return f"{theorem}:n={n}:r={r}:k={k}:d={d}"

    def item_digest(self, rep):
        return digest(_row_text(rep))

    def item_ok(self, item, rep):
        if not _extremal_row_ok(rep):
            return False
        for g6 in rep.witnesses:
            n, rows = checks.decode_graph6(g6)
            if n != rep.n or checks.clique_count(n, rows, rep.r) != rep.oracle_value:
                return False
            if rep.d is not None and min(checks.degrees(rows)) < rep.d:
                return False
        return True


class Stability(Workload):
    """Construction-side stability suites (theorems 4 and 7) over a host grid."""

    name = "stability"

    def make_items(self):
        ns = range(20, 41, 2) if self.size == "full" else (20,)
        ks = (("forest", 7), ("forest", 8), ("forest", 9),
              ("matching", 3), ("matching", 4))
        if self.size != "full":
            ks = (("forest", 7), ("matching", 3))
        return [(kind, k, n) for kind, k in ks for n in ns]

    def call(self, api, item):
        kind, k, n = item
        fn = api["stability_suite"] if kind == "forest" else api["matching_stability_suite"]
        rows = fn(k, n, samples=STABILITY_SAMPLES, seed=self.seed)
        return rows, api["reports_json"](rows)

    def item_key(self, item):
        kind, k, n = item
        return f"{kind}:k={k}:n={n}:samples={STABILITY_SAMPLES}"

    def item_digest(self, out):
        return digest(out[1])

    def item_ok(self, item, out):
        rows = out[0]
        for rep in rows:
            if rep.verdict != "pass":
                return False
            if rep.kind == "exceeds" and rep.formula_value != checks.expected_threshold(
                    rep.theorem, rep.n, rep.k, rep.r, rep.d):
                return False
        return True

    def run_ok(self) -> bool:
        """Matching witnesses on the plain hosts of theorem 7 are matchings of
        size k, the matching number of those hosts."""
        from linfor.forests import matching_number
        from linfor.graphcore import Graph

        for kind, k, n in self.items:
            if kind != "matching":
                continue
            for a in (k, k - 1):
                rows = checks.host_rows(n, 2 * k + 1, a)
                res = matching_number(Graph(n, rows))
                if (len(res.witness) != res.size or res.size != k
                        or not checks.is_matching(rows, res.witness)):
                    return False
        return True


class InputCheck(Workload):
    """Per-record checks of users' own graphs: seeded G(n, p) records."""

    name = "input_check"

    def make_items(self):
        # one record from each cost stratum (every sixth stratum when tiny)
        strata: dict[int, list] = {}
        for rec in self.refs["pool"]:
            strata.setdefault(rec["stratum"], []).append(rec)
        rng = random.Random(self.seed)
        step = 1 if self.size == "full" else 6
        items = [rng.choice(strata[s]) for s in sorted(strata)[::step]]
        rng.shuffle(items)
        return items

    def call(self, api, rec):
        g = api["parse_graph6"](rec["g6"])
        row1 = api["check_input_graph"](g, "theorem1", rec["k"], 2)
        row5 = api["check_input_graph"](g, "theorem5", rec["k5"], 2)
        count = api["count_cliques"](g, 3)
        closure = api["to_graph6"](api["k_closure"](g, rec["closure_k"]))
        core = api["to_graph6"](api["core"](g, rec["core_a"])[0])
        return row1, row5, count, closure, core

    def finish(self, api, outputs):
        return {
            "theorem1": api["reports_json"]([out[0] for out in outputs]),
            "theorem5": api["reports_json"]([out[1] for out in outputs]),
        }

    def tail_ok(self, outputs, tail):
        # the selected records vary with the seed, so each report must equal
        # the rows it holds, reassembled here without linfor's serializer
        for idx, key in enumerate(("theorem1", "theorem5")):
            rows = [json.loads(_row_text(out[idx]))["reports"][0] for out in outputs]
            schema = json.loads(tail[key])["schema"]
            doc = {"schema": schema, "reports": rows}
            if tail[key] != json.dumps(doc, indent=2, sort_keys=True) + "\n":
                return False
        return True

    def item_key(self, rec):
        return rec["g6"]

    def item_digest(self, out):
        row1, row5, count, closure, core = out
        return digest("".join([_row_text(row1), _row_text(row5),
                               f"{count}\n", closure + "\n", core + "\n"]))

    def item_ok(self, rec, out):
        row1, row5, count, _closure, _core = out
        if not (_extremal_row_ok(row1) and _extremal_row_ok(row5)):
            return False
        # nu <= lf <= 2 nu decides the L_k verdict at both ends of the bracket
        k, nu = rec["k"], rec["nu"]
        met = row1.note == "input graph"
        if (k <= nu and met) or (2 * nu <= k - 1 and not met):
            return False
        n, rows = checks.decode_graph6(rec["g6"])
        return count == checks.clique_count(n, rows, 3)


class DegreeExtremal(Workload):
    """g_extremal(k, delta): many small bounded-degree forest queries plus canon."""

    name = "degree_extremal"

    def make_items(self):
        # (5, 4) is left out for the same reason as exhaustive's n = 7: one
        # call of 8-17 s
        k_max = 5 if self.size == "full" else 3
        return [(k, delta) for k in range(1, k_max + 1) for delta in (2, 3, 4)
                if (k, delta) != (5, 4)]

    def call(self, api, item):
        return api["g_extremal"](*item)

    def item_key(self, item):
        return f"k={item[0]}:delta={item[1]}"

    def item_digest(self, out):
        from linfor.graphcore import to_graph6

        total, witness = out
        return digest(f"{total} {to_graph6(witness)}")

    def item_ok(self, item, out):
        total, witness = out
        degs = checks.degrees(witness.adj)
        return sum(degs) == 2 * total and max(degs, default=0) <= item[1]


WORKLOADS = {w.name: w for w in (Exhaustive, Stability, InputCheck, DegreeExtremal)}
