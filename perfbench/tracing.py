"""Span recorder for the traced run.

Spans are recorded from the benchmark's own code: each public function the
workloads reach is wrapped where it is called, by patching the name in the
calling module's namespace, and the patches are undone after the traced
pass.  Per-bit helpers such as ``iter_bits`` are never wrapped; the cost of a
span would swamp theirs.

A span is ``[layer, start, end, parent, pass_id, info]``.  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import weakref
from contextlib import contextmanager
from time import perf_counter

# Names the benchmark itself calls, as linfor's CLI does: (module, name, layer).
API = {
    "brute_ex": ("linfor.verify.theorems", "brute_ex", "theorems"),
    "brute_ex_matching": ("linfor.verify.theorems", "brute_ex_matching", "theorems"),
    "check_input_graph": ("linfor.verify.theorems", "check_input_graph", "theorems"),
    "stability_suite": ("linfor.verify.suite", "stability_suite", "suite"),
    "matching_stability_suite": (
        "linfor.verify.suite", "matching_stability_suite", "suite"),
    "g_extremal": ("linfor.forests", "g_extremal", "forests.g_extremal"),
    "count_cliques": ("linfor.cliques", "count_cliques", "cliques"),
    "k_closure": ("linfor.transforms", "k_closure", "transforms"),
    "core": ("linfor.transforms", "core", "transforms"),
    "parse_graph6": ("linfor.graphcore", "parse_graph6", "graphcore.parse"),
    "to_graph6": ("linfor.graphcore", "to_graph6", "graphcore.g6_out"),
    "reports_json": ("linfor.verify.reports", "reports_json", "reports"),
}

# Names linfor's modules call on each other: (calling module, name, layer).
# A name missing from its module (renamed or removed later) is skipped and
# listed in the run's output, so its layer then reads zero.
PATCHES = [
    ("linfor.verify.theorems", "graph_profiles", "profile"),
    ("linfor.verify.theorems", "to_graph6", "graphcore.g6_out"),
    ("linfor.verify.theorems", "count_cliques", "cliques"),
    ("linfor.verify.theorems", "max_linear_forest", "forests.lf"),
    ("linfor.verify.theorems", "matching_number", "forests.matching"),
    ("linfor.verify.suite", "build_host", "constructions.build"),
    ("linfor.verify.suite", "max_linear_forest", "forests.lf"),
    ("linfor.verify.suite", "matching_number", "forests.matching"),
    ("linfor.verify.suite", "count_cliques", "cliques"),
    ("linfor.verify.suite", "to_graph6", "graphcore.g6_out"),
    ("linfor.verify.suite", "classify_stability", "stability.classify"),
    ("linfor.verify.suite", "classify_matching_stability", "stability.classify"),
    ("linfor.verify.stability", "embeds_in_host", "stability.embed"),
    ("linfor.verify.stability", "count_cliques", "cliques"),
    ("linfor.verify.stability", "matching_number", "forests.matching"),
    ("linfor.verify.stability", "twin_classes", "forests.twin"),
    ("linfor.forests", "max_linear_forest", "forests.lf"),
    ("linfor.forests", "twin_classes", "forests.twin"),
    ("linfor.forests", "_twin_classes_rows", "forests.twin"),
    # g_extremal imports this at call time, so the module attribute is the call site
    ("linfor.canon", "refined_canonical_key", "canon.key"),
]

# layer -> (calls metric, self-time metric); calls count outermost spans only
LAYER_METRICS = {
    "profile": ("profile.calls", "profile.build_s"),
    "theorems": ("theorems.calls", "theorems.self_s"),
    "suite": ("suite.calls", "suite.self_s"),
    "stability.classify": ("stability.classify_calls", "stability.classify_self_s"),
    "stability.embed": ("stability.embed_calls", "stability.embed_s"),
    "forests.lf": ("forests.lf_calls", "forests.lf_s"),
    "forests.twin": ("forests.twin_calls", "forests.twin_s"),
    "forests.matching": ("forests.matching_calls", "forests.matching_s"),
    "forests.g_extremal": (None, "forests.g_extremal_self_s"),
    "cliques": ("cliques.calls", "cliques.s"),
    "canon.key": ("canon.key_calls", "canon.key_s"),
    "constructions.build": ("constructions.build_calls", "constructions.build_s"),
    "transforms": ("transforms.calls", "transforms.s"),
    "graphcore.parse": ("graphcore.parse_calls", "graphcore.parse_s"),
    "graphcore.g6_out": (None, "graphcore.g6_out_s"),
    "graphcore.graph_new": ("graphcore.graph_new_calls", "graphcore.graph_new_s"),
    "reports": (None, "reports.s"),
}


def plain_api() -> dict:
    """The untraced functions the workloads call, by name."""
    return {
        key: getattr(importlib.import_module(mod), name)
        for key, (mod, name, _layer) in API.items()
    }


class Recorder:
    """Collects spans across traced passes of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.pass_id = -1
        self.missing: list[str] = []
        self._profiles = weakref.WeakValueDictionary()  # id -> profile seen this pass

    def start_pass(self) -> None:
        """Drop the previous pass's spans; span indices restart at 0."""
        self.pass_id += 1
        self.spans.clear()
        self._profiles = weakref.WeakValueDictionary()

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack
        info = _INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1], self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = "raised " + type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(self, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Patch every PATCHES name and Graph validation; undo on exit."""
        from linfor.graphcore import Graph

        undo = []
        for mod_name, name, layer in PATCHES:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, name):
                if f"{mod_name}.{name}" not in self.missing:
                    self.missing.append(f"{mod_name}.{name}")
                continue
            orig = getattr(mod, name)
            undo.append((mod, name, orig))
            setattr(mod, name, self.wrap(layer, orig))
        orig_post = Graph.__post_init__
        undo.append((Graph, "__post_init__", orig_post))
        Graph.__post_init__ = self.wrap("graphcore.graph_new", orig_post)
        try:
            yield {key: self.wrap(API[key][2], fn) for key, fn in plain_api().items()}
        finally:
            for owner, name, orig in reversed(undo):
                setattr(owner, name, orig)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios of the current pass."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, t0, t1, parent, _pid, _info in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for calls_name, self_name in LAYER_METRICS.values():
            if calls_name:
                out[calls_name] = 0
            out[self_name] = 0.0
        hits = builds = array_bytes = found = budget = report_bytes = 0
        raised_below = {parent for _l, _t0, _t1, parent, _pid, info in spans
                        if info == "raised BudgetExceeded" and parent >= 0}
        for i, (layer, t0, t1, parent, _pid, info) in enumerate(spans):
            calls_name, self_name = LAYER_METRICS[layer]
            out[self_name] += t1 - t0 - child[i]
            outermost = parent < 0 or spans[parent][0] != layer
            if calls_name and outermost:
                out[calls_name] += 1
            if layer == "profile" and outermost and isinstance(info, tuple):
                if info[0] == "hit":
                    hits += 1
                else:
                    builds += 1
                    array_bytes += info[1]
            elif layer == "stability.embed" and info == "found":
                found += 1
            elif layer == "reports" and isinstance(info, int):
                report_bytes += info
            if (layer.startswith("forests.") and info == "raised BudgetExceeded"
                    and i not in raised_below):
                budget += 1
        out["profile.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
        out["profile.array_bytes"] = array_bytes
        embeds = out["stability.embed_calls"]
        out["stability.embed_found_ratio"] = found / embeds if embeds else 0.0
        out["forests.budget_exceeded"] = budget
        out["reports.bytes"] = report_bytes
        return out

    def dump(self) -> list[list]:
        """A copy of the current pass's spans, for the run record."""
        return [list(span) for span in self.spans]


def _profile_info(rec: Recorder, prof):
    """('hit', 0) when this pass already saw the returned object, else the
    bytes of its numpy arrays, computed from their shapes."""
    # by identity: the profile dataclass compares by value and is unhashable
    if rec._profiles.get(id(prof)) is prof:
        return ("hit", 0)
    try:
        rec._profiles[id(prof)] = prof
    except TypeError:  # not weak-referenceable: count it as a build
        pass
    nbytes = sum(getattr(v, "nbytes", 0) for v in getattr(prof, "__dict__", {}).values())
    return ("build", int(nbytes))


_INFO = {
    "profile": _profile_info,
    "stability.embed": lambda rec, cert: "found" if cert is not None else "none",
    "reports": lambda rec, text: len(text.encode()),
}
