"""Construction-side stability suites.

The asymptotic regime of the stability results (n beyond k^5) is out of
desk-scale reach, so the executable substitute checks the construction side:
every listed host must be exactly L_k-free, clear its threshold, and certify
by embedding; random proper subgraphs of hosts must still certify; and a host
perturbed by one forbidden edge must either lose L_k-freeness (or its
matching bound) or still certify.  All randomness is seeded and reported
rows are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..cliques import count_cliques
from ..constructions import ConstructionParams, build_host
from ..forests import DEFAULT_BUDGET, is_lk_free, matching_number, max_linear_forest
from ..graphcore import Graph, to_graph6
from .stability import (
    EMBED_BUDGET,
    LK_FREE,
    MATCHING,
    StabilityFamily,
    StabilityReport,
    classify_matching_stability,
    classify_stability,
    family_threshold,
)
from .theorems import TheoremReport


def host_label(p: ConstructionParams) -> str:
    marks = {"plain": "", "plus": "+", "plusplus": "++"}
    return f"H{marks[p.variant]}({p.n},{p.k},{p.a})"


def _forbidden_edges(host: Graph, p: ConstructionParams, rng: random.Random):
    """Up to three non-edges of the host: B-C, C-C, and one seeded random."""
    core = p.k - p.a
    cands: list[tuple[int, int]] = []
    if p.b_size >= 1 and p.c_size >= 1:
        b0 = p.a
        for c in range(core, p.n):
            if not host.has_edge(b0, c):
                cands.append((b0, c))
                break
    for u in range(core, p.n):
        done = False
        for v in range(u + 1, p.n):
            if not host.has_edge(u, v):
                cands.append((u, v))
                done = True
                break
        if done:
            break
    non_edges = [
        (u, v)
        for v in range(p.n)
        for u in range(v)
        if not host.has_edge(u, v) and (u, v) not in cands
    ]
    if non_edges:
        cands.append(rng.choice(non_edges))
    return cands


def _delete_random_edges(host: Graph, rng: random.Random) -> Graph:
    edges = host.edges()
    j = rng.randint(1, min(3, len(edges)))
    g = host
    for u, v in rng.sample(edges, j):
        g = g.without_edge(u, v)
    return g


@dataclass(frozen=True)
class SuiteSpec:
    """The suite side of a stability family.  The callables look linfor's
    functions up by module name when called, so patched names see the calls."""

    family: StabilityFamily
    theorem: str
    classify: Callable[..., StabilityReport]  # (g, k, r, d, budget)
    bound: Callable[[Graph, int, int], tuple[int, int]]  # (host, k, budget)
    bound_note: str
    breaks: Callable[[Graph, int, int], bool]  # (g, k, budget): hypothesis fails
    breaks_note: str


THEOREM4 = SuiteSpec(
    LK_FREE, "theorem4",
    lambda g, k, r, d, budget: classify_stability(g, k, r, d, budget),
    lambda host, k, budget: (k - 1, max_linear_forest(host, budget=budget).size),
    "exact max linear forest <= k-1",
    lambda g, k, budget: not is_lk_free(g, k, budget=budget),
    "freeness",
)
THEOREM7 = SuiteSpec(
    MATCHING, "theorem7",
    lambda g, k, r, d, budget: classify_matching_stability(g, k, r, d, budget),
    lambda host, k, budget: (k, matching_number(host).size),
    "matching number <= k",
    lambda g, k, budget: matching_number(g).size > k,
    "matching bound",
)


def _run_suite(
    spec: SuiteSpec,
    k: int,
    n: int,
    r_values: list[int] | None,
    d: int | None,
    samples: int,
    seed: int,
    budget: int,
    embed_budget: int,
) -> list[TheoremReport]:
    family, theorem = spec.family, spec.theorem
    family.require_k(k, "suite")
    if r_values is None:
        r_values = list(range(2, (family.host_k(k) - 3) // 2 + 1))
    dd = family.base_a(k) if d is None else d
    rng = random.Random(seed)
    rows: list[TheoremReport] = []

    def certifies(g: Graph, d: int) -> int:
        rep = spec.classify(g, k, 2, d, embed_budget)
        return int(rep.above_threshold and rep.embedded)

    for p in family.hosts(n, k):
        label = host_label(p)
        host = build_host(p)
        rows.append(
            TheoremReport(
                theorem, n, k, 0, dd, "bound", *spec.bound(host, k, budget),
                (to_graph6(host),) if n <= 62 else (),
                note=f"{label}: {spec.bound_note}",
            )
        )
        for r in r_values:
            nr = count_cliques(host, r)
            thr = family_threshold(family, n, k, r, dd)
            rows.append(
                TheoremReport(
                    theorem, n, k, r, dd, "exceeds", thr, nr,
                    note=f"{label}: clique count exceeds threshold",
                )
            )
        rows.append(
            TheoremReport(
                theorem, n, k, 2, dd, "equality", 1, certifies(host, dd),
                note=f"{label}: host certifies by embedding",
            )
        )
        ok = sum(certifies(_delete_random_edges(host, rng), 0) for _ in range(samples))
        rows.append(
            TheoremReport(
                theorem, n, k, 2, 0, "equality", samples, ok,
                note=f"{label}: random proper subgraphs certify",
            )
        )
        perturb_ok = 0
        cands = _forbidden_edges(host, p, rng)
        for u, v in cands:
            g3 = host.with_edge(u, v)
            perturb_ok += 1 if spec.breaks(g3, k, budget) else certifies(g3, 0)
        rows.append(
            TheoremReport(
                theorem, n, k, 2, 0, "equality", len(cands), perturb_ok,
                note=(
                    f"{label}: forbidden edge breaks {spec.breaks_note}"
                    " or still certifies"
                ),
            )
        )
    return rows


def stability_suite(
    k: int,
    n: int,
    r_values: list[int] | None = None,
    d: int | None = None,
    samples: int = 5,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    embed_budget: int = EMBED_BUDGET,
) -> list[TheoremReport]:
    """Construction-side checks of the stability classification at (k, n)."""
    return _run_suite(THEOREM4, k, n, r_values, d, samples, seed, budget, embed_budget)


def matching_stability_suite(
    k: int,
    n: int,
    r_values: list[int] | None = None,
    d: int | None = None,
    samples: int = 5,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    embed_budget: int = EMBED_BUDGET,
) -> list[TheoremReport]:
    """Construction-side checks of the matching stability result at (k, n)."""
    return _run_suite(THEOREM7, k, n, r_values, d, samples, seed, budget, embed_budget)
