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

from ..cliques import count_cliques
from ..constructions import ConstructionParams, build_host
from ..forests import DEFAULT_BUDGET, is_lk_free, matching_number, max_linear_forest
from ..graphcore import Graph, to_graph6
from .stability import (
    EMBED_BUDGET,
    classify_matching_stability,
    classify_stability,
    listed_hosts,
    matching_hosts,
    matching_stability_threshold,
    stability_threshold,
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
    if k < 5:
        raise ValueError("stability suite needs k >= 5")
    if r_values is None:
        r_values = list(range(2, (k - 3) // 2 + 1))
    dd = (k - 5) // 2 if d is None else d
    rng = random.Random(seed)
    rows: list[TheoremReport] = []
    for p in listed_hosts(n, k):
        label = host_label(p)
        host = build_host(p)
        lf = max_linear_forest(host, budget=budget).size
        rows.append(
            TheoremReport(
                "theorem4", n, k, 0, dd, "bound", k - 1, lf,
                (to_graph6(host),) if n <= 62 else (),
                note=f"{label}: exact max linear forest <= k-1",
            )
        )
        for r in r_values:
            nr = count_cliques(host, r)
            thr = stability_threshold(n, k, r, dd)
            rows.append(
                TheoremReport(
                    "theorem4", n, k, r, dd, "exceeds", thr, nr,
                    note=f"{label}: clique count exceeds threshold",
                )
            )
        rep = classify_stability(host, k, 2, dd, budget=embed_budget)
        rows.append(
            TheoremReport(
                "theorem4", n, k, 2, dd, "equality", 1,
                int(rep.above_threshold and rep.embedded),
                note=f"{label}: host certifies by embedding",
            )
        )
        ok = 0
        for _ in range(samples):
            g2 = _delete_random_edges(host, rng)
            rep2 = classify_stability(g2, k, 2, 0, budget=embed_budget)
            ok += int(rep2.above_threshold and rep2.embedded)
        rows.append(
            TheoremReport(
                "theorem4", n, k, 2, 0, "equality", samples, ok,
                note=f"{label}: random proper subgraphs certify",
            )
        )
        perturb_ok = 0
        cands = _forbidden_edges(host, p, rng)
        for u, v in cands:
            g3 = host.with_edge(u, v)
            if not is_lk_free(g3, k, budget=budget):
                perturb_ok += 1
                continue
            rep3 = classify_stability(g3, k, 2, 0, budget=embed_budget)
            perturb_ok += int(rep3.above_threshold and rep3.embedded)
        rows.append(
            TheoremReport(
                "theorem4", n, k, 2, 0, "equality", len(cands), perturb_ok,
                note=f"{label}: forbidden edge breaks freeness or still certifies",
            )
        )
    return rows


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
    if k < 2:
        raise ValueError("matching stability suite needs k >= 2")
    if r_values is None:
        r_values = list(range(2, k))
    dd = k - 2 if d is None else d
    rng = random.Random(seed)
    rows: list[TheoremReport] = []
    for p in matching_hosts(n, k):
        label = host_label(p)
        host = build_host(p)
        nu = matching_number(host).size
        rows.append(
            TheoremReport(
                "theorem7", n, k, 0, dd, "bound", k, nu,
                (to_graph6(host),) if n <= 62 else (),
                note=f"{label}: matching number <= k",
            )
        )
        for r in r_values:
            nr = count_cliques(host, r)
            thr = matching_stability_threshold(n, k, r, dd)
            rows.append(
                TheoremReport(
                    "theorem7", n, k, r, dd, "exceeds", thr, nr,
                    note=f"{label}: clique count exceeds threshold",
                )
            )
        rep = classify_matching_stability(host, k, 2, dd, budget=embed_budget)
        rows.append(
            TheoremReport(
                "theorem7", n, k, 2, dd, "equality", 1,
                int(rep.above_threshold and rep.embedded),
                note=f"{label}: host certifies by embedding",
            )
        )
        ok = 0
        for _ in range(samples):
            g2 = _delete_random_edges(host, rng)
            rep2 = classify_matching_stability(g2, k, 2, 0, budget=embed_budget)
            ok += int(rep2.above_threshold and rep2.embedded)
        rows.append(
            TheoremReport(
                "theorem7", n, k, 2, 0, "equality", samples, ok,
                note=f"{label}: random proper subgraphs certify",
            )
        )
        perturb_ok = 0
        cands = _forbidden_edges(host, p, rng)
        for u, v in cands:
            g3 = host.with_edge(u, v)
            if matching_number(g3).size > k:
                perturb_ok += 1
                continue
            rep3 = classify_matching_stability(g3, k, 2, 0, budget=embed_budget)
            perturb_ok += int(rep3.above_threshold and rep3.embedded)
        rows.append(
            TheoremReport(
                "theorem7", n, k, 2, 0, "equality", len(cands), perturb_ok,
                note=f"{label}: forbidden edge breaks matching bound or still certifies",
            )
        )
    return rows
