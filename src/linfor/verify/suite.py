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
from ..forests import DEFAULT_BUDGET, BudgetExceeded
from ..graphcore import Graph, iter_bits, to_graph6
from .stability import _certifies, family_threshold, host_label
from .theorems import LK_FREE, MATCHING, Family, TheoremReport


def _forbidden_edges(host: Graph, p: ConstructionParams, rng: random.Random):
    """Up to three non-edges of the host: B-C, C-C, and one seeded random."""
    core = p.k - p.a
    cands: list[tuple[int, int]] = []
    if p.b_size >= 1 and p.c_size >= 1:
        cands.append((p.a, core))  # build_host never joins B to C
    for u in range(core, p.n):
        # u's non-neighbours above u; the lowest one
        later = ~host.adj[u] & (host.vertex_mask() >> (u + 1) << (u + 1))
        if later:
            cands.append((u, (later & -later).bit_length() - 1))
            break
    # the other non-edges u < v, column by column; the seeded draw takes the
    # i-th in order of v, then u, as rng.choice of their list would
    cols = [~row & (1 << v) - 1 for v, row in enumerate(host.adj)]
    for u, v in cands:
        cols[v] &= ~(1 << u)
    count = sum(map(int.bit_count, cols))
    if count:
        i = rng.randrange(count)
        for v, col in enumerate(cols):
            if i < col.bit_count():
                cands.append((list(iter_bits(col))[i], v))
                break
            i -= col.bit_count()
    return cands


def _delete_random_edges(
    host: Graph, edges: list[tuple[int, int]], rng: random.Random
) -> Graph:
    """The host minus 1-3 seeded random edges drawn from its edge list."""
    j = rng.randint(1, min(3, len(edges)))
    rows = list(host.adj)
    for u, v in rng.sample(edges, j):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(host.n, tuple(rows))


def _run_suite(
    family: Family, k: int, n: int, r_values: list[int] | None, d: int | None,
    samples: int, seed: int, budget: int,
) -> list[TheoremReport]:
    """The suite's rows.  Every graph a host yields is certified with that
    host tried first.  A BudgetExceeded is raised again naming the theorem,
    n, k and the host."""
    theorem = family.suite_theorem
    family.require_k(k, "suite")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if r_values is None:
        r_values = list(range(2, (family.forest_k(k) - 3) // 2 + 1))
    elif min(r_values, default=2) < 2:
        # N_1 = n = h_1(n, K, a) for every graph, so no graph clears r = 1
        raise ValueError(f"{theorem}: r must be at least 2, got {min(r_values)}")
    a = family.stability_a(k)
    dd = a if d is None else d
    if not 0 <= dd <= a:
        # above a some listed host has a part A of size <= d: its count is at
        # most the degree term h_r(n, K, d), or its min degree is below d
        raise ValueError(f"{theorem}: min degree must lie in 0..{a}, got {dd}")
    # n >= K + 1, as for the oracles: at n = K every graph is in the family,
    # so no forbidden edge could break it
    family.check(theorem, n, k, 2, dd)
    rng = random.Random(seed)
    rows: list[TheoremReport] = []
    hosts = family.hosts(n, k)
    thresholds = {m: family_threshold(family, n, k, 2, m) for m in (0, dd)}

    try:
        for i, p in enumerate(hosts):
            order = [p, *hosts[:i], *hosts[i + 1 :]]
            label = host_label(p)

            def certifies(g: Graph, d: int) -> int:
                return int(_certifies(g, order, thresholds[d], d))

            def add(r, d, kind, formula, oracle, note, witnesses=()):
                rows.append(TheoremReport(
                    theorem, n, k, r, d, kind, formula, oracle, witnesses,
                    note=f"{label}: {note}",
                ))

            host = build_host(p)
            add(0, dd, "bound", *family.bound(host, k, budget), family.bound_note,
                (to_graph6(host),) if n <= 62 else ())
            for r in r_values:
                add(r, dd, "exceeds", family_threshold(family, n, k, r, dd),
                    count_cliques(host, r), "clique count exceeds threshold")
            add(2, dd, "equality", 1, certifies(host, dd), "host certifies by embedding")
            edges = host.edges()
            ok = sum(
                certifies(_delete_random_edges(host, edges, rng), 0)
                for _ in range(samples)
            )
            add(2, 0, "equality", samples, ok, "random proper subgraphs certify")
            perturb_ok = 0
            cands = _forbidden_edges(host, p, rng)
            for u, v in cands:
                g3 = host.with_edge(u, v)
                kept = family.contains(g3, k, None, budget)
                perturb_ok += certifies(g3, 0) if kept else 1
            add(2, 0, "equality", len(cands), perturb_ok,
                f"forbidden edge breaks {family.breaks_note} or still certifies")
    except BudgetExceeded as exc:  # from the bound, a family test or a certification
        raise BudgetExceeded(f"{theorem} at n = {n}, k = {k}, host {label}: {exc}") from exc
    return rows


def stability_suite(
    k: int,
    n: int,
    r_values: list[int] | None = None,
    d: int | None = None,
    samples: int = 5,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[TheoremReport]:
    """Construction-side checks of the stability classification at (k, n > k)."""
    return _run_suite(LK_FREE, k, n, r_values, d, samples, seed, budget)


def matching_stability_suite(
    k: int,
    n: int,
    r_values: list[int] | None = None,
    d: int | None = None,
    samples: int = 5,
    seed: int = 0,
) -> list[TheoremReport]:
    """Construction-side checks of the matching stability result at (k, n > 2k + 1)."""
    return _run_suite(MATCHING, k, n, r_values, d, samples, seed, DEFAULT_BUDGET)
