"""Closure, core decomposition, and degree-threshold structure maps.

All operations are pure and deterministic: qualifying pairs and removable
vertices are always taken lowest-index first, so witnesses and removal orders
are reproducible.  Order-independence of closure and core is asserted by
tests, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import binomial
from .graphcore import Graph, induced_subgraph, iter_bits


@dataclass(frozen=True)
class PosaWitness:
    """At least s vertices of degree at most q (the (s, q)-property)."""

    s: int
    q: int
    vertices: int  # bitmask


@dataclass(frozen=True)
class SplitResult:
    """Degree-threshold split: T = high-degree side, T' = complement."""

    t_set: int
    t_prime: int
    complete_between: bool


def k_closure(g: Graph, k: int) -> Graph:
    """Join nonadjacent pairs with degree sum >= k until none remain.

    The result is the unique smallest supergraph with no qualifying
    nonadjacent pair.  A pass examines the pairs u < v in order of v, then u,
    joining each qualifying pair at once; passes repeat until one joins none.
    """
    rows = list(g.adj)
    deg = [row.bit_count() for row in rows]
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            for u in range(v):
                if rows[u] >> v & 1:
                    continue
                if deg[u] + deg[v] >= k:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    deg[u] += 1
                    deg[v] += 1
                    changed = True
    return Graph(g.n, tuple(rows))


def core(g: Graph, alpha: int) -> tuple[Graph, list[int]]:
    """Iteratively delete vertices of degree <= alpha; the (alpha+1)-core.

    Returns the core (relabeled to 0..m-1 preserving vertex order) together
    with the deletion order in original labels.  The core itself is
    order-invariant; the recorded order is the lowest-index-first one.
    """
    alive = g.vertex_mask()
    removed: list[int] = []
    while True:
        victim = -1
        for v in iter_bits(alive):
            if (g.adj[v] & alive).bit_count() <= alpha:
                victim = v
                break
        if victim < 0:
            break
        alive ^= 1 << victim
        removed.append(victim)
    return induced_subgraph(g, alive), removed


def find_posa(g: Graph, q: int) -> PosaWitness:
    """The maximal Pósa witness: every vertex of degree at most q."""
    verts = 0
    for v in range(g.n):
        if g.degree(v) <= q:
            verts |= 1 << v
    return PosaWitness(verts.bit_count(), q, verts)


def posa_clique_bound(n: int, s: int, q: int, r: int) -> int:
    """Clique-count bound C(n-s, r) + s·C(q, r-1) for (s, q)-Pósa graphs.

    Valid only under the side condition n >= s + q.
    """
    if min(n, s, q, r) < 0:
        raise ValueError("arguments must be nonnegative")
    if n < s + q:
        raise ValueError(f"side condition n >= s + q violated: {n} < {s} + {q}")
    return binomial(n - s, r) + s * binomial(q, r - 1)


def degree_split(g: Graph, threshold: int) -> SplitResult:
    """Split vertices by degree >= threshold and test T-T' completeness."""
    t_set = 0
    for v in range(g.n):
        if g.degree(v) >= threshold:
            t_set |= 1 << v
    t_prime = g.vertex_mask() ^ t_set
    complete = True
    for v in iter_bits(t_set):
        if g.adj[v] & t_prime != t_prime:
            complete = False
            break
    return SplitResult(t_set, t_prime, complete)
