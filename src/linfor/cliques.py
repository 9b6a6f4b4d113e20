"""Exact r-clique counting on dense bitset graphs.

Counting uses degeneracy-ordered vertex expansion: every clique is generated
once, with its vertices in degeneracy-rank order, by intersecting candidate
bitmasks.  Counts are vertex-set counts (each clique counted once).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import Graph, iter_bits


@dataclass(frozen=True)
class CliqueVector:
    """counts[r-1] = number of r-cliques, for r = 1..n."""

    counts: tuple[int, ...]

    def count(self, r: int) -> int:
        if r < 1:
            raise ValueError("r must be at least 1")
        if r > len(self.counts):
            return 0
        return self.counts[r - 1]


def degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex (lowest index on ties)."""
    alive = g.vertex_mask()
    order = []
    for _ in range(g.n):
        best = -1
        best_deg = g.n + 1
        for v in iter_bits(alive):
            d = (g.adj[v] & alive).bit_count()
            if d < best_deg:
                best, best_deg = v, d
        order.append(best)
        alive ^= 1 << best
    return order


def _successor_masks(g: Graph) -> list[int]:
    order = degeneracy_order(g)
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    succ = [0] * g.n
    for v in range(g.n):
        for u in iter_bits(g.adj[v]):
            if rank[u] > rank[v]:
                succ[v] |= 1 << u
    return succ


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-vertex complete subgraphs of g (0 when r > n)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > g.n:
        return 0
    if r == 1:
        return g.n
    succ = _successor_masks(g)
    return sum(_expand(succ[v], r - 1, succ) for v in range(g.n))


def _expand(cand: int, need: int, succ: list[int]) -> int:
    """need-cliques inside cand whose vertices ascend in degeneracy rank."""
    if need == 1:
        return cand.bit_count()
    if cand.bit_count() < need:
        return 0
    total = 0
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        total += _expand(cand & succ[v], need - 1, succ)
    return total


def clique_vector(g: Graph) -> CliqueVector:
    """All clique counts N_1..N_n; counts are zero beyond the clique number."""
    counts = []
    for r in range(1, g.n + 1):
        c = count_cliques(g, r)
        counts.append(c)
        if c == 0:
            counts.extend([0] * (g.n - r))
            break
    return CliqueVector(tuple(counts))
