"""Exact r-clique counting on dense bitset graphs.

Counting uses index-order vertex expansion: every clique is generated once,
with its vertices in ascending index order, by intersecting each vertex's
higher-index neighbour mask with the candidates.  Vertex order changes only
how wide the search branches, never the count, so no ordering pass is made.
Counts are vertex-set counts (each clique counted once).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import Graph


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


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-vertex complete subgraphs of g (0 when r > n)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > g.n:
        return 0
    if r == 1:
        return g.n
    succ = [row >> (v + 1) << (v + 1) for v, row in enumerate(g.adj)]
    return sum(_expand(s, r - 1, succ) for s in succ)


def _expand(cand: int, need: int, succ: list[int]) -> int:
    """need-cliques inside cand whose vertices ascend in index order."""
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
