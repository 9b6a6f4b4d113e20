"""Per-graph invariants over all labeled graphs on n vertices.

Index every labeled graph on n vertices by its edge mask m (bit p = edge p
in column order, see graphcore.pair_index).  The forest tables are numpy
arrays over all 2^C(n,2) masks, each a transform over the lattice of edge
sets:

* lf(m), the largest linear forest inside m, is the subset-max transform of
  the size indicator of the linear forests of K_n (acyclic, max degree 2);
* nu(m), the matching number, is the same transform over the matchings of
  K_n (max degree 1).

A transform is Yates' algorithm, the fast zeta transform of Björklund,
Husfeldt, Kaski and Koivisto ("Fourier meets Möbius: fast subset
convolution", STOC 2007): C(n,2) in-place passes, pass p folding every mask
without bit p into the same mask with it.  Both forest families come from a
small edge-addition search that shares no code with linfor.forests, so the
theorem oracles built on these arrays stay independent of the forest search.

The minimum degree and N_r, the number of r-cliques, are counted only on the
masks an oracle row asks about: a degree is the popcount of m & star(w), and
an r-clique with edge set c lies in m when m & c == c.  Everything is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..graphcore import pair_index

PROFILE_CEILING = 8


def _zeta(a: np.ndarray, op) -> np.ndarray:
    """In place, a[m] <- op over a[s] for every s subset of m (Yates)."""
    for p in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << p)  # v[:, 0] / v[:, 1]: masks without / with bit p
        op(v[:, 1], v[:, 0], out=v[:, 1])
    return a


def _max_forest(n: int, cap: int) -> np.ndarray:
    """Size of the largest acyclic edge set of max degree <= cap in each mask."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    best = np.zeros(1 << len(pairs), np.uint8)
    deg = [0] * n

    def grow(start: int, mask: int, size: int, comp: tuple[int, ...]) -> None:
        best[mask] = size
        for p in range(start, len(pairs)):
            u, v = pairs[p]
            if deg[u] < cap and deg[v] < cap and comp[u] != comp[v]:
                cu, cv = comp[u], comp[v]
                deg[u] += 1
                deg[v] += 1
                grow(p + 1, mask | 1 << p, size + 1,
                     tuple(cu if c == cv else c for c in comp))
                deg[u] -= 1
                deg[v] -= 1

    grow(0, 0, 0, tuple(range(n)))
    return _zeta(best, np.maximum)


def min_degrees(n: int, masks: np.ndarray) -> np.ndarray:
    """uint8 minimum degree of each uint32 edge mask (0 when n = 0)."""
    out = np.full(masks.shape, max(n - 1, 0), np.uint8)
    for w in range(n):
        star = sum(1 << pair_index(u, w) for u in range(n) if u != w)
        np.minimum(out, np.bitwise_count(masks & np.uint32(star)), out=out)
    return out


def clique_counts(n: int, masks: np.ndarray, r: int) -> np.ndarray:
    """uint8 N_r of each uint32 edge mask: its popcount at r = 2, otherwise
    one containment test per r-clique of K_n."""
    if r == 2:
        return np.bitwise_count(masks)
    out = np.zeros(masks.shape, np.uint8)
    for vs in combinations(range(n), r):
        c = np.uint32(sum(1 << pair_index(u, v) for u, v in combinations(vs, 2)))
        out += (masks & c) == c
    return out


@dataclass
class GraphProfiles:
    """The forest tables of all labeled graphs on n vertices; index = edge mask."""

    n: int
    lf: np.ndarray  # uint8: maximum linear-forest size
    nu: np.ndarray  # uint8: matching number

    @property
    def count(self) -> int:
        return len(self.lf)


_cache: dict[int, GraphProfiles] = {}


def graph_profiles(n: int) -> GraphProfiles:
    """Forest tables for all labeled graphs on n vertices (cached)."""
    if not 0 <= n <= PROFILE_CEILING:
        raise ValueError(f"profiles support 0 <= n <= {PROFILE_CEILING}")
    prof = _cache.get(n)
    if prof is None:
        prof = _cache[n] = GraphProfiles(n, _max_forest(n, 2), _max_forest(n, 1))
    return prof
