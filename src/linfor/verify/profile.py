"""Per-graph profiles over all labeled graphs on n vertices, by subset transforms.

Index every labeled graph on n vertices by its edge mask m (bit p = edge p
in column order, see graphcore.pair_index).  Each profile is a numpy array
over all 2^C(n,2) masks, and each is a transform over the lattice of edge
sets:

* lf(m), the largest linear forest inside m, is the subset-max transform of
  the size indicator of the linear forests of K_n (acyclic, max degree 2);
* nu(m), the matching number, is the same transform over the matchings of
  K_n (max degree 1);
* N_r(m), the number of r-cliques, is the subset-sum transform of the
  indicator of the edge sets of the r-cliques of K_n;
* mindeg(m) is the minimum over vertices of the per-vertex degree counts.

A transform is Yates' algorithm, the fast zeta transform of Björklund,
Husfeldt, Kaski and Koivisto ("Fourier meets Möbius: fast subset
convolution", STOC 2007): C(n,2) in-place passes, pass p folding every mask
without bit p into the same mask with it.  Both forest families come from a
small edge-addition search that shares no code with linfor.forests, so the
theorem oracles built on these arrays stay independent of the forest search.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _min_degree(n: int) -> np.ndarray:
    """Minimum degree per mask.  The degree of w in m is popcount(m & star(w));
    over m = (high bits, low bits) it is an outer sum of two popcount tables."""
    nbits = n * (n - 1) // 2
    half = nbits // 2
    lo = np.arange(1 << half, dtype=np.uint32)
    hi = np.arange(1 << (nbits - half), dtype=np.uint32)
    mindeg = np.full((len(hi), len(lo)), max(n - 1, 0), np.uint8)
    deg = np.empty_like(mindeg)
    for w in range(n):
        star = sum(1 << pair_index(*sorted((u, w))) for u in range(n) if u != w)
        np.add(np.bitwise_count(hi & (star >> half)).astype(np.uint8)[:, None],
               np.bitwise_count(lo & star).astype(np.uint8), out=deg)
        np.minimum(mindeg, deg, out=mindeg)
    return mindeg.ravel()


@dataclass
class GraphProfiles:
    """Per-edge-mask graph invariants; index = edge mask."""

    n: int
    lf: np.ndarray  # uint8: maximum linear-forest size
    nu: np.ndarray  # uint8: matching number
    mindeg: np.ndarray  # uint8
    _cliques: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.lf)

    def cliques(self, r: int) -> np.ndarray:
        """uint8 N_r per edge mask, computed on first use and kept."""
        col = self._cliques.get(r)
        if col is None:
            a = np.zeros(self.count, np.uint8)
            for vs in combinations(range(self.n), r):
                a[sum(1 << pair_index(u, v) for u, v in combinations(vs, 2))] += 1
            col = self._cliques[r] = _zeta(a, np.add)
        return col


_cache: dict[int, GraphProfiles] = {}


def graph_profiles(n: int) -> GraphProfiles:
    """Profile arrays for all labeled graphs on n vertices (cached)."""
    if not 0 <= n <= PROFILE_CEILING:
        raise ValueError(f"profiles support 0 <= n <= {PROFILE_CEILING}")
    prof = _cache.get(n)
    if prof is None:
        prof = _cache[n] = GraphProfiles(
            n, _max_forest(n, 2), _max_forest(n, 1), _min_degree(n)
        )
    return prof
