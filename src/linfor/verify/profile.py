"""Forest tables and per-mask counts over all labeled graphs on n vertices.

Index every labeled graph on n vertices by its edge mask m (bit p = edge p
in column order, see graphcore.pair_index).  A forest table is a uint8
numpy array over all 2^C(n,2) masks: entry m is the size of the largest
acyclic edge set of max degree <= cap inside m.  At cap 2 that is lf(m), the
largest linear forest; at cap 1 it is nu(m), the matching number.  An oracle
row reads one table: lf for the L_k-free theorems, nu for the matching ones.

A table is the subset-max transform of the size indicator of the forests of
K_n, by Yates' algorithm, the fast zeta transform of Björklund, Husfeldt,
Kaski and Koivisto ("Fourier meets Möbius: fast subset convolution", STOC
2007): C(n,2) in-place passes, pass p folding every mask without bit p into
the same mask with it.  The forests come from a small edge-addition search
that shares no code with linfor.forests, so the theorem oracles built on
these tables stay independent of the forest search.

The minimum degree and N_r, the number of r-cliques, are counted only on the
masks an oracle row asks about: a degree is the popcount of m & star(w), and
an r-clique with edge set c lies in m when m & c == c.  Everything is exact
integer arithmetic.

numpy is imported by the functions that build or read a table, so a process
that runs no oracle row never loads it.
"""

from __future__ import annotations

from itertools import combinations

from ..graphcore import pair_index
from .enumerate import ENUMERATION_CEILING


class _Numpy:
    """numpy as the array annotations name it: typing.get_type_hints resolves
    np.ndarray through this stand-in, which imports numpy only then.  The
    functions below import numpy themselves, so their loops read its
    attributes directly."""

    def __getattr__(self, name: str):
        import numpy

        return getattr(numpy, name)


np = _Numpy()


def _zeta(a: np.ndarray, op) -> np.ndarray:
    """In place, a[m] <- op over a[s] for every s subset of m (Yates)."""
    for p in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << p)  # v[:, 0] / v[:, 1]: masks without / with bit p
        op(v[:, 1], v[:, 0], out=v[:, 1])
    return a


def _max_forest(n: int, cap: int) -> np.ndarray:
    """Size of the largest acyclic edge set of max degree <= cap in each mask."""
    import numpy as np

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
    import numpy as np

    out = np.full(masks.shape, max(n - 1, 0), np.uint8)
    for w in range(n):
        star = sum(1 << pair_index(u, w) for u in range(n) if u != w)
        np.minimum(out, np.bitwise_count(masks & np.uint32(star)), out=out)
    return out


def clique_counts(n: int, masks: np.ndarray, r: int) -> np.ndarray:
    """uint8 N_r of each uint32 edge mask: its popcount at r = 2, otherwise
    one containment test per r-clique of K_n."""
    import numpy as np

    if r == 2:
        return np.bitwise_count(masks)
    out = np.zeros(masks.shape, np.uint8)
    tmp, hit = np.empty_like(masks), np.empty(masks.shape, bool)
    for vs in combinations(range(n), r):
        c = np.uint32(sum(1 << pair_index(u, v) for u, v in combinations(vs, 2)))
        np.bitwise_and(masks, c, out=tmp)
        np.equal(tmp, c, out=hit)
        out += hit
    return out


_cache: dict[tuple[int, int], np.ndarray] = {}


def graph_profiles(n: int, cap: int) -> np.ndarray:
    """The forest table of all labeled graphs on n vertices (cached): lf at
    cap 2, nu at cap 1."""
    if not 0 <= n <= ENUMERATION_CEILING:
        raise ValueError(f"profiles support 0 <= n <= {ENUMERATION_CEILING}")
    table = _cache.get((n, cap))
    if table is None:
        table = _cache[n, cap] = _max_forest(n, cap)
    return table
