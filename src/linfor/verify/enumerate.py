"""Exhaustive labeled graph enumeration (the oracle substrate).

Graphs are streamed in lexicographic edge-mask order, where bit p of the mask
is edge p in column order (graphcore.pair_index).  Full labeled enumeration
is capped at n = 8 (2^28 graphs).  Optional isomorphism dedup keeps only
canonical representatives (minimum adjacency matrix), which is sound because
every predicate verified here is isomorphism-invariant.

The dedup path (``enumerate_graphs(dedup=True)``, ``theorems._oracle_max_dedup``
and ``verify --dedup``) is slower than the profile transforms and is kept on
purpose: it is the second oracle, sharing no code with them, that
``test_dedup_agrees_with_array_path`` compares against.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..canon import is_canonical
from ..graphcore import Graph

ENUMERATION_CEILING = 8


def enumerate_graphs(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    dedup: bool = False,
) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices passing the predicate."""
    if not 0 <= n <= ENUMERATION_CEILING:
        raise ValueError(f"full enumeration supports 0 <= n <= {ENUMERATION_CEILING}")
    for mask in range(1 << (n * (n - 1) // 2)):
        g = Graph.from_edge_mask(n, mask)
        if dedup and not is_canonical(g):
            continue
        if predicate is None or predicate(g):
            yield g
