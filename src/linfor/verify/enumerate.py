"""Exhaustive graph enumeration (the oracle substrate).

Labeled graphs are streamed in lexicographic edge-mask order, where bit p of
the mask is edge p in column order (graphcore.pair_index).  Full labeled
enumeration is capped at n = 8 (2^28 graphs).

With ``dedup`` one graph per isomorphism class is streamed instead, which is
sound because every predicate verified here is isomorphism-invariant.  The
classes come from ``forests._isomorphism_classes``, the one class generator,
grown from the single vertex with every attachment allowed, the empty one
included: a graph on n vertices is one on n - 1 vertices plus a vertex
joined to any subset of them.  Each class is relabeled by
``canon.canonical_graph`` and streamed in ascending canonical edge mask,
which is the order in which the labeled scan meets those minimum-mask graphs.

The dedup path (``enumerate_graphs(dedup=True)``, ``theorems._oracle_max_dedup``
and ``verify --dedup``) is kept on purpose: it is the second oracle, sharing
no code with the profile transforms, that ``test_dedup_agrees_with_array_path``
compares against.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator

from ..canon import canonical_graph
from ..forests import DEFAULT_BUDGET, _add_vertex, _isomorphism_classes
from ..graphcore import Graph

ENUMERATION_CEILING = 8


@cache
def _classes(n: int) -> tuple[Graph, ...]:
    """The minimum-mask graph of every isomorphism class on n vertices, in
    ascending mask.  Cached because every dedup oracle row at n reads them:
    at n = 8 they take about 10 s to build and 3 MB to keep."""
    if n < 2:
        return (Graph.empty(n),)
    # degree cap n - 1: every vertex open, any attachment, every child kept
    grown = _isomorphism_classes(n, n - 1, True, _add_vertex, DEFAULT_BUDGET)
    return tuple(sorted((canonical_graph(g) for g in grown if g.n == n),
                        key=Graph.edge_mask))


def enumerate_graphs(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    dedup: bool = False,
) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices passing the predicate,
    or with ``dedup`` the minimum-mask graph of every isomorphism class."""
    if not 0 <= n <= ENUMERATION_CEILING:
        raise ValueError(f"full enumeration supports 0 <= n <= {ENUMERATION_CEILING}")
    if dedup:
        graphs = _classes(n)
    else:
        graphs = (Graph.from_edge_mask(n, m) for m in range(1 << (n * (n - 1) // 2)))
    for g in graphs:
        if predicate is None or predicate(g):
            yield g
