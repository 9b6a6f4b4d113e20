"""Minimum-adjacency-matrix canonical labeling for small graphs.

The canonical representative minimizes the upper-triangle bit sequence read
in column order (the graph6 body bit order), so isomorphic graphs share one
canonical edge mask and the representative's graph6 string is the smallest
in its class.  Backtracking places one vertex per position; interchangeable
candidates (twins) are tried once and worse-than-best prefixes are cut.
Worst case is exponential, which is fine at the desk scales used here.
"""

from __future__ import annotations

from .graphcore import Graph, _twin_classes_rows


def _twin_ids(rows: tuple[int, ...]) -> dict[int, int]:
    """Vertex -> twin class id, shared exactly by twins."""
    classes = _twin_classes_rows(len(rows), rows)
    return {v: i for i, cls in enumerate(classes) for v in cls}


def _search(
    rows: tuple[int, ...],
    inv: list[int],
    shift: int,
    degs: list[int],
    twin: dict[int, int],
    placed: list[int],
    placed_mask: int,
    seq: list[int],
    best: list[int],
) -> None:
    """Place one vertex per level, keeping in best the smallest complete
    sequence of per-level entries.

    A vertex's block is its adjacency bits toward the placed vertices, the
    earliest most significant; its entry packs (block, invariant) as
    ``block << shift | inv[v]``, which orders like the pair since every
    invariant is below ``1 << shift``.  Only candidates with the smallest
    entry are explored, in (entry, degree, vertex) order, and of each twin
    class (``twin[v]`` is v's class id) only its lowest unplaced vertex.
    """
    level = len(placed)
    if level == len(rows):
        if not best or seq < best:
            best[:] = seq
        return
    cands: list[tuple[int, int, int]] = []
    seen = 0  # twin classes with a candidate: twins explore identical subtrees
    for v, row in enumerate(rows):
        if placed_mask >> v & 1 or seen >> twin[v] & 1:
            continue
        seen |= 1 << twin[v]
        block = 0
        for u in placed:
            block = block << 1 | (row >> u & 1)
        cands.append((block << shift | inv[v], degs[v], v))
    cands.sort()
    lo = cands[0][0]
    for entry, _, v in cands:
        if entry != lo:
            break
        if best and entry > best[level] and seq == best[:level]:
            continue
        seq.append(entry)
        placed.append(v)
        _search(rows, inv, shift, degs, twin, placed, placed_mask | 1 << v, seq, best)
        placed.pop()
        seq.pop()


def canonical_blocks(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical column blocks: blocks[j] = adjacency bits of canonical vertex
    j+1 toward canonical vertices 0..j, earliest position most significant.

    Minimal over all labelings, compared level by level (fixed widths make
    that the same as comparing the packed bit string).  This is the search
    with a constant invariant.
    """
    if n <= 1:
        return ()
    best: list[int] = []
    degs = [row.bit_count() for row in rows]
    _search(rows, [0] * n, 0, degs, _twin_ids(rows), [], 0, [], best)
    return tuple(best[1:])  # level 0 contributes an empty block


def refined_canonical_key(n: int, rows: tuple[int, ...]) -> tuple:
    """Fast exact canonical key: minimize the per-level (block, invariant)
    sequence instead of blocks alone.

    The invariant ranks vertices by (degree, sorted neighbor degrees), which
    separates structurally distinct vertices at the top of the search and
    cuts the backtracking by orders of magnitude on sparse symmetric graphs.
    The winning block sequence still determines the graph exactly, so equal
    keys mean isomorphic graphs; the representative is just not the
    minimum-mask one.
    """
    degs = [row.bit_count() for row in rows]
    raw = []
    for v in range(n):
        nbr = sorted(degs[u] for u in range(n) if rows[v] >> u & 1)
        raw.append((degs[v], tuple(nbr)))
    order = {val: i for i, val in enumerate(sorted(set(raw)))}
    shift = len(order).bit_length()
    best: list[int] = []
    _search(rows, [order[x] for x in raw], shift, degs, _twin_ids(rows), [], 0, [], best)
    return tuple((e >> shift, e & ((1 << shift) - 1)) for e in best)


def canonical_graph(g: Graph) -> Graph:
    """Return the canonically labeled copy of g."""
    # block j, read from its top bit, is column j + 1 of the edge mask, so
    # the blocks written out in turn are the mask's bits in ascending order
    blocks = canonical_blocks(g.n, g.adj)
    bits = "".join(f"{block:0{j}b}" for j, block in enumerate(blocks, start=1))
    return Graph.from_edge_mask(g.n, int("0" + bits[::-1], 2))


def canonical_edge_mask(g: Graph) -> int:
    return canonical_graph(g).edge_mask()


def is_canonical(g: Graph) -> bool:
    return g.edge_mask() == canonical_edge_mask(g)
