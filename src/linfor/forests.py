"""Exact linear-forest and matching computations.

A linear forest is a subgraph whose components are paths; its size is its
edge count.  A graph is L_k-free iff its maximum linear forest has at most
k-1 edges.  ``max_linear_forest`` computes that maximum with a witness;
``is_lk_free`` only decides it.  The decision first brackets lf by the
blossom matching number, nu <= lf <= 2 nu, and runs the forest search only
when the bracket leaves k open; that search stops at the first k-edge forest.

The forest search builds paths edge by edge and memoizes on twin-collapsed
states: vertices with identical neighborhoods (adjacent or not) are
interchangeable, so a state is the per-class count of consumed vertices plus
the class of the open path end.  On the symmetric host graphs this collapses
n ~ 40 instances to a few thousand states; on arbitrary graphs it degrades to
the usual exponential search, guarded by a node budget.

Determinism: twin classes are indexed by their smallest vertex; from an open
path the search tries extensions by ascending class index and then closing;
with no open path it tries starting edges by ascending class-index pairs and
then stopping.  Each memo entry keeps the first move achieving its value, and
the witness follows those moves, always consuming the lowest-index unused
vertex of a class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphcore import Graph, disjoint_union, iter_bits

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Search exceeded its node budget; distinct from any computed answer."""


@dataclass(frozen=True)
class ForestResult:
    """Maximum linear-forest size with a realizing edge list."""

    size: int
    witness: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MatchingResult:
    """Matching number with a maximum matching."""

    size: int
    witness: tuple[tuple[int, int], ...]


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_linear_forest(n: int, edges: list[tuple[int, int]]) -> bool:
    """True iff the edge list forms a disjoint union of paths on 0..n-1."""
    deg = [0] * n
    parent = list(range(n))
    seen = set()
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return False
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
        if deg[u] > 2 or deg[v] > 2:
            return False
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# -- twin classes ----------------------------------------------------------


def _twin_classes_rows(n: int, rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    parent = list(range(n))
    by_false: dict[int, int] = {}
    by_true: dict[int, int] = {}
    for v in range(n):
        kf = rows[v]
        kt = rows[v] | (1 << v)
        if kf in by_false:
            parent[_find(parent, v)] = _find(parent, by_false[kf])
        else:
            by_false[kf] = v
        if kt in by_true:
            parent[_find(parent, v)] = _find(parent, by_true[kt])
        else:
            by_true[kt] = v
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda c: c[0])


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Partition vertices into interchangeability classes.

    Two vertices are merged when their adjacency rows agree exactly (false
    twins) or agree after including themselves (adjacent true twins).  Either
    way the transposition is an automorphism, so class members are fully
    interchangeable in any subgraph search.
    """
    return _twin_classes_rows(g.n, g.adj)


class _ForestSearch:
    """Memoised path-by-path search over the twin-collapsed states of one graph.

    A state is ``(counts, tail)``: the per-class number of consumed vertices
    and the class of the open path end, or -1 when no path is open.  ``memo``
    maps each fully explored state to ``(value, next_state, start_class)``:
    its best completion and the first move reaching it, where
    ``start_class`` is the class of a new path's first vertex (-1 for an
    extension or a close).  A state left early is never stored, so every
    entry is exact.  With an edge target ``k`` the search stops at the first
    forest of k edges; without one it computes the maximum.
    """

    def __init__(self, g: Graph, budget: int, k: int | None = None) -> None:
        classes = twin_classes(g)

        def adjacent(c: int, e: int) -> bool:
            # within a class: complete for true twins, empty for false twins
            u = classes[c][0]
            if e == c:
                return len(classes[c]) >= 2 and bool(g.adj[u] >> classes[c][1] & 1)
            return bool(g.adj[u] >> classes[e][0] & 1)

        m = len(classes)
        self.nbr_classes = [[e for e in range(m) if adjacent(c, e)] for c in range(m)]
        self.classes = classes
        self.sizes = [len(c) for c in classes]
        self.root = ((0,) * m, -1)
        self.budget = budget
        self.k = k
        self.n = g.n
        self.memo: dict[tuple[tuple[int, ...], int], tuple] = {}

    def run(self) -> int:
        """lf(g) when k is None; otherwise a value that is >= k iff lf(g) >= k."""
        # g.n + 1 edges exceed every forest of g, even at n = 0, so the exact
        # search never stops early and stores every state it reaches
        return self.best(self.root, self.n + 1 if self.k is None else self.k)

    def best(self, state: tuple[tuple[int, ...], int], need: int) -> int:
        """Edges of the best forest completing ``state``.

        Exact when below ``need``.  As soon as ``need`` more edges are in
        reach the search returns a value >= need without finishing.
        """
        memo = self.memo
        hit = memo.get(state)
        if hit is not None:
            return hit[0]
        if need <= 0:
            return 0
        if len(memo) >= self.budget:
            what = "the maximum" if self.k is None else f"k = {self.k}"
            raise BudgetExceeded(
                f"linear-forest search for {what} exceeded its budget of "
                f"{self.budget} states after exploring {len(memo)} states of "
                f"a {self.n}-vertex graph with {len(self.sizes)} twin classes"
            )
        counts, tail = state
        sizes = self.sizes
        val, move, start = 0, None, -1
        # from an open path: extend by ascending class, then close; with no
        # open path: start by ascending class pair, then stop
        if tail >= 0:
            for e in self.nbr_classes[tail]:
                if counts[e] < sizes[e]:
                    nxt = list(counts)
                    nxt[e] += 1
                    child = (tuple(nxt), e)
                    v = 1 + self.best(child, need - 1)
                    if v > val:
                        if v >= need:
                            return v
                        val, move = v, child
            child = (counts, -1)
            v = self.best(child, need)
            if v > val:
                if v >= need:
                    return v
                val, move = v, child
        else:
            for c, nbrs in enumerate(self.nbr_classes):
                if counts[c] >= sizes[c]:
                    continue
                for e in nbrs:
                    if sizes[e] - counts[e] - (e == c) < 1:
                        continue
                    nxt = list(counts)
                    nxt[c] += 1
                    nxt[e] += 1
                    child = (tuple(nxt), e)
                    v = 1 + self.best(child, need - 1)
                    if v > val:
                        if v >= need:
                            return v
                        val, move, start = v, child, c
        memo[state] = (val, move, start)
        return val


def max_linear_forest(g: Graph, budget: int = DEFAULT_BUDGET) -> ForestResult:
    """Maximum number of edges over all linear-forest subgraphs, with witness.

    The witness follows the first optimal move of each state, mapping a
    class to its lowest unused vertex.  Raises BudgetExceeded when the
    memoized state count passes ``budget``.
    """
    search = _ForestSearch(g, budget)
    size = search.run()
    used = [0] * len(search.sizes)  # per class: members taken in index order

    def take(c: int) -> int:
        used[c] += 1
        return search.classes[c][used[c] - 1]

    edges: list[tuple[int, int]] = []
    tail_vertex = -1
    _, move, start = search.memo[search.root]
    while move is not None:
        if move[1] < 0:
            tail_vertex = -1
        else:
            u = take(start) if start >= 0 else tail_vertex
            tail_vertex = take(move[1])
            edges.append((u, tail_vertex))
        _, move, start = search.memo[move]
    return ForestResult(size, tuple(edges))


def is_lk_free(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff g contains no linear forest with exactly k edges.

    Any linear forest of size >= k contains one of exactly k edges (delete
    edges), so this is max_linear_forest(g).size <= k - 1, decided without
    computing lf: the matching number nu brackets it as nu <= lf <= 2 nu (a
    matching is a linear forest; a path of l edges holds a matching of
    ceil(l/2) edges), so nu >= k means not free and 2 nu <= k - 1 means free.
    Otherwise the forest search runs and stops at the first k-edge forest.
    Raises BudgetExceeded when that search passes ``budget`` states.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    nu = matching_number(g).size
    if nu >= k:
        return False
    if 2 * nu <= k - 1:
        return True
    return _ForestSearch(g, budget, k).run() < k


# -- maximum matching ------------------------------------------------------


def matching_number(g: Graph) -> MatchingResult:
    """Exact maximum matching via augmenting paths with blossom contraction.

    Roots are scanned in ascending vertex order and neighbors in ascending
    index order, so the returned matching is deterministic.
    """
    n = g.n
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        mark = [False] * n
        while True:
            a = base[a]
            mark[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if mark[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in iter_bits(g.adj[v]):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:
                            v2 = p[to]
                            nxt = match[v2]
                            match[to] = v2
                            match[v2] = to
                            to = nxt
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    size = 0
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    witness = tuple((v, match[v]) for v in range(n) if v < match[v])
    return MatchingResult(size, witness)


# -- bounded-degree extremal edge counts -----------------------------------


def _connected_components_bound(k: int, delta: int) -> int:
    # Max degree <= 2 means paths and cycles: at most k+1 vertices once the
    # forest size is capped at k.  Otherwise take a maximum linear forest F
    # with f edges and t paths (f+t vertices, f-t internal).  Uncovered
    # vertices form an independent set attached only to internal vertices
    # (else F extends), each of which has at most delta-2 spare slots, so
    # v <= f + t + (f-t)(delta-2): 2k for delta=3, 3k-1 for delta=4.
    if delta <= 2:
        return k + 1
    if delta == 3:
        return 2 * k
    return max(3 * k - 1, 2)


def _class_choices(classes: list[list[int]], left: int, idx: int = 0, mask: int = 0):
    """Yield neighbor masks choosing 0..|class| lowest members per twin class
    from classes[idx:], added to mask: nonzero masks of at most left more
    vertices."""
    if idx == len(classes):
        if mask:
            yield mask
        return
    cls = classes[idx]
    for take in range(0, min(len(cls), left) + 1):
        add = 0
        for v in cls[:take]:
            add |= 1 << v
        yield from _class_choices(classes, left - take, idx + 1, mask | add)


def _enumerate_components(k: int, delta: int, budget: int):
    """Connected graphs with max linear forest <= k and max degree <= delta.

    Grown one vertex at a time (each new vertex attached to a nonempty subset
    of the old ones) with isomorphism dedup, so exactly one representative of
    every class is produced.  All three filters are subgraph-monotone, which
    makes the level-wise pruning sound.  Attachment subsets are enumerated up
    to parent twin-equivalence only: permuting interchangeable parent
    vertices yields isomorphic children.
    """
    from .canon import refined_canonical_key

    cap = _connected_components_bound(k, delta)
    if delta == 1:
        max_edges = 1  # a connected graph with max degree 1 is a single edge
    elif delta == 2:
        max_edges = (3 * k) // 2
    else:
        max_edges = k * (delta - 1)
    level: dict[tuple[int, ...], tuple[int, ...]] = {(): (0,)}
    produced = 0
    for size in range(2, cap + 1):
        n0 = size - 1
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for _, prows in sorted(level.items()):
            degs = [prows[v].bit_count() for v in range(n0)]
            p_edges = sum(degs) // 2
            open_classes = [
                [v for v in cls if degs[v] < delta]
                for cls in _twin_classes_rows(n0, prows)
            ]
            open_classes = [cls for cls in open_classes if cls]
            nb_cap = min(delta, max_edges - p_edges)
            if nb_cap < 1:
                continue
            for nb_mask in _class_choices(open_classes, nb_cap):
                rows = tuple(
                    row | ((nb_mask >> v & 1) << n0) for v, row in enumerate(prows)
                ) + (nb_mask,)
                key = refined_canonical_key(size, rows)
                if key in nxt:
                    continue
                produced += 1
                if produced > budget:
                    raise BudgetExceeded(
                        f"component enumeration exceeded {budget} graphs"
                    )
                child = Graph(size, rows)
                if not is_lk_free(child, k + 1, budget=budget):
                    continue
                nxt[key] = rows
                yield child
        if not nxt:
            break
        level = nxt


def g_extremal(
    k: int, delta: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, Graph]:
    """Maximum edges of a graph with max linear forest <= k and max degree <= delta.

    Components are enumerated exhaustively (lf and degree are additive /
    component-wise), profiled by (lf, edges), and combined by an unbounded
    knapsack over the forest-size budget.  Desk-scale only: k <= 6, delta <= 4.
    """
    if not 0 <= k <= 6:
        raise ValueError("g_extremal supports 0 <= k <= 6")
    if not 0 <= delta <= 4:
        raise ValueError("g_extremal supports 0 <= delta <= 4")
    if k == 0 or delta == 0:
        return 0, Graph.empty(0)

    # best connected component per exact forest size
    best_comp: dict[int, tuple[int, Graph]] = {}
    for comp in _enumerate_components(k, delta, budget):
        if comp.edge_count == 0:
            continue
        f = max_linear_forest(comp, budget=budget).size
        cur = best_comp.get(f)
        if cur is None or comp.edge_count > cur[0]:
            best_comp[f] = (comp.edge_count, comp)

    dp: list[tuple[int, list[Graph]]] = [(0, [])]
    for j in range(1, k + 1):
        best = dp[j - 1]
        for f, (edges, comp) in best_comp.items():
            if f <= j and dp[j - f][0] + edges > best[0]:
                best = (dp[j - f][0] + edges, dp[j - f][1] + [comp])
        dp.append(best)

    total, comps = dp[k]
    witness = Graph.empty(0)
    for comp in comps:
        witness = disjoint_union(witness, comp)
    return total, witness
