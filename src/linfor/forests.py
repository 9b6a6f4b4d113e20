"""Exact linear-forest and matching computations.

A linear forest is a subgraph whose components are paths; its size is its
edge count.  A graph is L_k-free iff its maximum linear forest has at most
k-1 edges.  ``max_linear_forest`` computes that maximum with a witness;
``is_lk_free`` only decides it, in five steps that stop at the first
answer: nu >= k means not free and 2 nu <= k - 1 means free, since the
blossom matching number brackets lf as nu <= lf <= 2 nu; a linear forest of
k or more edges, grown greedily from that matching, means not free; an
A-set bound lf <= n + |A| - c(G - A) of at most k - 1 means free; and only
then the forest search runs, stopping at the first k-edge forest.  A linear
forest of p paths on n vertices has at most n - p edges, so a k-edge forest
has at most n - k paths, and that search starts no more.

The forest search builds paths edge by edge and memoizes on twin-collapsed
states: vertices with identical neighborhoods (adjacent or not) are
interchangeable, so a state is the per-class count of consumed vertices plus
the class of the open path end, packed into one int: a bit field per class
above a few low bits for the tail.  On the symmetric host graphs this
collapses n ~ 40 instances to a few thousand states; on arbitrary graphs it
degrades to the usual exponential search, guarded by a node budget.

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
from typing import Callable

from .graphcore import (
    MAX_VERTICES, Graph, _touching, _twin_classes_rows, disjoint_union, iter_bits,
)

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

    A state is one int; 0 is the empty start.  Its bits under ``low`` hold
    the class of the open path end plus one, or 0 when no path is open.
    Above them each class c keeps its number of consumed vertices in a bit
    field of its own, ``max(sizes).bit_length() + 1`` bits wide, counted in
    units of ``unit[c]``.  Class c has a free vertex while
    ``state & field[c] < full[c]`` (``full[c]`` is ``sizes[c] * unit[c]``),
    so a move to class e is ``base + unit[e] + (e + 1)`` with ``base`` the
    state less its tail code; a new path adds ``unit[c]`` of its first class
    c to ``base`` first.  With an edge target ``k`` one more field on top,
    counted in units of ``allow``, holds the paths the search may still
    start, so the empty start is ``max(0, n - k) * allow``: a k-edge linear
    forest covers k + p vertices with p paths.  Each new path spends one,
    and a state below ``allow`` starts none.  Without a target ``allow`` is
    0.
    ``moves[c]`` lists ``(unit, field, full, e + 1)`` for each class e
    adjacent to c, by ascending e, and ``starts[c]`` is
    ``(unit - allow, field, full, moves)`` of c.  ``memo`` maps each fully
    explored state to ``(value, next_state, start_class)``: its best
    completion and the first move reaching it, where ``start_class`` is the
    class of a new path's first vertex (-1 for an extension or a close).  A
    state left early is never stored, so every entry is exact for its key,
    allowance included.  With an edge target ``k`` the search stops at the
    first forest of k edges; without one it computes the maximum.
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
        sizes = [len(c) for c in classes]
        shift = m.bit_length()
        width = max(sizes, default=0).bit_length() + 1
        unit = [1 << (shift + c * width) for c in range(m)]
        field = [((1 << width) - 1) * u for u in unit]
        full = [s * u for s, u in zip(sizes, unit)]
        self.allow = 0 if k is None else 1 << (shift + m * width)
        self.moves = [
            [(unit[e], field[e], full[e], e + 1) for e in range(m) if adjacent(c, e)]
            for c in range(m)
        ]
        self.starts = [
            (u - self.allow, f, s, mv)
            for u, f, s, mv in zip(unit, field, full, self.moves)
        ]
        self.low = (1 << shift) - 1
        self.classes = classes
        self.budget = budget
        self.k = k
        self.n = g.n
        self.memo: dict[int, tuple] = {}

    def run(self) -> int:
        """lf(g) when k is None; otherwise a value that is >= k iff lf(g) >= k.

        Below k that value is the most edges of a linear forest with at most
        n - k paths, which may be less than lf(g).
        """
        # g.n + 1 edges exceed every forest of g, even at n = 0, so the exact
        # search never stops early and stores every state it reaches
        need = self.n + 1 if self.k is None else self.k
        return self.best(max(0, self.n - need) * self.allow, need)

    def best(self, state: int, need: int) -> int:
        """Edges of the best forest completing ``state``; with a target, of
        the best that starts no more paths than the state's allowance.

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
                f"a {self.n}-vertex graph with {len(self.classes)} twin classes"
            )
        val, move, start = 0, None, -1
        code = state & self.low
        # from an open path: extend by ascending class, then close; with no
        # open path: start by ascending class pair, then stop
        if code:
            base = state - code
            for unit, field, full, e_code in self.moves[code - 1]:
                if state & field < full:
                    child = base + unit + e_code
                    v = 1 + self.best(child, need - 1)
                    if v > val:
                        if v >= need:
                            return v
                        val, move = v, child
            v = self.best(base, need)
            if v > val:
                if v >= need:
                    return v
                val, move = v, base
        elif state >= self.allow:
            for c, (c_unit, c_field, c_full, moves) in enumerate(self.starts):
                if state & c_field >= c_full:
                    continue
                base = state + c_unit
                for unit, field, full, e_code in moves:
                    if base & field < full:
                        child = base + unit + e_code
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
    used = [0] * len(search.classes)  # per class: members taken in index order

    def take(c: int) -> int:
        used[c] += 1
        return search.classes[c][used[c] - 1]

    edges: list[tuple[int, int]] = []
    tail_vertex = -1
    low = search.low
    _, move, start = search.memo[0]
    while move is not None:
        if not move & low:
            tail_vertex = -1
        else:
            u = take(start) if start >= 0 else tail_vertex
            tail_vertex = take((move & low) - 1)
            edges.append((u, tail_vertex))
        _, move, start = search.memo[move]
    return ForestResult(size, tuple(edges))


def _a_set_bound(g: Graph, target: int) -> tuple[int, int]:
    """``(bound, A)``: lf(g) <= bound = n + |A| - c(g - A) for the vertex mask
    A, with c counting components, since each vertex of A ends at most two
    forest edges and the rest form a forest in g - A (Chvatal, "Tough graphs
    and Hamiltonian circuits", Discrete Math. 1973).  A grows from the empty
    set by the vertex of highest degree in g - A, the lowest on ties, until
    g - A has no edge or the least bound, returned with its first A, is at
    most ``target``.
    """
    n, adj = g.n, g.adj
    rest, amask, best = (1 << n) - 1, 0, (n + 1, 0)
    while True:
        # the isolated vertices of g - A in one pass, then a frontier walk
        # per component of the rest
        linked = _touching(adj, rest) & rest
        count, left = (rest ^ linked).bit_count(), linked
        while left:
            seen = frontier = left & -left
            while frontier:
                frontier = _touching(adj, frontier) & left & ~seen
                seen |= frontier
            left ^= seen
            count += 1
        # a later A is a superset, so a larger mask: min keeps the first
        best = min(best, (n + amask.bit_count() - count, amask))
        if best[0] <= target or not linked:
            return best
        top = max(iter_bits(linked), key=lambda v: (adj[v] & rest).bit_count())
        amask |= 1 << top
        rest ^= 1 << top


def _greedy_linear_forest(
    g: Graph, matching: tuple[tuple[int, int], ...]
) -> list[tuple[int, int]]:
    """A linear forest of g: the matching plus every edge, in ascending
    ``(deg u + deg v, u, v)`` order, whose ends both have forest degree
    below 2 and lie on different paths.

    Low degree sums first keep the hubs free for the sparse ends of the
    graph.  On the stability suites' hosts with one forbidden edge this
    order finds a k-edge forest every time; ascending ``(u, v)`` order
    finds none.
    """
    deg = [row.bit_count() for row in g.adj]
    fdeg = [0] * g.n
    parent = list(range(g.n))
    edges = list(matching)
    for u, v in matching:
        fdeg[u] = fdeg[v] = 1
        parent[u] = v
    # one int per edge u < v sorts as its (deg u + deg v, u, v): u, v < 64
    for key in sorted([
        (deg[u] + deg[v]) << 12 | u << 6 | v
        for u, row in enumerate(g.adj) for v in iter_bits(row >> (u + 1) << (u + 1))
    ]):
        u, v = key >> 6 & 63, key & 63
        if fdeg[u] < 2 and fdeg[v] < 2:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                fdeg[u] += 1
                fdeg[v] += 1
                edges.append((u, v))
    return edges


def is_lk_free(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff g contains no linear forest with exactly k edges.

    Any linear forest of size >= k contains one of exactly k edges (delete
    edges), so this is max_linear_forest(g).size <= k - 1, decided without
    computing lf: the matching number nu brackets it as nu <= lf <= 2 nu (a
    matching is a linear forest; a path of l edges holds a matching of
    ceil(l/2) edges), so nu >= k means not free and 2 nu <= k - 1 means free.
    Otherwise a greedy linear forest grown from the maximum matching with k
    or more edges means not free, and an A-set bound (``_a_set_bound``) of
    at most k - 1 means free.  Only then does the forest search run,
    stopping at the first k-edge forest.  It starts at most n - k paths: a
    linear forest of p paths covers its edges plus p vertices, so every
    k-edge forest has at most n - k paths.

    ``budget`` bounds that search alone and raises BudgetExceeded when it
    passes ``budget`` states; a graph decided by one of the four steps
    before it returns its answer whatever the budget.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    matching = matching_number(g)
    nu = matching.size
    if nu >= k:
        return False
    if 2 * nu <= k - 1:
        return True
    if len(_greedy_linear_forest(g, matching.witness)) >= k:
        return False
    if _a_set_bound(g, k - 1)[0] <= k - 1:
        return True
    return _ForestSearch(g, budget, k).run() < k


def _closed_lf(g: Graph) -> int | None:
    """lf(g) when the greedy forest meets the A-set bound, else None."""
    size = len(_greedy_linear_forest(g, matching_number(g).witness))
    return size if _a_set_bound(g, size)[0] <= size else None


# -- maximum matching ------------------------------------------------------


def matching_number(g: Graph) -> MatchingResult:
    """Exact maximum matching via augmenting paths with blossom contraction.

    Roots are scanned in ascending vertex order and neighbors in ascending
    index order, so the returned matching is deterministic.  When the search
    from a root fails, its alternating tree is a Hungarian tree: no later
    augmenting path meets it, so its vertices are skipped from then on
    (Edmonds, "Paths, trees, and flowers", 1965).
    """
    n = g.n
    adj = g.adj
    unset, own, clear = [-1] * n, list(range(n)), [False] * n
    match, p, base = unset[:], unset[:], own[:]
    used, blossom = clear[:], clear[:]
    live = (1 << n) - 1  # vertices outside every Hungarian tree so far

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
        used[:] = clear
        p[:] = unset
        base[:] = own
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            nbrs = adj[v] & live
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom[:] = clear
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
        if match[v] == -1:
            if not adj[v] & live:
                # the search would fail at once with v its tree's only vertex
                live &= ~(1 << v)
            elif find_path(v):
                size += 1
            else:
                for i in range(n):
                    if used[i] or p[i] != -1:
                        live &= ~(1 << i)
    witness = tuple((v, match[v]) for v in range(n) if v < match[v])
    return MatchingResult(size, witness)


# -- bounded-degree extremal edge counts -----------------------------------


def _forest_paths(n: int, forest: ForestResult) -> tuple[int, list[int]]:
    """``(size, path)`` of a linear forest on n vertices: ``path[u]`` names
    the path holding u (an isolated vertex is a path of its own), or is -1
    when u has forest degree 2 and so no free end."""
    parent = list(range(n))
    deg = [0] * n
    for u, v in forest.witness:
        parent[_find(parent, u)] = _find(parent, v)
        deg[u] += 1
        deg[v] += 1
    return forest.size, [-1 if deg[u] == 2 else _find(parent, u) for u in range(n)]


def _child_lf_bracket(parent: tuple[int, list[int]], nbrs: int) -> tuple[int, int]:
    """``(lo, hi)`` with lo <= lf(child) <= hi, for the child that adds one
    vertex v joined to ``nbrs`` to a graph whose maximum linear forest has
    ``_forest_paths`` ``parent``.

    Deleting v from a forest of the child deletes at most min(2, deg v)
    edges and leaves a forest of the parent, so hi = lf + min(2, deg v).
    The parent's maximum forest with v joined to free ends of two distinct
    paths (or of one) is a forest of the child, so lo = lf + min(2, number
    of distinct paths with a free end among v's neighbours).
    """
    size, path = parent
    ends = {path[u] for u in iter_bits(nbrs)}
    ends.discard(-1)
    return size + min(2, len(ends)), size + min(2, nbrs.bit_count())


def _class_choices(classes: list[list[int]], left: int, idx: int = 0, mask: int = 0):
    """Yield neighbor masks choosing 0..|class| lowest members per twin class
    from classes[idx:], added to mask: every mask of at most left more
    vertices, the empty choice first."""
    if idx == len(classes):
        yield mask
        return
    cls = classes[idx]
    for take in range(0, min(len(cls), left) + 1):
        add = 0
        for v in cls[:take]:
            add |= 1 << v
        yield from _class_choices(classes, left - take, idx + 1, mask | add)


def _add_vertex(prows: tuple[int, ...], nbrs: int) -> tuple[int, ...]:
    """The rows of ``prows`` plus one last vertex joined to ``nbrs``."""
    n0 = len(prows)
    return tuple(row | (nbrs >> v & 1) << n0 for v, row in enumerate(prows)) + (nbrs,)


def _isomorphism_classes(
    top: int,
    delta: int,
    empty: bool,
    grow: Callable[[tuple[int, ...], int], tuple[int, ...] | None],
    budget: int,
):
    """Yield one graph per isomorphism class on 2..top vertices with max
    degree <= delta, level by level.

    Level s + 1 grows from level s (level 1 is the single vertex) by adding a
    vertex joined to at most ``delta`` of the parent's vertices of degree
    below ``delta``, and with ``empty`` false to at least one.  For a kept
    parent's rows and each attachment mask, ``grow(prows, nbrs)`` returns the
    child's rows ``_add_vertex(prows, nbrs)`` to keep it or None to refuse
    it, so a hook deciding from the parent need not build it.  Its answer
    must be isomorphism-invariant and inherited by induced subgraphs.  Kept
    rows are keyed by ``refined_canonical_key``; a child whose key is
    already on its level is dropped, and only a child that starts a class is
    built as a ``Graph`` and yielded, each parent before its children (level
    2 grows from the single vertex ``(0,)``).

    Every kept class is reached, by induction on its size (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 1998): max degree
    <= delta is hereditary, so deleting a vertex v (one that leaves the
    graph connected, when ``empty`` is false) leaves a kept graph in which
    v's at most delta neighbours have degree below delta.  Parents are
    walked in key order, so the key's order, not only its equality, fixes
    which child represents each class and hence its labels.  Attachment
    subsets are enumerated up to parent twin-equivalence only: permuting
    interchangeable parent vertices yields isomorphic children.  More than
    ``budget`` children that are refused or start a class raise
    BudgetExceeded.
    """
    from .canon import refined_canonical_key

    level: dict[tuple, tuple[int, ...]] = {(): (0,)}
    produced = 0
    for size in range(2, top + 1):
        nxt: dict[tuple, tuple[int, ...]] = {}
        for _, prows in sorted(level.items()):
            open_classes = [
                [v for v in cls if prows[v].bit_count() < delta]
                for cls in _twin_classes_rows(size - 1, prows)
            ]
            for nb_mask in _class_choices([cls for cls in open_classes if cls], delta):
                if not (nb_mask or empty):
                    continue
                rows = grow(prows, nb_mask)
                key = None if rows is None else refined_canonical_key(size, rows)
                if key in nxt:
                    continue
                produced += 1
                if produced > budget:
                    raise BudgetExceeded(
                        f"isomorphism-class enumeration exceeded {budget} graphs "
                        f"at the {size}-vertex level, which had kept {len(nxt)} "
                        f"classes"
                    )
                if rows is None:
                    continue
                nxt[key] = rows
                yield Graph(size, rows)
        if not nxt:
            break
        level = nxt


def g_extremal(
    k: int, delta: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, Graph]:
    """Maximum edges of a graph with max linear forest <= k and max degree <= delta.

    Connected components on 2 or more vertices are grown one vertex at a
    time by ``_isomorphism_classes``, one per isomorphism class of max degree
    <= delta; the filter lf <= k is subgraph-monotone, so every class is
    reached.  A connected graph with max degree <= delta and lf <= k has
    boundedly many vertices, so growth ends at the first empty level, and
    ``budget`` bounds it either way.  Each grown class's maximum linear
    forest is kept, and a child's lf <= k is bracketed from its parent's
    forest (see ``_child_lf_bracket``) before the child is built; only a
    child the bracket leaves open goes to ``is_lk_free``.  The components
    are profiled by (lf, edges) and combined by an unbounded knapsack over
    the forest size (lf and degree are component-wise).  The range
    0 <= k <= 6, 0 <= delta <= 4 is a desk-scale time limit: g_extremal(6, 4)
    takes about 2 s (2 vCPU, Python 3.11).  A BudgetExceeded raised inside
    names k and delta.
    """
    if not 0 <= k <= 6:
        raise ValueError("g_extremal supports 0 <= k <= 6")
    if not 0 <= delta <= 4:
        raise ValueError("g_extremal supports 0 <= delta <= 4")
    # each kept class's _forest_paths by rows, from the single vertex (0,)
    parents: dict[tuple[int, ...], tuple[int, list[int]]] = {(0,): (0, [0])}

    def grow(prows: tuple[int, ...], nbrs: int) -> tuple[int, ...] | None:
        lo, hi = _child_lf_bracket(parents[prows], nbrs)
        if lo > k:
            return None
        rows = _add_vertex(prows, nbrs)
        if hi <= k or is_lk_free(Graph(len(rows), rows), k + 1, budget=budget):
            return rows
        return None

    # best connected component per exact forest size
    best_comp: dict[int, tuple[int, Graph]] = {}
    try:
        for comp in _isomorphism_classes(MAX_VERTICES, delta, False, grow, budget):
            forest = max_linear_forest(comp, budget=budget)
            parents[comp.adj] = _forest_paths(comp.n, forest)
            cur = best_comp.get(forest.size)
            if cur is None or comp.edge_count > cur[0]:
                best_comp[forest.size] = (comp.edge_count, comp)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"g_extremal at k = {k}, delta = {delta}: {exc}") from exc

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
