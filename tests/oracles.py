"""Independent brute-force oracles used to back the library's fast paths.

These deliberately share no code with the implementations they check:
cliques are counted by scanning vertex subsets, linear forests by a
Hamiltonian-path subset DP (and, for tiny graphs, by filtering literal edge
subsets), matchings by a subset DP or a search for disjoint edges, twin
classes by a pairwise row test, upper bounds on linear forests and matchings
by component counts (the A-set and Tutte-Berge bounds) with witness checks
for the lower side, clique numbers by a Bron-Kerbosch search over Python
sets, the degree-capped extremal count by a scan over labeled edge masks,
the degree-capped matching count by a published closed form,
Graph's row validation by a walk over every edge, host graphs by listing
their edges, host-embedding certificates by a per-vertex part scan, and
graph6 by a bit-string codec written from the format's definition.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from linfor import Graph
from linfor.graphcore import MAX_VERTICES, pair_index
from linfor.verify.profile import graph_profiles

CHUNK = 1 << 22


def count_cliques_subsets(g: Graph, r: int) -> int:
    """All-subsets r-clique counter."""
    if r < 1:
        raise ValueError
    if r > g.n:
        return 0
    count = 0
    for vs in combinations(range(g.n), r):
        if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
            count += 1
    return count


def lf_subset_dp(g: Graph) -> int:
    """Max linear-forest size as n minus the minimum spanning path cover.

    endpoints[s] holds the possible Hamiltonian-path endpoints inside vertex
    subset s; cover[s] is the minimum number of disjoint paths (trivial ones
    allowed) covering s exactly.
    """
    n = g.n
    if n == 0:
        return 0
    size = 1 << n
    endpoints = [0] * size
    for v in range(n):
        endpoints[1 << v] = 1 << v
    for s in range(1, size):
        if s & (s - 1) == 0:
            continue
        acc = 0
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            if endpoints[s ^ low] & g.adj[v]:
                acc |= low
        endpoints[s] = acc
    inf = n + 1
    cover = [inf] * size
    cover[0] = 0
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        sub = rest
        while True:
            piece = sub | low
            if endpoints[piece] and cover[s ^ piece] + 1 < cover[s]:
                cover[s] = cover[s ^ piece] + 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return n - cover[size - 1]


def lf_edge_subsets(g: Graph, max_paths: int | None = None) -> int:
    """Max linear forest by filtering edge subsets, grown with pruning.

    Explores exactly the edge subsets that are linear forests (any subset
    failing the degree or acyclicity filter is abandoned with all its
    supersets that extend it in order).  With ``max_paths``, only forests of
    at most that many paths count; a forest's paths are its covered vertices
    less its edges.
    """
    edges = g.edges()
    m = len(edges)
    cap = g.n if max_paths is None else max_paths
    best = 0

    def rec(
        idx: int, deg: list[int], parent: list[int], size: int, covered: int
    ) -> None:
        nonlocal best
        if covered - size <= cap:
            best = max(best, size)
        for j in range(idx, m):
            u, v = edges[j]
            if deg[u] >= 2 or deg[v] >= 2:
                continue
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                continue
            grown = covered + (deg[u] == 0) + (deg[v] == 0)
            deg[u] += 1
            deg[v] += 1
            parent[ru] = rv
            rec(j + 1, deg, parent, size + 1, grown)
            parent[ru] = ru
            deg[u] -= 1
            deg[v] -= 1

    def _root(parent: list[int], x: int) -> int:
        # no path compression: undoing a union must restore every pointer
        while parent[x] != x:
            x = parent[x]
        return x

    rec(0, [0] * g.n, list(range(g.n)), 0, 0)
    return best


def validate_rows_by_edge(n: int, adj: tuple[int, ...]) -> None:
    """Graph's row validation, one row and then one edge at a time: raises
    ValueError with the message Graph must give for (n, adj), or returns."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    if len(adj) != n:
        raise ValueError("adjacency row count does not match n")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {v} mentions vertices >= n")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v, row in enumerate(adj):
        bit = 1 << v
        while row:
            low = row & -row
            u = low.bit_length() - 1
            if not adj[u] & bit:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")
            row ^= low


def embeds_in_host_naive(g: Graph, p) -> bool:
    """Host-embedding decision by scanning all (A, B) part choices.

    g fits the host iff for some A of size a and B of size k-2a disjoint from
    it, every edge avoiding A lies inside B or is one of at most the allowed
    number of pairwise-disjoint leftover (C) edges.
    """
    allow = p.extra_edge_count
    for a_set in combinations(range(g.n), p.a):
        amask = set(a_set)
        rest = [v for v in range(g.n) if v not in amask]
        for b_set in combinations(rest, p.b_size):
            bmask = set(b_set)
            leftover = []
            ok = True
            for u, v in g.edges():
                if u in amask or v in amask:
                    continue
                if u in bmask and v in bmask:
                    continue
                if u in bmask or v in bmask:
                    ok = False  # forbidden B-C edge
                    break
                leftover.append((u, v))
            if not ok or len(leftover) > allow:
                continue
            used: set[int] = set()
            disjoint = True
            for u, v in leftover:
                if u in used or v in used:
                    disjoint = False
                    break
                used.update((u, v))
            if disjoint:
                return True
    return False


def build_host_reference(p) -> Graph:
    """The host H(n, k, a) from its edge list: every pair inside A ∪ B =
    0..k-a-1, every A-C pair, and the variant's extra edges on the lowest
    disjoint C pairs."""
    core = p.k - p.a
    edges = list(combinations(range(core), 2))
    edges += [(u, c) for u in range(p.a) for c in range(core, p.n)]
    edges += [(core + 2 * i, core + 2 * i + 1) for i in range(p.extra_edge_count)]
    return Graph.from_edges(p.n, edges)


def validate_embedding_reference(g: Graph, cert) -> bool:
    """An embedding certificate's invariants on g, one vertex at a time: the
    A and B masks are vertex sets of g that do not meet, with |A| = a and
    |B| = b, and C is every other vertex; the extra edges are at most the
    variant's count of disjoint C-C pairs; every B row stays inside A ∪ B,
    and every C row inside A plus the vertex's extra-edge partner."""
    p = cert.params
    n = g.n
    amask, bmask = cert.a_mask, cert.b_mask
    if n != p.n or amask < 0 or bmask < 0:
        return False
    if amask >= 1 << n or bmask >= 1 << n:
        return False  # a bit at or above n names no vertex
    cmask = 0
    for v in range(n):
        in_a, in_b = amask >> v & 1, bmask >> v & 1
        if in_a and in_b:
            return False
        if not in_a and not in_b:
            cmask |= 1 << v
    if amask.bit_count() != p.a or bmask.bit_count() != p.b_size:
        return False
    if len(cert.extra_edges) > p.extra_edge_count:
        return False
    extra = [0] * n  # the C-edge partner of each vertex, as a mask
    for u, v in cert.extra_edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return False
        pair = 1 << u | 1 << v
        if pair & ~cmask or extra[u] or extra[v]:
            return False
        extra[u], extra[v] = 1 << v, 1 << u
    b_allowed = amask | bmask
    for v, row in enumerate(g.adj):
        if bmask >> v & 1:
            if row & ~b_allowed:
                return False
        elif cmask >> v & 1 and row & ~(amask | extra[v]):
            return False
    return True


def _component_sizes(g: Graph, removed) -> list[int]:
    """Vertex counts of the components of g minus the vertices in
    ``removed``, isolated vertices included, by a walk over vertex lists."""
    removed = set(removed)
    left = [v for v in range(g.n) if v not in removed]
    seen: set[int] = set()
    sizes = []
    for root in left:
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in left:
                if u not in seen and g.has_edge(u, v):
                    seen.add(u)
                    stack.append(u)
        sizes.append(size)
    return sizes


def forest_upper_bound(g: Graph, a_set) -> int:
    """lf(g) <= n + |A| - c(g - A) for any vertex set A, where c counts
    components: each vertex of A has at most two forest edges, and the forest
    edges inside g - A form a forest there."""
    return g.n + len(a_set) - len(_component_sizes(g, a_set))


def tutte_berge_bound(g: Graph, u_set) -> int:
    """nu(g) <= floor((n + |U| - odd(g - U)) / 2) for any vertex set U, where
    odd counts the components of odd order (Berge 1958)."""
    odd = sum(size % 2 for size in _component_sizes(g, u_set))
    return (g.n + len(u_set) - odd) // 2


def clique_number(g: Graph) -> int:
    """Size of a largest clique of g, by Bron-Kerbosch with a pivot
    (Tomita, Tanaka and Takahashi, Theor. Comput. Sci. 2006) over Python
    sets of neighbours."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    best = 0

    def grow(size: int, cand: set, done: set) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        pivot = max(cand | done, key=lambda u: len(nbrs[u] & cand))
        for v in sorted(cand - nbrs[pivot]):
            grow(size + 1, cand & nbrs[v], done & nbrs[v])
            cand = cand - {v}
            done = done | {v}

    grow(0, set(range(g.n)), set())
    return best


def is_linear_forest_in(g: Graph, edges) -> bool:
    """Whether the edges are distinct edges of g with every degree at most 2
    and no cycle, by a union-find over their ends."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    degree = [0] * g.n
    for u, v in edges:
        if not g.has_edge(u, v):
            return False
        degree[u] += 1
        degree[v] += 1
        if max(degree[u], degree[v]) > 2 or find(u) == find(v):
            return False  # a repeated edge closes a cycle too
        root[find(u)] = find(v)
    return True


def is_matching_in(g: Graph, edges) -> bool:
    """Whether the edges are edges of g with no end in common."""
    ends = [v for edge in edges for v in edge]
    return len(set(ends)) == len(ends) and all(g.has_edge(u, v) for u, v in edges)


def twin_classes_naive(g: Graph) -> list[tuple[int, ...]]:
    """Twin classes from the pairwise test: u ~ v iff their rows agree once
    each is cleared of the other.  Each vertex's class is every vertex it
    passes the test with, so a relation that failed to be transitive would
    give overlapping classes rather than a partition."""
    classes = set()
    for v in range(g.n):
        classes.add(tuple(
            u for u in range(g.n)
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)
        ))
    return sorted(classes)


def matching_subset_dp(g: Graph) -> int:
    """Matching number by subset DP."""
    n = g.n
    size = 1 << n
    best = [0] * size
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        val = best[rest]
        t = rest & g.adj[v]
        while t:
            lo2 = t & -t
            u = lo2.bit_length() - 1
            t ^= lo2
            cand = best[s ^ low ^ lo2] + 1
            if cand > val:
                val = cand
        best[s] = val
    return best[size - 1]


def has_disjoint_edges(g: Graph, count: int) -> bool:
    """Whether g has ``count`` pairwise disjoint edges, by branching on the
    lowest vertex left: it is matched to a later neighbour or left out."""

    def search(avail: int, need: int) -> bool:
        if need == 0:
            return True
        if avail.bit_count() < 2 * need:
            return False
        low = avail & -avail
        rest = avail ^ low
        nbrs = g.adj[low.bit_length() - 1] & rest
        while nbrs:
            u = nbrs & -nbrs
            nbrs ^= u
            if search(rest ^ u, need - 1):
                return True
        return search(rest, need)

    return search((1 << g.n) - 1, count)


def matching_knapsack(best: dict[int, int], k: int) -> int:
    """The most edges of a disjoint union of components with matching
    numbers summing to at most k, given the most edges ``best[nu]`` of a
    component with matching number nu; components may repeat."""
    dp = [0] * (k + 1)
    for j in range(1, k + 1):
        dp[j] = max([dp[j - 1]] + [dp[j - nu] + e for nu, e in best.items() if nu <= j])
    return dp[k]


def chvatal_hanson(k: int, delta: int) -> int:
    """The most edges of a graph with matching number <= k and max degree
    <= delta >= 1: k delta + floor(delta/2) floor(k / ceil(delta/2))
    (Chvatal & Hanson, "Degrees and matchings", J. Combin. Theory Ser. B
    1976; this short form is from Balachandran & Khare, Discrete Math.
    2009)."""
    return k * delta + (delta // 2) * (k // ((delta + 1) // 2))


def _stars(n: int) -> list[int]:
    """Edge mask of the star at each vertex of K_n."""
    return [sum(1 << pair_index(u, w) for u in range(n) if u != w) for w in range(n)]


def degree_capped_max(n: int, k: int, delta: int) -> int:
    """V_n: the most edges of a labeled graph on n vertices with lf <= k and
    max degree <= delta.

    lf comes from the forest table graph_profiles(n, 2), built by its own
    edge-addition search; degrees are popcounts of m & star(w), taken on the
    masks with lf <= k in chunks of CHUNK masks, so that n = 8 stays within
    a few hundred MB.
    """
    lf = graph_profiles(n, 2)
    best = 0
    for lo in range(0, lf.size, CHUNK):
        masks = np.flatnonzero(lf[lo:lo + CHUNK] <= k).astype(np.uint32) + np.uint32(lo)
        for star in _stars(n):
            masks = masks[np.bitwise_count(masks & np.uint32(star)) <= delta]
        if masks.size:
            best = max(best, int(np.bitwise_count(masks).max()))
    return best


def degree_capped_holds(n: int, k: int, delta: int, mask: int) -> bool:
    """Whether the edge mask on n vertices has lf <= k and max degree <= delta,
    by the same table and star popcounts as degree_capped_max."""
    return bool(graph_profiles(n, 2)[mask] <= k) and all(
        (mask & star).bit_count() <= delta for star in _stars(n)
    )


# graph6, as McKay's formats.txt defines it
# (https://users.cecs.anu.edu.au/~bdm/data/formats.txt):
#   graph6 = N(n) R(x), optionally preceded by the header ">>graph6<<";
#   N(n) = one byte n + 63 for 0 <= n <= 62, or 126 followed by R(n) as an
#   18-bit number for 63 <= n <= 258047, or 126 126 followed by R(n) as a
#   36-bit number for larger n;
#   R(x) pads the bit string x on the right with zeros to a multiple of 6,
#   then writes each group of 6, first bit most significant, as a byte + 63;
#   x lists the upper triangle in column order: x(0,1), x(0,2), x(1,2),
#   x(0,3), x(1,3), x(2,3), ..., x(n-2,n-1).
# This codec holds the library's rule on top: only ASCII space, tab, CR and
# LF are stripped around a record, the 4-byte form of N(n) is read for any
# n <= 64 and the 8-byte form is refused, and so is n > 64.


def _r_bytes(bits: str) -> str:
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def graph6_encode_reference(n: int, edges, long_form: bool = False) -> str:
    """The graph6 record of the graph on n vertices with the given (u, v)
    edges; ``long_form`` writes N(n) as 126 and 18 bits even for n <= 62."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    x = "".join("1" if (i, j) in present else "0" for j in range(n) for i in range(j))
    size = "~" + _r_bytes(f"{n:018b}") if long_form or n > 62 else chr(n + 63)
    return size + _r_bytes(x)


def graph6_decode_reference(record: str) -> tuple[int, frozenset]:
    """(n, set of (i, j) edges with i < j) of one graph6 record; raises
    ValueError on every record the library rule refuses."""
    s = record.strip(" \t\r\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    digits = [ord(c) - 63 for c in s]
    if not digits or not all(0 <= d <= 63 for d in digits):
        raise ValueError("not a graph6 record")
    bits = "".join(f"{d:06b}" for d in digits)
    if digits[0] < 63:
        n, x = digits[0], bits[6:]
    elif len(digits) >= 4 and digits[1] < 63:
        n, x = int(bits[6:24], 2), bits[24:]
    else:
        raise ValueError("8-byte or truncated size")
    if n > 64:
        raise ValueError("more than 64 vertices")
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if len(x) != len(pairs) + (-len(pairs) % 6) or "1" in x[len(pairs):]:
        raise ValueError("body length or padding")
    return n, frozenset(p for p, bit in zip(pairs, x) if bit == "1")
