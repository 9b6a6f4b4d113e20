"""Dense labeled simple graphs on at most 64 vertices, plus graph6 interchange.

A graph is stored as one adjacency bitmask per vertex (a Python int used as a
64-bit word).  Vertex subsets are plain int bitmasks throughout the package.
Graphs are immutable; every operation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64

# graph6 sizes: single-byte headers encode n <= 62, the 4-byte long form
# covers the rest of our dense range.
_G6_SHORT_MAX = 62


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 record."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def pair_index(u: int, v: int) -> int:
    """Column-order index of edge {u, v}: (0,1), (0,2), (1,2), (0,3), ...

    This is the bit order used by the graph6 format and by the labeled
    enumeration masks in :mod:`linfor.verify`.
    """
    if u == v:
        raise ValueError("self-loop has no edge index")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with bitset adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def star(leaves: int) -> "Graph":
        return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @staticmethod
    def from_edge_mask(n: int, mask: int) -> "Graph":
        """Build a graph from a column-order edge bitmask (see pair_index)."""
        rows = [0] * n
        p = 0
        for v in range(1, n):
            for u in range(v):
                if mask >> p & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                p += 1
        if mask >> p:
            raise ValueError("edge mask has bits beyond C(n, 2)")
        return Graph(n, tuple(rows))

    # -- queries -----------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v] & ((1 << v) - 1)):
                out.append((u, v))
        return out

    def edge_mask(self) -> int:
        mask = 0
        for u, v in self.edges():
            mask |= 1 << pair_index(u, v)
        return mask

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def relabel(self, perm: list[int]) -> "Graph":
        """Apply vertex relabeling: new label of v is perm[v]."""
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in iter_bits(self.adj[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return Graph(self.n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise ValueError("union exceeds dense vertex cap")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees sorted in nonincreasing order."""
    return sorted((g.degree(v) for v in range(g.n)), reverse=True)


def edges_between(g: Graph, s: int, t: int) -> int:
    """Number of edges with one end in ``s`` and the other in ``t``.

    Follows the e_G(S, T) convention: an edge inside the intersection is
    counted once when s == t, and edges with both ends in s ∩ t are counted
    twice when the sets differ over them.  Concretely this counts ordered
    incidences (u in s, v in t, uv an edge) and halves the diagonal.
    """
    full = g.vertex_mask()
    if (s | t) & ~full:
        raise ValueError("vertex set outside graph")
    total = 0
    for v in iter_bits(s):
        total += (g.adj[v] & t).bit_count()
    # ordered count double-counts edges inside s ∩ t
    inside = 0
    both = s & t
    for v in iter_bits(both):
        inside += (g.adj[v] & both).bit_count()
    return total - inside // 2


def induced_subgraph(g: Graph, vertices: int) -> Graph:
    """Subgraph induced by the vertex bitmask, relabeled to 0..|U|-1.

    Relative vertex order is preserved.
    """
    if vertices & ~g.vertex_mask():
        raise ValueError("vertex set outside graph")
    keep = list(iter_bits(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        row = 0
        for u in iter_bits(g.adj[v] & vertices):
            row |= 1 << pos[u]
        rows[pos[v]] = row
    return Graph(len(keep), tuple(rows))


# -- graph6 ---------------------------------------------------------------


def _g6_size_bytes(n: int) -> bytes:
    if n <= _G6_SHORT_MAX:
        return bytes([n + 63])
    # long form: '~' then 18 bits big-endian in three printable bytes
    return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


def to_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 record (no trailing newline)."""
    if g.n > _G6_SHORT_MAX:
        raise Graph6Error(
            f"n={g.n} exceeds the single-byte graph6 size header (max {_G6_SHORT_MAX})"
        )
    out = bytearray(_g6_size_bytes(g.n))
    bits = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = bits << 1 | (g.adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optionally with the '>>graph6<<' header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 record")
    if not s.isascii():
        raise Graph6Error("graph6 record has a non-ASCII character")
    data = s.encode("ascii")
    if any(b < 63 or b > 126 for b in data):
        raise Graph6Error("graph6 byte outside printable range 63..126")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise Graph6Error("unsupported or truncated graph6 size header")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"n={n} exceeds supported range (max {MAX_VERTICES})")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    rows = [0] * n
    p = 0
    u, v = 0, 1
    for b in body:
        val = b - 63
        for shift in (5, 4, 3, 2, 1, 0):
            bit = val >> shift & 1
            if p < nbits:
                if bit:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                u += 1
                if u == v:
                    u, v = 0, v + 1
            elif bit:
                raise Graph6Error("nonzero padding bits in graph6 body")
            p += 1
    return Graph(n, tuple(rows))


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse one record per nonblank line; errors name the 1-based line."""
    out = []
    for num, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            try:
                out.append(parse_graph6(line))
            except Graph6Error as exc:
                raise Graph6Error(f"line {num}: {exc}") from exc
    return out
