"""Dense labeled simple graphs on at most 64 vertices, plus graph6 interchange.

A graph is stored as one adjacency bitmask per vertex (a Python int used as a
64-bit word).  Vertex subsets are plain int bitmasks throughout the package.
Graphs are immutable; every operation returns a new value.  Validating a
graph's rows costs O(log n) word operations: the rows are packed into one
word, which is transposed as a bit matrix and compared with itself.

The edge mask lists the upper triangle in column order (pair_index): column v
is the v bits from v(v-1)/2 up, adj[v]'s bits below v.  A graph6 body is the
mask's bits in ascending order, so conversions go a column or a byte at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

MAX_VERTICES = 64

# graph6 sizes: single-byte headers encode n <= 62, the only form written;
# the parser also reads the 4-byte long form that covers n = 63 and 64.
_G6_SHORT_MAX = 62
# a body byte is 63 plus six mask bits, the lowest first and so most
# significant: _REV6[d] reverses the six bits of d, both ways
_REV6 = [int(f"{d:06b}"[::-1], 2) for d in range(64)]
_G6_SPACE = " \t\r\n"  # str.strip() would also drop \x0b, \x0c, \x1c-\x1f, \x85


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 record."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


# struct codes that pack one row into a little-endian word of each stride;
# struct packs whole bytes, so a graph on n <= 8 vertices uses stride 8
_ROW_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@cache
def _row_layout(n: int):
    """(pack, s, bad, swaps, ones) for n rows, built on first use.

    pack writes the rows at a stride s >= n, bit v*s + u holding entry
    (v, u); bad marks each row's bits at or above n and its diagonal bit,
    and ones each row's bit 0.
    Each swap (shift, mask) exchanges bit i of the mask with bit i + shift:
    entry (r, c) with r & j clear and c & j set trades places with
    (r + j, c - j).  For j = s/2, ..., 1 they transpose the s x s matrix
    (Warren, Hacker's Delight, 7-3).
    """
    s = max(8, 1 << (n - 1).bit_length())
    above = (1 << s) - (1 << n)
    bad = sum((above | 1 << v) << v * s for v in range(n))
    swaps = []
    j = s // 2
    while j:
        cols = sum(1 << c for c in range(s) if c & j)
        swaps.append((j * (s - 1), sum(cols << r * s for r in range(s) if not r & j)))
        j //= 2
    ones = sum(1 << v * s for v in range(n))
    return struct.Struct(f"<{n}{_ROW_CODES[s]}").pack, s, bad, tuple(swaps), ones


# a byte reads "0" when zero and "1" otherwise
_NONZERO = b"0" + b"1" * 255


def _mask_of(flags: str | bytes) -> int:
    """The vertex mask whose bit v is set when flags[v] is "1"."""
    return int(flags[::-1] or "0", 2)


def _touching(adj: tuple[int, ...], mask: int) -> int:
    """The vertices with a neighbour in ``mask``: the union of mask's rows,
    as the rows are symmetric.  Each packed row is ANDed with mask and
    OR-folded into its lowest byte, which is nonzero iff the row meets mask."""
    pack, s, _, _, ones = _row_layout(len(adj))
    met = int.from_bytes(pack(*adj), "little") & mask * ones
    shift = s // 2
    while shift >= 8:
        met |= met >> shift
        shift //= 2
    low = met.to_bytes(len(adj) * s // 8, "little")[:: s // 8]
    return _mask_of(low.translate(_NONZERO))


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with bitset adjacency rows.

    Construction rejects the first row, in order, that is outside [0, 2^n)
    or has a self-loop (range first), then the first asymmetric (v, u) in
    row order; the check costs O(log n) word operations.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        adj = self.adj
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        pack, s, bad, swaps, _ = _row_layout(n)
        try:
            packed = int.from_bytes(pack(*adj), "little")
            fault = packed & bad
        except struct.error:  # a row is negative or wider than the stride
            fault = True
        if fault:
            # some row is out of range or has a self-loop: name the first
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"row {v} mentions vertices >= n")
                if row >> v & 1:
                    raise ValueError(f"self-loop at vertex {v}")
        transposed = packed
        for shift, mask in swaps:
            t = (transposed ^ transposed >> shift) & mask
            transposed ^= t ^ t << shift
        # bit v*s + u is set when u is in row v but v is not in row u
        odd = packed & ~transposed
        if odd:
            v, u = divmod((odd & -odd).bit_length() - 1, s)
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
        """Build a graph from a column-order edge bitmask (see pair_index):
        column v is row v's bits below v, each mirrored into a lower row."""
        if mask >> max(n, 0) * (n - 1) // 2:  # a negative n has no pairs
            raise ValueError("edge mask has bits beyond C(n, 2)")
        rows = [0] * n
        for v in range(1, n):
            col = mask & (1 << v) - 1
            mask >>= v
            rows[v] |= col
            while col:
                low = col & -col
                rows[low.bit_length() - 1] |= 1 << v
                col ^= low
        return Graph(n, tuple(rows))

    # -- queries -----------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v] & ((1 << v) - 1)):
                out.append((u, v))
        return out

    def edge_mask(self) -> int:
        """Column-order edge bitmask: column v, the v bits from v(v-1)/2 up,
        is row v's bits below v, so {u, v} is bit pair_index(u, v)."""
        mask = 0
        for v, row in enumerate(self.adj):
            mask |= (row & (1 << v) - 1) << v * (v - 1) // 2
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


def _twin_classes_rows(n: int, rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    # No vertex has twins of both kinds: if u, v are false twins and w is a
    # true twin of v, then w ∈ N(v) = N(u), so u ∈ N[w] = N[v], yet u ≁ v.
    # So vertices with a false twin are done, and the rest group by N[v].
    by_row: dict[int, list[int]] = {}
    for v in range(n):
        by_row.setdefault(rows[v], []).append(v)
    classes = []
    by_closed: dict[int, list[int]] = {}
    for vs in by_row.values():
        if len(vs) > 1:
            classes.append(tuple(vs))
        else:
            by_closed.setdefault(rows[vs[0]] | 1 << vs[0], []).append(vs[0])
    classes += map(tuple, by_closed.values())
    return sorted(classes)


def edges_between(g: Graph, s: int, t: int) -> int:
    """Number of edges with one end in ``s`` and the other in ``t``, each
    counted once.

    An edge with both ends in s ∩ t counts once too, so s == t gives the
    edge count of the subgraph induced on s.  Concretely this counts ordered
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


def _graph6(n: int, mask: int) -> str:
    """graph6 record of the column-order edge mask on n <= 62 vertices: body
    byte i + 1 is 63 plus mask bits 6i .. 6i + 5, bit 6i most significant."""
    body = bytes(_REV6[mask >> i & 63] + 63 for i in range(0, n * (n - 1) // 2, 6))
    return chr(n + 63) + body.decode("ascii")


def to_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 record (no trailing newline)."""
    if g.n > _G6_SHORT_MAX:
        raise Graph6Error(
            f"n={g.n} exceeds the single-byte graph6 size header (max {_G6_SHORT_MAX})"
        )
    return _graph6(g.n, g.edge_mask())


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optionally with the '>>graph6<<' header).

    Only ASCII space, tab, CR and LF are stripped from either end; any other
    byte outside 63..126, such as a vertical tab or form feed, is an error.
    """
    s = text.strip(_G6_SPACE)
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
    mask = 0
    for b in reversed(body):
        mask = mask << 6 | _REV6[b - 63]
    if mask >> nbits:
        raise Graph6Error("nonzero padding bits in graph6 body")
    return Graph.from_edge_mask(n, mask)


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse one record per nonblank line; errors name the 1-based line.

    A line is blank when it holds only ASCII space, tab, CR and LF."""
    out = []
    for num, line in enumerate(lines, start=1):
        line = line.strip(_G6_SPACE)
        if line:
            try:
                out.append(parse_graph6(line))
            except Graph6Error as exc:
                raise Graph6Error(f"line {num}: {exc}") from exc
    return out
