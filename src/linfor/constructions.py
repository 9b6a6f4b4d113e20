"""Extremal host graphs H(n, k, a) and their closed-form clique counts.

The host on parts A, B, C (|A| = a, |B| = k - 2a, |C| = n - k + a) carries all
edges inside A ∪ B plus the complete bipartite A-C edges; C is independent.
The "plus" variant adds one edge inside C, "plusplus" two independent ones.
Counts stay exact Python ints, so they work far beyond the 64-vertex dense cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphcore import MAX_VERTICES, Graph

# extra C-edges of each host variant, hence minimum |C|
_EXTRA_EDGES = {"plain": 0, "plus": 1, "plusplus": 2}
VARIANTS = tuple(_EXTRA_EDGES)


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (n, k, a, variant) of a host graph."""

    n: int
    k: int
    a: int
    variant: str = "plain"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.a < 0:
            raise ValueError("part A has negative size")
        if self.k - 2 * self.a < 0:
            raise ValueError(f"part B has negative size k-2a = {self.k - 2 * self.a}")
        if self.n - self.k + self.a < 0:
            raise ValueError(f"part C has negative size n-k+a = {self.n - self.k + self.a}")
        need_c = 2 * self.extra_edge_count
        if self.c_size < need_c:
            raise ValueError(
                f"variant {self.variant!r} needs |C| >= {need_c}, got {self.c_size}"
            )

    @property
    def b_size(self) -> int:
        return self.k - 2 * self.a

    @property
    def c_size(self) -> int:
        return self.n - self.k + self.a

    @property
    def extra_edge_count(self) -> int:
        return _EXTRA_EDGES[self.variant]


def listed_hosts(n: int, k: int) -> list[ConstructionParams]:
    """The stability host list for forest parameter k (parity-dependent)."""
    mid = (k - 3) // 2
    hosts = [
        ConstructionParams(n, k, (k - 1) // 2),
        ConstructionParams(n, k, mid),
        ConstructionParams(n, k - 1, mid, "plus"),
    ]
    if k % 2 == 0:
        hosts.append(ConstructionParams(n, k - 2, mid, "plusplus"))
    return hosts


def matching_hosts(n: int, k: int) -> list[ConstructionParams]:
    """The matching-stability host list for matching bound k."""
    return [
        ConstructionParams(n, 2 * k + 1, k),
        ConstructionParams(n, 2 * k + 1, k - 1),
    ]


def binomial(n: int, r: int) -> int:
    """Exact C(n, r); zero outside 0 <= r <= n."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


def real_binomial(x: float, r: int) -> float:
    """Falling-factorial binomial x(x-1)...(x-r+1)/r! for real x."""
    if r < 0:
        return 0.0
    out = 1.0
    for i in range(r):
        out *= (x - i)
    return out / math.factorial(r)


def build_host(p: ConstructionParams) -> Graph:
    """Materialize the host graph with A = 0..a-1, B = a..k-a-1, C = rest.

    An A vertex sees every other vertex, a B vertex sees A ∪ B and a C vertex
    sees A.  The plus variant adds the C-edge (k-a, k-a+1); plusplus
    additionally adds (k-a+2, k-a+3).  Requires n within the dense vertex cap.
    """
    if p.n > MAX_VERTICES:
        raise ValueError(f"n={p.n} exceeds dense cap {MAX_VERTICES}; use host_clique_count")
    core = p.k - p.a  # |A ∪ B|
    rows = [(1 << p.n) - 1] * p.a + [(1 << core) - 1] * p.b_size + [(1 << p.a) - 1] * p.c_size
    for c in range(core, core + 2 * p.extra_edge_count, 2):
        rows[c] |= 1 << c + 1
        rows[c + 1] |= 1 << c
    return Graph(p.n, tuple(row & ~(1 << v) for v, row in enumerate(rows)))


def h_r(n: int, k: int, a: int, r: int) -> int:
    """Closed-form r-clique count of the plain host: C(k-a, r) + (n-k+a)·C(a, r-1)."""
    ConstructionParams(n, k, a)  # validates part sizes
    if r < 1:
        raise ValueError("r must be at least 1")
    return binomial(k - a, r) + (n - k + a) * binomial(a, r - 1)


def host_clique_count(p: ConstructionParams, r: int) -> int:
    """Exact r-clique count of any host variant, purely arithmetic.

    Each extra C-edge has common neighborhood exactly A, so it contributes
    C(a, r-2) cliques; the two plusplus edges are independent, hence additive.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    base = h_r(p.n, p.k, p.a, r)
    return base + p.extra_edge_count * binomial(p.a, r - 2)


def clique_bound_from_edges(m: int, r: int) -> float:
    """Upper bound on the number of r-cliques of a graph with m edges.

    Inverts C(x, 2) = m over the reals and evaluates C(x, r) with the
    generalized binomial; zero when x < r.
    """
    if m < 0:
        raise ValueError("negative edge count")
    if r < 3:
        raise ValueError("bound is stated for r >= 3")
    x = (1.0 + math.sqrt(1.0 + 8.0 * m)) / 2.0
    if x < r:
        return 0.0
    return real_binomial(x, r)
