"""Stability classification: threshold tests plus host-embedding certificates.

A graph whose clique count clears the stability threshold must embed into one
of a short list of host graphs.  Embedding is decided exactly: g fits into a
host iff some a-set A exists such that g - A splits into components that fit
inside part B, with up to the variant's allowance of K_2 components placed as
extra C-edges.  Part A of a host is joined to everything, so A-membership is
unconstrained; vertices too high in degree for B or C are forced into A,
which keeps the search tiny on host-like inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cliques import count_cliques
from ..constructions import ConstructionParams, h_r
from ..forests import BudgetExceeded, matching_number, twin_classes
from ..graphcore import Graph, iter_bits

EMBED_BUDGET = 200_000


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Host parameters plus the per-vertex part assignment realizing g ⊆ host."""

    params: ConstructionParams
    parts: tuple[str, ...]  # 'A' | 'B' | 'C' per vertex
    extra_edges: tuple[tuple[int, int], ...]


def validate_embedding(g: Graph, cert: EmbeddingCertificate) -> bool:
    """Check the certificate against its invariants on g."""
    p = cert.params
    if g.n != p.n or len(cert.parts) != g.n:
        return False
    a_count = cert.parts.count("A")
    b_count = cert.parts.count("B")
    if a_count != p.a or b_count != p.b_size:
        return False
    extra = set()
    used = set()
    for u, v in cert.extra_edges:
        if cert.parts[u] != "C" or cert.parts[v] != "C":
            return False
        if u in used or v in used:
            return False  # extra edges must be independent
        used.update((u, v))
        extra.add((min(u, v), max(u, v)))
    if len(cert.extra_edges) > p.extra_edge_count:
        return False
    for u, v in g.edges():
        pu, pv = cert.parts[u], cert.parts[v]
        if pu == "A" or pv == "A":
            continue
        if pu == "B" and pv == "B":
            continue
        if pu == "C" and pv == "C" and (min(u, v), max(u, v)) in extra:
            continue
        return False
    return True


def _components(g: Graph, alive: int) -> list[int]:
    """Connected components (as bitmasks) of the subgraph induced on alive."""
    comps = []
    todo = alive
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= g.adj[v] & alive & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def _try_assignment(g: Graph, p: ConstructionParams, amask: int):
    rest = g.vertex_mask() ^ amask
    comps = _components(g, rest)
    nontrivial = []
    k2 = []
    for comp in comps:
        sz = comp.bit_count()
        if sz == 1:
            continue
        edges_inside = sum((g.adj[v] & comp).bit_count() for v in iter_bits(comp)) // 2
        if edges_inside == 0:
            continue
        nontrivial.append(comp)
        if sz == 2 and edges_inside == 1:
            k2.append(comp)
    designated = k2[: p.extra_edge_count]
    load = sum(c.bit_count() for c in nontrivial) - 2 * len(designated)
    if load > p.b_size:
        return None
    parts = ["C"] * g.n
    for v in iter_bits(amask):
        parts[v] = "A"
    desig_mask = 0
    for comp in designated:
        desig_mask |= comp
    b_needed = p.b_size
    for comp in nontrivial:
        if comp & desig_mask:
            continue
        for v in iter_bits(comp):
            parts[v] = "B"
            b_needed -= 1
    # pad B with trivial rest vertices, lowest index first
    for v in iter_bits(rest):
        if b_needed == 0:
            break
        if parts[v] == "C" and not (desig_mask >> v & 1):
            parts[v] = "B"
            b_needed -= 1
    extra_edges = []
    for comp in designated:
        u, v = list(iter_bits(comp))
        extra_edges.append((u, v))
    cert = EmbeddingCertificate(p, tuple(parts), tuple(extra_edges))
    if not validate_embedding(g, cert):
        raise RuntimeError(f"embedding certificate failed validation: {cert}")
    return cert


def embeds_in_host(
    g: Graph, p: ConstructionParams, budget: int = EMBED_BUDGET
) -> EmbeddingCertificate | None:
    """Exact subgraph-of-host decision with a part-assignment certificate.

    Searches over choices of part A only: vertices whose degree exceeds every
    B/C possibility are forced into A, and remaining slots are filled over
    twin-class count vectors (interchangeable vertices are never permuted).
    """
    if g.n != p.n:
        raise ValueError("embedding requires g.n == params.n")
    cap_b = p.a + p.b_size - 1
    cap_c = p.a + (1 if p.extra_edge_count else 0)
    non_a_cap = max(cap_b, cap_c) if p.n > p.a else -1
    forced = 0
    for v in range(g.n):
        if g.degree(v) > non_a_cap:
            forced |= 1 << v
    if forced.bit_count() > p.a:
        return None
    need = p.a - forced.bit_count()

    pool_classes = [
        [v for v in cls if not forced >> v & 1] for cls in twin_classes(g)
    ]
    pool_classes = [cls for cls in pool_classes if cls]
    attempts = 0

    def search(idx: int, remaining: int, amask: int):
        nonlocal attempts
        if remaining == 0:
            attempts += 1
            if attempts > budget:
                raise BudgetExceeded(f"embedding search exceeded {budget} attempts")
            return _try_assignment(g, p, amask)
        if idx == len(pool_classes):
            return None
        avail = len(pool_classes[idx])
        rest_avail = sum(len(c) for c in pool_classes[idx + 1 :])
        lo = max(0, remaining - rest_avail)
        for take in range(min(avail, remaining), lo - 1, -1):
            mask = amask
            for v in pool_classes[idx][:take]:
                mask |= 1 << v
            cert = search(idx + 1, remaining - take, mask)
            if cert is not None:
                return cert
        return None

    return search(0, need, forced)


# -- stability classification ----------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Threshold test plus embedding attempts for one graph."""

    kind: str  # "stability" | "matching_stability"
    n: int
    k: int
    r: int
    d: int
    clique_count: int
    threshold: int
    above_threshold: bool
    hypothesis_n_ok: bool  # the asymptotic regime; advisory at desk scale
    # no upper constraint is imposed on d; this flags when the degree term
    # h_r(n, k, d) is what the threshold max came from
    degree_term_dominates: bool
    min_degree: int
    nu: int | None
    attempts: tuple[tuple[ConstructionParams, EmbeddingCertificate | None], ...]

    @property
    def certificate(self) -> EmbeddingCertificate | None:
        for _, cert in self.attempts:
            if cert is not None:
                return cert
        return None

    @property
    def embedded(self) -> bool:
        return self.certificate is not None


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


@dataclass(frozen=True)
class StabilityFamily:
    """What tells theorem 4 from its matching application, theorem 7."""

    kind: str  # StabilityReport.kind
    min_k: int
    host_k: Callable[[int], int]  # k -> forest parameter K of the hosts
    base_a: Callable[[int], int]  # k -> a of the degree-free threshold term
    hosts: Callable[[int, int], list[ConstructionParams]]
    measure_nu: bool  # report the matching number

    def require_k(self, k: int, what: str) -> None:
        if k < self.min_k:
            name = self.kind.replace("_", " ")
            raise ValueError(f"{name} {what} needs k >= {self.min_k}")


LK_FREE = StabilityFamily(
    "stability", 5, lambda k: k, lambda k: (k - 5) // 2, listed_hosts, False
)
MATCHING = StabilityFamily(
    "matching_stability", 2, lambda k: 2 * k + 1, lambda k: k - 2,
    matching_hosts, True,
)


def family_threshold(family: StabilityFamily, n: int, k: int, r: int, d: int) -> int:
    family.require_k(k, "threshold")
    hk = family.host_k(k)
    return max(h_r(n, hk, d, r), h_r(n, hk, family.base_a(k), r))


def stability_threshold(n: int, k: int, r: int, d: int) -> int:
    return family_threshold(LK_FREE, n, k, r, d)


def matching_stability_threshold(n: int, k: int, r: int, d: int) -> int:
    return family_threshold(MATCHING, n, k, r, d)


def classify_family(
    family: StabilityFamily, g: Graph, k: int, r: int, d: int, budget: int
) -> StabilityReport:
    """Threshold test, then embedding attempts into the family's hosts."""
    n = g.n
    mind = min((g.degree(v) for v in range(n)), default=0)
    if mind < d:
        raise ValueError(f"min degree {mind} below required d = {d}")
    nu = matching_number(g).size if family.measure_nu else None
    nr = count_cliques(g, r)
    threshold = family_threshold(family, n, k, r, d)
    above = nr > threshold
    attempts: list[tuple[ConstructionParams, EmbeddingCertificate | None]] = []
    if above:
        for p in family.hosts(n, k):
            attempts.append((p, embeds_in_host(g, p, budget=budget)))
    hk = family.host_k(k)
    return StabilityReport(
        family.kind, n, k, r, d, nr, threshold, above,
        n > hk**5, threshold == h_r(n, hk, d, r),
        mind, nu, tuple(attempts),
    )


def classify_stability(
    g: Graph, k: int, r: int, d: int, budget: int = EMBED_BUDGET
) -> StabilityReport:
    """Threshold test, then embedding attempts into the listed hosts.

    Assumes g is L_k-free with min degree >= d (the caller's obligation; the
    min degree is rechecked).  The asymptotic-size hypothesis is reported,
    not enforced, since desk-scale runs intentionally sit below it.
    """
    return classify_family(LK_FREE, g, k, r, d, budget)


def classify_matching_stability(
    g: Graph, k: int, r: int, d: int, budget: int = EMBED_BUDGET
) -> StabilityReport:
    """Matching-bound analogue of classify_stability.

    The matching number is computed and reported; a graph with nu > k is
    outside the theorem's hypothesis, so no conclusion is claimed for it
    (the threshold and attempts are still reported for inspection).
    """
    return classify_family(MATCHING, g, k, r, d, budget)
