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

from ..cliques import count_cliques
# the host lists live with the constructions and are re-exported here
from ..constructions import ConstructionParams, h_r, listed_hosts, matching_hosts
from ..forests import BudgetExceeded, matching_number, twin_classes
from ..graphcore import Graph, _touching, iter_bits
from .theorems import LK_FREE, MATCHING, Family

EMBED_BUDGET = 200_000


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Host parameters, the A and B vertex masks (C is the rest) and extra C-edges."""

    params: ConstructionParams
    a_mask: int
    b_mask: int
    extra_edges: tuple[tuple[int, int], ...]

    @property
    def parts(self) -> tuple[str, ...]:
        """'A' | 'B' | 'C' per vertex, read from the masks."""
        return tuple(
            "A" if self.a_mask >> v & 1 else "B" if self.b_mask >> v & 1 else "C"
            for v in range(self.params.n)
        )


def validate_embedding(g: Graph, cert: EmbeddingCertificate) -> bool:
    """Check the certificate against its invariants on g."""
    p = cert.params
    n = g.n
    amask, bmask = cert.a_mask, cert.b_mask
    # a negative mask shifts down to -1, like one with a bit at or above n
    if n != p.n or (amask | bmask) >> n or amask & bmask:
        return False
    cmask = g.vertex_mask() ^ amask ^ bmask
    if amask.bit_count() != p.a or bmask.bit_count() != p.b_size:
        return False
    if len(cert.extra_edges) > p.extra_edge_count:
        return False
    paired = 0
    for u, v in cert.extra_edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return False
        pair = 1 << u | 1 << v
        if pair & ~cmask or pair & paired:
            return False  # extra edges join C vertices and are independent
        if (g.adj[u] | g.adj[v]) & cmask & ~pair:
            return False  # each end's only C-neighbour is the other
        paired |= pair
    # by symmetry, B rows stay in A ∪ B and unpaired C rows in A exactly
    # when no C vertex has a neighbour in B or among the unpaired C vertices
    return not _touching(g.adj, bmask | cmask & ~paired) & cmask


def host_label(p: ConstructionParams) -> str:
    return f"H{'+' * p.extra_edge_count}({p.n},{p.k},{p.a})"


def _try_assignment(g: Graph, p: ConstructionParams, amask: int):
    rest = g.vertex_mask() ^ amask
    # the rest vertices with a rest neighbour: exactly the vertices of the
    # components of g - A with two vertices or more
    covered = _touching(g.adj, rest) & rest
    # a K_2 component of g - A is a pair v < u of covered vertices, each the
    # other's only neighbour outside A; the lowest pairs become extra C-edges
    pairs = []
    if p.extra_edge_count:
        for v in iter_bits(covered):
            nbr = g.adj[v] & rest
            u = nbr.bit_length() - 1
            if nbr == 1 << u and u > v and g.adj[u] & rest == 1 << v:
                pairs.append((v, u))
                if len(pairs) == p.extra_edge_count:
                    break
    # the pairs are disjoint, so the sum of their masks is their union; B
    # takes all the other covered vertices
    bmask = covered - sum(1 << v | 1 << u for v, u in pairs)
    if bmask.bit_count() > p.b_size:
        return None
    # pad B with isolated rest vertices, lowest index first
    spare = rest & ~covered
    for _ in range(p.b_size - bmask.bit_count()):
        low = spare & -spare
        bmask |= low
        spare ^= low
    cert = EmbeddingCertificate(p, amask, bmask, tuple(pairs))
    if not validate_embedding(g, cert):
        raise RuntimeError(f"embedding certificate failed validation: {cert}")
    return cert


def _a_sets(classes: list[list[int]], idx: int, remaining: int, amask: int):
    """A-sets filling the remaining slots from classes[idx:], taking the most
    vertices of each class first."""
    if remaining == 0:
        yield amask
        return
    # the pool holds at least `remaining` vertices, and lo makes the last
    # class take whatever is left, so idx never runs past the classes
    rest_avail = sum(len(c) for c in classes[idx + 1 :])
    lo = max(0, remaining - rest_avail)
    for take in range(min(len(classes[idx]), remaining), lo - 1, -1):
        mask = amask
        for v in classes[idx][:take]:
            mask |= 1 << v
        yield from _a_sets(classes, idx + 1, remaining - take, mask)


def embeds_in_host(
    g: Graph, p: ConstructionParams, budget: int = EMBED_BUDGET
) -> EmbeddingCertificate | None:
    """Exact subgraph-of-host decision with a part-assignment certificate.

    Searches over choices of part A only: vertices whose degree exceeds every
    B/C possibility are forced into A, and remaining slots are filled over
    twin-class count vectors (interchangeable vertices are never permuted).
    Twin classes are computed only when a slot is left to fill.  For each
    A-set the extra C-edges are sought first, as the lowest pairs that are
    each other's sole neighbour outside A; the A-set is refused when B cannot
    hold the other vertices outside A that have a neighbour outside A.
    """
    if g.n != p.n:
        raise ValueError("embedding requires g.n == params.n")
    cap_b = p.a + p.b_size - 1
    cap_c = p.a + (1 if p.extra_edge_count else 0)
    non_a_cap = max(cap_b, cap_c) if p.n > p.a else -1
    forced = 0
    for v, row in enumerate(g.adj):
        if row.bit_count() > non_a_cap:
            forced |= 1 << v
    if forced.bit_count() > p.a:
        return None
    need = p.a - forced.bit_count()
    if need == 0 and budget >= 1:
        # the forced vertices are the only A-set
        return _try_assignment(g, p, forced)

    pool_classes = [
        [v for v in cls if not forced >> v & 1] for cls in twin_classes(g)
    ]
    pool_classes = [cls for cls in pool_classes if cls]
    for attempts, amask in enumerate(_a_sets(pool_classes, 0, need, forced), 1):
        if attempts > budget:
            raise BudgetExceeded(
                f"embedding an n = {g.n} graph into {host_label(p)} with"
                f" {forced.bit_count()} forced A vertices and"
                f" {len(pool_classes)} pool twin classes"
                f" exceeded {budget} attempts"
            )
        cert = _try_assignment(g, p, amask)
        if cert is not None:
            return cert
    return None


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


def family_threshold(family: Family, n: int, k: int, r: int, d: int) -> int:
    family.require_k(k, "threshold")
    return family.formula(n, k, r, d, family.stability_a(k))


def stability_threshold(n: int, k: int, r: int, d: int) -> int:
    return family_threshold(LK_FREE, n, k, r, d)


def matching_stability_threshold(n: int, k: int, r: int, d: int) -> int:
    return family_threshold(MATCHING, n, k, r, d)


def _min_degree_at_least(g: Graph, d: int) -> int:
    """g's min degree; ValueError when it is below d."""
    mind = min((row.bit_count() for row in g.adj), default=0)
    if mind < d:
        raise ValueError(f"min degree {mind} below required d = {d}")
    return mind


def _certifies(g: Graph, hosts: list[ConstructionParams], threshold: int, d: int) -> bool:
    """classify_family's `above_threshold and embedded` at r = 2, where N_2 is
    the edge count.  Hosts are tried in the order given up to the first
    certificate, so a later host cannot raise BudgetExceeded."""
    if d:
        _min_degree_at_least(g, d)
    if g.edge_count <= threshold:
        return False
    return any(embeds_in_host(g, p) is not None for p in hosts)


def classify_family(family: Family, g: Graph, k: int, r: int, d: int) -> StabilityReport:
    """Threshold test, then embedding attempts into the family's hosts at
    embeds_in_host's default budget."""
    n = g.n
    mind = _min_degree_at_least(g, d)
    nu = matching_number(g).size if family.measure_nu else None
    nr = count_cliques(g, r)
    threshold = family_threshold(family, n, k, r, d)
    above = nr > threshold
    attempts = tuple(
        (p, embeds_in_host(g, p)) for p in family.hosts(n, k)
    ) if above else ()
    hk = family.forest_k(k)
    return StabilityReport(
        family.kind, n, k, r, d, nr, threshold, above,
        n > hk**5, threshold == h_r(n, hk, d, r),
        mind, nu, attempts,
    )


def classify_stability(g: Graph, k: int, r: int, d: int) -> StabilityReport:
    """Threshold test, then embedding attempts into the listed hosts.

    Assumes g is L_k-free with min degree >= d (the caller's obligation; the
    min degree is rechecked).  The asymptotic-size hypothesis is reported,
    not enforced, since desk-scale runs intentionally sit below it.
    """
    return classify_family(LK_FREE, g, k, r, d)


def classify_matching_stability(g: Graph, k: int, r: int, d: int) -> StabilityReport:
    """Matching-bound analogue of classify_stability.

    The matching number is computed and reported; a graph with nu > k is
    outside the theorem's hypothesis, so no conclusion is claimed for it
    (the threshold and attempts are still reported for inspection).
    """
    return classify_family(MATCHING, g, k, r, d)
