"""Brute-force reproduction of the extremal clique-count theorems.

Each checker compares an exhaustive oracle (max clique count over all labeled
graphs with the stated property) against the closed-form right-hand side and
records extremal witnesses as graph6 strings.  Witness lists are capped and
deterministic: graphs are scanned in ascending edge-mask order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cliques import count_cliques
from ..constructions import ConstructionParams, h_r, listed_hosts, matching_hosts
from ..forests import DEFAULT_BUDGET, BudgetExceeded, _closed_lf, is_lk_free
from ..forests import matching_number, max_linear_forest
from ..graphcore import Graph, _graph6, to_graph6
from .enumerate import ENUMERATION_CEILING, enumerate_graphs
from .profile import clique_counts, graph_profiles, min_degrees, np

WITNESS_CAP = 16


@dataclass(frozen=True)
class TheoremReport:
    """One verified claim instance: formula vs. oracle plus witnesses."""

    theorem: str
    n: int
    k: int
    r: int
    d: int | None
    kind: str  # "equality" | "bound" | "exceeds"
    formula_value: int
    oracle_value: int
    witnesses: tuple[str, ...] = field(default=())
    note: str = ""

    @property
    def verdict(self) -> str:
        if self.kind == "equality":
            ok = self.oracle_value == self.formula_value
        elif self.kind == "bound":
            ok = self.oracle_value <= self.formula_value
        elif self.kind == "exceeds":
            ok = self.oracle_value > self.formula_value
        else:
            raise ValueError(f"unknown report kind {self.kind!r}")
        return "pass" if ok else "fail"


def _oracle_max(n, r, elig, d):
    """Max N_r over the masks in elig with min degree >= d, with the first
    WITNESS_CAP maximizing graphs in ascending mask order."""
    import numpy as np

    masks = np.flatnonzero(elig).astype(np.uint32)  # C(8, 2) = 28 bits
    if d:
        masks = masks[min_degrees(n, masks) >= d]
    vals = clique_counts(n, masks, r)
    best = int(vals.max())
    return best, tuple(_graph6(n, int(m)) for m in masks[vals == best][:WITNESS_CAP])


@dataclass(frozen=True)
class Family:
    """One hypothesis family of the extremal and stability results: the
    matching results are the L_K-free ones at K = 2k + 1, since matching
    number <= k rules out a linear forest of 2k + 1 edges.  Formulas, degree
    ranges and thresholds are derived from K.  The profile and graph tests
    and the host bound look linfor's functions up in this module when
    called, so names patched here see the calls; the L_k-free bound makes
    its matching inside forests, and calls max_linear_forest only on a host
    the A-set bracket leaves open.
    """

    forest_k: Callable[[int], int]  # k -> K
    profile_test: Callable[[int, int], np.ndarray]  # (n, k) -> mask
    graph_test: Callable[[Graph, int, int], bool]  # (g, k, budget)
    hypothesis: str  # for vacuous notes; {k} stands for k
    # stability classification
    kind: str  # StabilityReport.kind
    min_k: int
    hosts: Callable[[int, int], list[ConstructionParams]]  # (n, k)
    measure_nu: bool  # report the matching number
    # construction-side suite
    suite_theorem: str
    bound: Callable[[Graph, int, int], tuple[int, int]]  # (host, k, budget)
    bound_note: str
    breaks_note: str

    def max_d(self, k: int) -> int:
        return (self.forest_k(k) - 1) // 2

    def require_k(self, k: int, what: str) -> None:
        if k < self.min_k:
            name = self.kind.replace("_", " ")
            raise ValueError(f"{name} {what} needs k >= {self.min_k}")

    def stability_a(self, k: int) -> int:
        """a of the stability threshold's degree-free term: floor((K-5)/2)."""
        return (self.forest_k(k) - 5) // 2

    def formula(self, n: int, k: int, r: int, d: int | None, a: int | None = None):
        """max(h_r(n, K, d), h_r(n, K, a)); a is floor((K-1)/2) unless given."""
        hk, a = self.forest_k(k), self.max_d(k) if a is None else a
        return max(h_r(n, hk, d or 0, r), h_r(n, hk, a, r))

    def contains(self, g: Graph, k: int, d: int | None, budget: int) -> bool:
        """Whether g is in the family, with min degree >= d when d is given."""
        if d is not None and any(g.degree(v) < d for v in range(g.n)):
            return False
        return self.graph_test(g, k, budget)

    def check(
        self, theorem: str, n: int, k: int, r: int, d: int | None, least: int = 0
    ) -> None:
        """Raise ValueError unless k, r >= 1, 0 <= d <= floor((K-1)/2) and n is
        at least `least` and the formula's least n, K or K + 1 with d."""
        if k < 1 or r < 1:
            raise ValueError(f"{theorem}: k and r must be positive")
        if d is not None and not 0 <= d <= self.max_d(k):
            raise ValueError(f"{theorem}: min degree must lie in 0..{self.max_d(k)}")
        least = max(least, self.forest_k(k) + (d is not None))
        if n < least:
            raise ValueError(f"{theorem} needs n >= {least}, got n = {n}")


def _lk_bound(host: Graph, k: int, budget: int) -> tuple[int, int]:
    """(k - 1, lf(host)); only a search the bracket leaves open reads budget."""
    lf = _closed_lf(host)
    return k - 1, max_linear_forest(host, budget=budget).size if lf is None else lf


LK_FREE = Family(
    lambda k: k, lambda n, k: graph_profiles(n, 2) < k,
    lambda g, k, budget: is_lk_free(g, k, budget=budget), "L_k-free",
    "stability", 5, listed_hosts, False, "theorem4", _lk_bound,
    "exact max linear forest <= k-1", "freeness",
)
MATCHING = Family(
    lambda k: 2 * k + 1, lambda n, k: graph_profiles(n, 1) <= k,
    lambda g, k, budget: matching_number(g).size <= k, "matching number <= {k}",
    "matching_stability", 2, matching_hosts, True, "theorem7",
    lambda host, k, budget: (k, matching_number(host).size),
    "matching number <= k", "matching bound",
)

# oracle theorem -> (family, kind, takes r != 2, takes a min degree, default
# r, default max n); an oracle row is labelled with the first theorem of its
# family that takes its r and d
ORACLE_THEOREMS = {
    "theorem1": (LK_FREE, "equality", False, False, 2, 6),
    "theorem2": (LK_FREE, "equality", True, False, 3, 6),
    "theorem3": (LK_FREE, "bound", True, True, 2, 6),
    "theorem5": (MATCHING, "equality", False, False, 2, 7),
    "theorem6": (MATCHING, "bound", True, True, 3, 7),
}


def family_report(
    family: Family, n: int, r: int, k: int, min_degree: int | None = None,
    dedup: bool = False,
) -> TheoremReport:
    """Max N_r over the family's graphs on n vertices (with min degree >= d
    when d is given) against the extremal formula.  A BudgetExceeded from a
    family test is raised again naming the theorem, n, k, r and d."""
    d = min_degree
    theorem, kind = next(
        (theorem, kind)
        for theorem, (f, kind, any_r, with_d, *_) in ORACLE_THEOREMS.items()
        if f is family and (any_r or r == 2) and (with_d or d is None)
    )
    # the oracle starts at n = k + 1, past the formula's least n for theorems
    # 1 and 2, where every graph on k vertices is L_k-free
    family.check(theorem, n, k, r, d, least=k + 1)
    if n > ENUMERATION_CEILING:
        raise ValueError(f"enumeration ceiling is n = {ENUMERATION_CEILING}")
    try:
        if dedup:
            oracle, witnesses = _oracle_max_dedup(family, n, r, k, d)
        else:
            oracle, witnesses = _oracle_max(n, r, family.profile_test(n, k), d)
    except BudgetExceeded as exc:
        where = f"{theorem} at n = {n}, k = {k}, r = {r}, d = {d}"
        raise BudgetExceeded(f"{where}: {exc}") from exc
    formula = family.formula(n, k, r, d)
    return TheoremReport(theorem, n, k, r, d, kind, formula, oracle, witnesses)


def brute_ex(
    n: int,
    r: int,
    k: int,
    min_degree: int | None = None,
    threads: int = 1,
    dedup: bool = False,
) -> TheoremReport:
    """Max N_r over L_k-free graphs (optionally with min degree) vs. formula.

    Without min_degree this reproduces the L_k-free extremal counts (edge
    case r = 2 is the classical one); with min_degree d it checks the
    degree-constrained bound max{h_r(n,k,d), h_r(n,k,floor((k-1)/2))}.
    `threads` is accepted for compatibility and has no effect.
    """
    return family_report(LK_FREE, n, r, k, min_degree, dedup)


def brute_ex_matching(
    n: int,
    r: int,
    k: int,
    min_degree: int | None = None,
    threads: int = 1,
    dedup: bool = False,
) -> TheoremReport:
    """Max N_r over graphs with matching number <= k vs. the h_r formula.

    Without min_degree this is the classical matching bound (equality at
    r = 2); with min_degree d the generalized clique version, which assumes
    n >= 2k + 2.  `threads` is accepted for compatibility and has no effect.
    """
    return family_report(MATCHING, n, r, k, min_degree, dedup)


# -- second oracle ----------------------------------------------------------


def _oracle_max_dedup(family, n, r, k, d):
    """Per-graph oracle over one graph per isomorphism class."""
    best = -1
    witnesses: list[str] = []
    for g in enumerate_graphs(n, dedup=True):
        if not family.contains(g, k, d, DEFAULT_BUDGET):
            continue
        val = count_cliques(g, r)
        if val > best:
            best = val
            witnesses = []
        if val == best and len(witnesses) < WITNESS_CAP:
            witnesses.append(to_graph6(g))
    return best, tuple(witnesses)


def check_input_graph(
    g: Graph,
    theorem: str,
    k: int,
    r: int,
    d: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> TheoremReport:
    """Check one externally supplied graph against a theorem's bound.

    A graph that fails the theorem's hypothesis yields a passing row with an
    explanatory note (the claim is vacuous for it).  k, r and d must lie in
    the oracle's ranges and n must be at least K, or K + 1 with a min
    degree, where the formula is stated; otherwise ValueError is raised.
    ``budget`` caps the states of the L_k-freeness search of theorems 1-3;
    past it BudgetExceeded is raised.  Theorems 5 and 6 do not read it: their
    test is an exact blossom matching.
    """
    n = g.n
    if theorem not in ORACLE_THEOREMS:
        raise ValueError(f"input-graph mode does not support {theorem}")
    family = ORACLE_THEOREMS[theorem][0]
    family.check(theorem, n, k, r, d)
    if family.contains(g, k, d, budget):
        val, note = count_cliques(g, r), "input graph"
    else:
        hyp = family.hypothesis.format(k=k)
        if d is not None:
            hyp += f" with min degree {d}"
        val, note = 0, f"hypothesis not met ({hyp}); vacuous"
    return TheoremReport(
        theorem, n, k, r, d, "bound", family.formula(n, k, r, d), val,
        (to_graph6(g),), note=note,
    )
