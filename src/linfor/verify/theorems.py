"""Brute-force reproduction of the extremal clique-count theorems.

Each checker compares an exhaustive oracle (max clique count over all labeled
graphs with the stated property) against the closed-form right-hand side and
records extremal witnesses as graph6 strings.  Witness lists are capped and
deterministic: graphs are scanned in ascending edge-mask order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cliques import count_cliques
from ..constructions import h_r
from ..forests import DEFAULT_BUDGET, is_lk_free, matching_number
from ..graphcore import Graph, to_graph6
from .enumerate import ENUMERATION_CEILING, enumerate_graphs
from .profile import graph_profiles

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


def _witness_strings(n: int, masks: np.ndarray) -> tuple[str, ...]:
    return tuple(to_graph6(Graph.from_edge_mask(n, int(m))) for m in masks)


def _oracle_max(prof, r, elig, d):
    """Max N_r over the masks in elig with min degree >= d, with the first
    WITNESS_CAP maximizing graphs in ascending mask order."""
    if d:
        elig &= prof.mindeg >= d
    vals = prof.cliques(r)
    best = int(vals[elig].max())
    hits = vals == best
    hits &= elig
    return best, _witness_strings(prof.n, np.flatnonzero(hits)[:WITNESS_CAP])


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
    if n < k + 1:
        raise ValueError("oracle needs n >= k + 1")
    if n > ENUMERATION_CEILING:
        raise ValueError(f"enumeration ceiling is n = {ENUMERATION_CEILING}")
    if r < 1 or k < 1:
        raise ValueError("r and k must be positive")
    d = min_degree
    half = (k - 1) // 2
    if d is not None and not 0 <= d <= half:
        raise ValueError("min degree must lie in 0..floor((k-1)/2)")
    formula = max(h_r(n, k, d or 0, r), h_r(n, k, half, r))

    if dedup:
        oracle, witnesses = _oracle_max_dedup(
            n, r, lambda g: _lk_free_mindeg(g, k, d)
        )
    else:
        prof = graph_profiles(n)
        oracle, witnesses = _oracle_max(prof, r, prof.lf <= k - 1, d)

    theorem = ("theorem1" if r == 2 else "theorem2") if d is None else "theorem3"
    kind = "equality" if d is None else "bound"
    return TheoremReport(theorem, n, k, r, d, kind, formula, oracle, witnesses)


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
    if k < 1:
        raise ValueError("matching bound k must be positive")
    d = min_degree
    if d is None:
        if n < 2 * k + 1:
            raise ValueError("matching oracle needs n >= 2k + 1")
    else:
        if n < 2 * k + 2:
            raise ValueError("the min-degree variant assumes n >= 2k + 2")
        if not 0 <= d <= k:
            raise ValueError("min degree must lie in 0..k")
    if n > ENUMERATION_CEILING:
        raise ValueError(f"enumeration ceiling is n = {ENUMERATION_CEILING}")
    formula = max(h_r(n, 2 * k + 1, d or 0, r), h_r(n, 2 * k + 1, k, r))

    if dedup:
        oracle, witnesses = _oracle_max_dedup(
            n, r, lambda g: _matching_mindeg(g, k, d)
        )
    else:
        prof = graph_profiles(n)
        oracle, witnesses = _oracle_max(prof, r, prof.nu <= k, d)

    theorem = ("theorem5" if r == 2 else "theorem6") if d is None else "theorem6"
    kind = "equality" if theorem == "theorem5" else "bound"
    return TheoremReport(theorem, n, k, r, d, kind, formula, oracle, witnesses)


# -- slow reference paths ---------------------------------------------------


def _lk_free_mindeg(
    g: Graph, k: int, d: int | None, budget: int = DEFAULT_BUDGET
) -> bool:
    if d is not None and any(g.degree(v) < d for v in range(g.n)):
        return False
    return is_lk_free(g, k, budget=budget)


def _matching_mindeg(g: Graph, k: int, d: int | None) -> bool:
    if d is not None and any(g.degree(v) < d for v in range(g.n)):
        return False
    return matching_number(g).size <= k


def _oracle_max_dedup(n, r, predicate):
    """Per-graph oracle over canonical representatives only."""
    if n > 6:
        raise ValueError("dedup oracle is practical only for n <= 6")
    best = -1
    witnesses: list[str] = []
    for g in enumerate_graphs(n, dedup=True):
        if not predicate(g):
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
    explanatory note (the claim is vacuous for it).  ``budget`` caps the
    states of the L_k-freeness search; past it BudgetExceeded is raised.
    """
    n = g.n
    if theorem in ("theorem1", "theorem2", "theorem3"):
        half = (k - 1) // 2
        formula = max(h_r(n, k, d or 0, r), h_r(n, k, half, r))
        hyp = _lk_free_mindeg(g, k, d, budget)
        hyp_name = "L_k-free" if d is None else f"L_k-free with min degree {d}"
    elif theorem in ("theorem5", "theorem6"):
        formula = max(h_r(n, 2 * k + 1, d or 0, r), h_r(n, 2 * k + 1, k, r))
        hyp = _matching_mindeg(g, k, d)
        hyp_name = f"matching number <= {k}"
        if d is not None:
            hyp_name += f" with min degree {d}"
    else:
        raise ValueError(f"input-graph mode does not support {theorem}")
    if not hyp:
        return TheoremReport(
            theorem, n, k, r, d, "bound", formula, 0, (to_graph6(g),),
            note=f"hypothesis not met ({hyp_name}); vacuous",
        )
    val = count_cliques(g, r)
    return TheoremReport(
        theorem, n, k, r, d, "bound", formula, val, (to_graph6(g),),
        note="input graph",
    )
