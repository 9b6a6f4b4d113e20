"""Input-range checks of the library: each refusal and its message."""

import pytest

from linfor import (
    CliqueVector,
    ConstructionParams,
    Graph,
    clique_bound_from_edges,
    count_cliques,
    disjoint_union,
    edges_between,
    host_clique_count,
    induced_subgraph,
    posa_clique_bound,
    real_binomial,
)
from linfor.graphcore import pair_index
from linfor.verify.theorems import TheoremReport, check_input_graph

P3 = Graph.path(3)


@pytest.mark.parametrize("call, message", [
    (lambda: CliqueVector((1,)).count(0), "r must be at least 1"),
    (lambda: count_cliques(P3, 0), "r must be at least 1"),
    (lambda: ConstructionParams(8, 5, 2, "x"), "unknown variant 'x'"),
    (lambda: ConstructionParams(8, 5, -1), "part A has negative size"),
    (lambda: host_clique_count(ConstructionParams(8, 5, 2), 0), "r must be at least 1"),
    (lambda: clique_bound_from_edges(-1, 3), "negative edge count"),
    (lambda: pair_index(2, 2), "self-loop has no edge index"),
    (lambda: Graph.from_edges(3, [(0, 3)]), "edge (0, 3) outside vertex range"),
    (lambda: Graph.cycle(2), "cycle needs at least 3 vertices"),
    (lambda: P3.with_edge(1, 1), "self-loop"),
    (lambda: disjoint_union(Graph.empty(40), Graph.empty(25)),
     "union exceeds dense vertex cap"),
    (lambda: edges_between(P3, 0b1000, 0b1), "vertex set outside graph"),
    (lambda: induced_subgraph(P3, 0b1001), "vertex set outside graph"),
    (lambda: posa_clique_bound(5, -1, 1, 2), "arguments must be nonnegative"),
    (lambda: TheoremReport("theorem1", 3, 2, 2, None, "x", 0, 0).verdict,
     "unknown report kind 'x'"),
    (lambda: check_input_graph(Graph.empty(8), "theorem4", 7, 2),
     "input-graph mode does not support theorem4"),
], ids=["clique_vector_r0", "count_cliques_r0", "variant_x", "a_negative",
        "host_clique_count_r0", "edges_negative", "pair_index_loop",
        "from_edges_range", "cycle_2", "with_edge_loop", "union_past_cap",
        "edges_between_outside", "induced_outside", "posa_negative",
        "verdict_kind", "input_theorem4"])
def test_refused_with_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_real_binomial_below_zero():
    # C(x, r) = 0 for r < 0, as binomial gives for integer x
    assert real_binomial(2.5, -1) == 0.0
