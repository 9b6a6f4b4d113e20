"""Property-based checks of the structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from linfor import (
    Graph,
    Graph6Error,
    disjoint_union,
    edges_between,
    induced_subgraph,
    is_lk_free,
    k_closure,
    matching_number,
    max_linear_forest,
    parse_graph6,
    to_graph6,
)
from linfor.forests import _child_lf_bracket, _forest_paths

from .oracles import is_matching_in, lf_subset_dp, tutte_berge_bound


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    return Graph.from_edge_mask(n, mask)


@given(graphs(max_n=20))
def test_graph6_roundtrip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(st.text())
def test_graph6_parse_rejects_or_reads_printable_ascii(text):
    try:
        parse_graph6(text)
    except Graph6Error:
        return
    record = text.strip().removeprefix(">>graph6<<")
    assert all(63 <= ord(c) <= 126 for c in record)


@given(graphs(), st.data())
def test_edges_between_symmetric(g, data):
    s = data.draw(st.integers(min_value=0, max_value=g.vertex_mask()))
    t = data.draw(st.integers(min_value=0, max_value=g.vertex_mask()))
    assert edges_between(g, s, t) == edges_between(g, t, s)


@settings(max_examples=60)
@given(graphs(max_n=7), graphs(max_n=6))
def test_forest_size_additive_over_union(g, h):
    assert (
        max_linear_forest(disjoint_union(g, h)).size
        == max_linear_forest(g).size + max_linear_forest(h).size
    )


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_matching_is_a_linear_forest(g):
    assert max_linear_forest(g).size >= matching_number(g).size


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=64))
def test_matching_number_certified_on_both_sides(g):
    # Gallai-Edmonds: D holds the vertices some maximum matching misses and
    # U = N(D) \ D; the Tutte-Berge bound at U is tight, so nu is met by the
    # witness from below and by the oracle's component count from above
    result = matching_number(g)
    d_set = [
        v for v in range(g.n)
        if matching_number(induced_subgraph(g, g.vertex_mask() ^ 1 << v)).size
        == result.size
    ]
    around = 0
    for v in d_set:
        around |= g.adj[v]
    u_set = [u for u in range(g.n) if around >> u & 1 and u not in d_set]
    assert len(result.witness) == result.size
    assert is_matching_in(g, result.witness)
    assert tutte_berge_bound(g, u_set) == result.size


@settings(max_examples=60)
@given(graphs(max_n=8), st.integers(min_value=1, max_value=10))
def test_closure_idempotent_and_degree_safe(g, k):
    c = k_closure(g, k)
    assert k_closure(c, k) == c
    for v in range(g.n):
        assert c.adj[v] & g.adj[v] == g.adj[v]


@settings(max_examples=40)
@given(graphs(max_n=7), st.integers(min_value=1, max_value=9))
def test_closure_preserves_forest_freeness(g, k):
    assert is_lk_free(g, k) == is_lk_free(k_closure(g, k), k)


@settings(max_examples=80)
@given(graphs(max_n=10), st.integers(min_value=1, max_value=10))
def test_freeness_decision_matches_forest_size(g, k):
    assert is_lk_free(g, k) == (max_linear_forest(g).size <= k - 1)


@settings(max_examples=80)
@given(graphs(max_n=9).filter(lambda g: g.n >= 1))
def test_parent_bracket_holds_lf(g):
    # g is its first n - 1 vertices (the parent) plus its last vertex
    v = g.n - 1
    parent = Graph(v, tuple(row & ((1 << v) - 1) for row in g.adj[:v]))
    paths = _forest_paths(v, max_linear_forest(parent))
    lo, hi = _child_lf_bracket(paths, g.adj[v])
    assert lo <= lf_subset_dp(g) <= hi
