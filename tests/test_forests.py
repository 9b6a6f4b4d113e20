"""Linear-forest and matching oracles, and the bounded-degree extremal counts."""

import gc
import hashlib
import random

import pytest

from linfor import (
    BudgetExceeded,
    ConstructionParams,
    Graph,
    build_host,
    canonical_graph,
    count_cliques,
    disjoint_union,
    g_extremal,
    is_linear_forest,
    is_lk_free,
    matching_number,
    max_linear_forest,
)
from linfor.canon import refined_canonical_key
from linfor.verify import graph_profiles
from linfor.verify.stability import listed_hosts

from .oracles import lf_edge_subsets, lf_subset_dp, matching_subset_dp

# sha256 of repr([(size, witness), ...]) over the graphs of
# test_witnesses_match_pinned_digests, captured when the witness was rebuilt
# by replaying the search's transitions instead of following stored moves
PINNED_WITNESS_DIGESTS = {
    "random": "406fb8f1a01202d2779c3be0d23e771ab1b0e07993eaab58d368e6c391dd0a10",
    "hosts": "da48afabbf03f51885caae9cee40276527b8cb5aaf9715652ba011247b568b3c",
}


def random_graph(n, rng, p=0.5):
    return Graph.from_edges(
        n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    )


class TestMaxLinearForest:
    def test_hand_values(self):
        assert max_linear_forest(Graph.complete(4)).size == 3
        assert max_linear_forest(Graph.cycle(5)).size == 4
        assert max_linear_forest(Graph.star(5)).size == 2
        assert max_linear_forest(Graph.empty(4)).size == 0

    def test_witness_is_a_linear_forest_of_stated_size(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(0, 9)
            g = random_graph(n, rng, rng.random())
            res = max_linear_forest(g)
            assert len(res.witness) == res.size
            assert is_linear_forest(n, list(res.witness))
            assert all(g.has_edge(u, v) for u, v in res.witness)

    def test_edge_subset_oracle_exhaustive_tiny(self):
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                assert max_linear_forest(g).size == lf_edge_subsets(g)

    def test_subset_dp_oracle_random(self):
        rng = random.Random(29)
        for _ in range(250):
            n = rng.randint(1, 9)
            g = random_graph(n, rng, rng.random())
            assert max_linear_forest(g).size == lf_subset_dp(g)

    def test_deterministic_witness(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(8, rng)
            assert max_linear_forest(g).witness == max_linear_forest(g).witness

    def test_witnesses_match_pinned_digests(self):
        rng = random.Random(61)
        graphs = {
            "random": [
                random_graph(rng.randint(0, 12), rng, rng.random()) for _ in range(150)
            ],
            "hosts": [
                build_host(p) for k in range(5, 10) for p in listed_hosts(24, k)
            ],
        }
        got = {}
        for name, gs in graphs.items():
            res = [(r.size, r.witness) for r in map(max_linear_forest, gs)]
            got[name] = hashlib.sha256(repr(res).encode()).hexdigest()
        assert got == PINNED_WITNESS_DIGESTS

    def test_large_symmetric_hosts_within_default_budget(self):
        host = build_host(ConstructionParams(40, 9, 4))
        assert max_linear_forest(host).size == 8

    def test_budget_exceeded_is_distinct(self):
        g = random_graph(16, random.Random(2), 0.6)
        with pytest.raises(BudgetExceeded, match="budget of 50 states"):
            max_linear_forest(g, budget=50)

    def test_additive_over_disjoint_union(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng.randint(1, 6), rng)
            h = random_graph(rng.randint(1, 6), rng)
            assert (
                max_linear_forest(disjoint_union(g, h)).size
                == max_linear_forest(g).size + max_linear_forest(h).size
            )


class TestIsLkFree:
    def test_hand_values(self):
        assert is_lk_free(Graph.complete(5), 5)
        assert not is_lk_free(Graph.cycle(5), 4)
        assert is_lk_free(build_host(ConstructionParams(6, 3, 1)), 3)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            is_lk_free(Graph.empty(2), 0)

    def test_small_matching_number_forces_freeness(self):
        # a graph with matching number <= k has no linear forest of 2k+1 edges
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng, rng.random())
            nu = matching_number(g).size
            assert is_lk_free(g, 2 * nu + 1)

    def test_matches_profile_table_exhaustive(self):
        # the profile's lf comes from its own edge-addition search
        for n in range(6):
            prof = graph_profiles(n)
            for mask in range(prof.count):
                g = Graph.from_edge_mask(n, mask)
                for k in range(1, n + 2):
                    assert is_lk_free(g, k) == (prof.lf[mask] <= k - 1), (n, mask, k)

    def test_matches_profile_table_sampled(self):
        rng = random.Random(67)
        for n in (6, 7):
            prof = graph_profiles(n)
            for mask in rng.sample(range(prof.count), 400):
                g = Graph.from_edge_mask(n, mask)
                for k in range(1, n + 1):
                    assert is_lk_free(g, k) == (prof.lf[mask] <= k - 1), (n, mask, k)

    def test_budget_exceeded_when_bracket_leaves_it_open(self):
        # K_4: nu = 2 <= lf = 3 <= 2 nu = 4, so k = 4 needs the search
        g = Graph.complete(4)
        assert is_lk_free(g, 4)
        with pytest.raises(BudgetExceeded, match="k = 4 exceeded its budget of 1 states"):
            is_lk_free(g, 4, budget=1)

    def test_forest_at_least_matching(self):
        rng = random.Random(43)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng, rng.random())
            assert max_linear_forest(g).size >= matching_number(g).size


def _sample_graph():
    return random_graph(11, random.Random(3), 0.4)


NO_CYCLE_CALLS = {
    "max_linear_forest": lambda: max_linear_forest(_sample_graph()),
    "is_lk_free": lambda: [is_lk_free(_sample_graph(), k) for k in range(1, 12)],
    "is_lk_free_search": lambda: is_lk_free(Graph.complete(4), 4),
    "count_cliques": lambda: count_cliques(_sample_graph(), 3),
    "canonical_graph": lambda: canonical_graph(_sample_graph()),
    "refined_canonical_key": lambda: refined_canonical_key(11, _sample_graph().adj),
    "g_extremal": lambda: g_extremal(3, 3),
}


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", NO_CYCLE_CALLS)
    def test_call_leaves_no_cycles(self, name):
        gc.collect()
        gc.disable()
        try:
            NO_CYCLE_CALLS[name]()
        finally:
            freed = gc.collect()
            gc.enable()
        assert freed == 0


class TestMatching:
    def test_hand_values(self):
        assert matching_number(Graph.cycle(5)).size == 2
        assert matching_number(Graph.complete(4)).size == 2
        assert matching_number(Graph.star(5)).size == 1

    def test_witness_disjoint_edges(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randint(0, 10)
            g = random_graph(n, rng, rng.random())
            res = matching_number(g)
            seen = set()
            for u, v in res.witness:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))
            assert len(res.witness) == res.size

    def test_subset_dp_oracle(self):
        rng = random.Random(53)
        for _ in range(300):
            n = rng.randint(0, 10)
            g = random_graph(n, rng, rng.random())
            assert matching_number(g).size == matching_subset_dp(g)

    def test_blossom_heavy_cases(self):
        # odd cycles glued at a vertex exercise contraction
        g = Graph.from_edges(
            9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 8), (8, 6)]
        )
        assert matching_number(g).size == matching_subset_dp(g)


class TestGExtremal:
    def test_known_values(self):
        assert g_extremal(1, 2)[0] == 1
        assert g_extremal(2, 2)[0] == 3

    def test_k4_sharpness(self):
        edges, witness = g_extremal(3, 3)
        assert edges == 6
        assert witness.n == 4 and witness.edge_count == 6  # K_4

    def test_star_beats_path_composition(self):
        # max degree 4 admits the 4-leaf star at forest budget 2
        assert g_extremal(2, 4)[0] == 4

    def test_degenerate_parameters(self):
        assert g_extremal(0, 3)[0] == 0
        assert g_extremal(4, 0)[0] == 0
        assert g_extremal(3, 1)[0] == 3  # disjoint edges only

    def test_witness_consistency(self):
        for k, delta in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
            edges, witness = g_extremal(k, delta)
            assert witness.edge_count == edges
            assert max_linear_forest(witness).size <= k
            assert all(witness.degree(v) <= delta for v in range(witness.n))

    def test_bounds_against_caps(self):
        for k in range(1, 6):
            assert g_extremal(k, 2)[0] <= 3 * k // 2
            for delta in (3, 4):
                assert g_extremal(k, delta)[0] <= k * (delta - 1)

    def test_degree_two_closed_form(self):
        # triangles plus one edge for odd budgets attain 3k/2 exactly
        for k in range(2, 7):
            assert g_extremal(k, 2)[0] == 3 * k // 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            g_extremal(7, 3)
        with pytest.raises(ValueError):
            g_extremal(3, 5)
