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
    parse_graph6,
    to_graph6,
    twin_classes,
)
from linfor import forests
from linfor.canon import refined_canonical_key
from linfor.forests import DEFAULT_BUDGET
from linfor.graphcore import MAX_VERTICES, iter_bits
from linfor.verify import graph_profiles
from linfor.verify import embeds_in_host, enumerate_graphs, stability_suite
from linfor.verify.stability import listed_hosts, matching_hosts
from linfor.verify.suite import _forbidden_edges
from linfor.verify.theorems import LK_FREE, MATCHING

from .extremal_grid import extremal_grid
from .oracles import (
    chvatal_hanson,
    degree_capped_holds,
    degree_capped_max,
    forest_upper_bound,
    has_disjoint_edges,
    lf_edge_subsets,
    lf_subset_dp,
    matching_knapsack,
    matching_subset_dp,
    twin_classes_naive,
)

# sha256 of repr([(size, witness), ...]) over the graphs of
# test_witnesses_match_pinned_digests, captured when the witness was rebuilt
# by replaying the search's transitions instead of following stored moves
PINNED_WITNESS_DIGESTS = {
    "random": "406fb8f1a01202d2779c3be0d23e771ab1b0e07993eaab58d368e6c391dd0a10",
    "hosts": "da48afabbf03f51885caae9cee40276527b8cb5aaf9715652ba011247b568b3c",
}


# sha256 of repr([(size, witness), ...]) of matching_number over the graphs
# of _matching_pin_graphs, captured before the blossom search skipped the
# vertices of failed searches' alternating trees
PINNED_MATCHING_DIGESTS = {
    "random": "68c7024bca036906c86028da4c291b70b1effea56c9203409c94f64b8f433999",
    "hosts": "4f4847276db56c027d36a2288576f4fb68d9ad6b1babf0241ff8057515c64489",
    "perturbed": "d86ddfb680326bb3696f67072fe9b1e24db89f2bddcdbfda5cd2d4d63318eb85",
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

    @pytest.mark.parametrize("n, edges, expected", [
        (3, [(0, 0)], False),
        (3, [(0, 5)], False),
        (3, [(0, 1), (1, 0)], False),
        (4, [(0, 1), (0, 2), (0, 3)], False),
        (3, [(0, 1), (1, 2), (0, 2)], False),
        (4, [(0, 1), (1, 2), (2, 3)], True),
    ], ids=["loop", "end_past_n", "repeated_pair", "star_k13", "triangle",
            "path_p4"])
    def test_is_linear_forest_decides(self, n, edges, expected):
        assert is_linear_forest(n, edges) is expected

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


class TestForestSearch:
    def test_target_mode_against_oracle(self):
        # with an edge target k the search may stop early and starts at most
        # n - k paths, but its value reaches k exactly when lf does and below
        # k is the largest forest of at most n - k paths
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_graph(n, rng, rng.random())
            lf = lf_subset_dp(g)
            for k in range(1, n + 1):
                value = forests._ForestSearch(g, forests.DEFAULT_BUDGET, k).run()
                assert (value >= k) == (lf >= k), (g.adj, k)
                if value < k:
                    assert value == lf_edge_subsets(g, max_paths=n - k), (g.adj, k)

    def test_target_mode_against_profile_table(self):
        # the search alone, without the bracket or the greedy forest
        rng = random.Random(73)
        for n in range(7):
            lf = graph_profiles(n, 2)
            masks = range(len(lf)) if n <= 5 else rng.sample(range(len(lf)), 2000)
            for mask in masks:
                g = Graph.from_edge_mask(n, mask)
                for k in range(1, n + 2):
                    value = forests._ForestSearch(g, forests.DEFAULT_BUDGET, k).run()
                    assert (value >= k) == (lf[mask] >= k), (n, mask, k)

    @pytest.mark.parametrize("record, lf, states", [
        ("LEfgKRG_@zsAo@", 12, 4578),
        ("LGC@walJ??cGED", 11, 6341),
        ("LBh`GGAg?_??Pl", 11, 2755),
    ])
    def test_heaviest_input_check_records(self, record, lf, states):
        # the costliest records of the benchmark's n = 13 pool at k = 12; with
        # next to no twin symmetry a state is nearly a vertex subset and a
        # path end
        g = parse_graph6(record)
        assert max_linear_forest(g).size == lf_subset_dp(g) == lf
        search = forests._ForestSearch(g, forests.DEFAULT_BUDGET, 12)
        assert (search.run() >= 12) == (lf >= 12)
        assert len(search.memo) == states

    def test_packing_at_the_vertex_limit(self):
        # one twin class of 63 or 64 vertices fills the widest count field
        assert max_linear_forest(Graph.complete(MAX_VERTICES)).size == 63
        assert max_linear_forest(Graph.empty(MAX_VERTICES)).size == 0
        assert max_linear_forest(Graph.star(MAX_VERTICES - 1)).size == 2
        # every listed host for k is L_k-free with a (k - 1)-edge forest
        for k in (8, 9):
            hosts = listed_hosts(MAX_VERTICES, k)
            assert hosts
            for p in hosts:
                assert max_linear_forest(build_host(p)).size == k - 1, p


class TestTwinClasses:
    def test_pairwise_oracle_exhaustive(self):
        for n in range(7):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                assert twin_classes(g) == twin_classes_naive(g), (n, mask)

    def test_pairwise_oracle_on_hosts(self):
        for p in _host_params(30):
            g = build_host(p)
            assert twin_classes(g) == twin_classes_naive(g), p


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
            lf = graph_profiles(n, 2)
            for mask in range(len(lf)):
                g = _check_greedy_forest(n, mask, lf)
                for k in range(1, n + 2):
                    assert is_lk_free(g, k) == (lf[mask] <= k - 1), (n, mask, k)

    def test_matches_profile_table_sampled(self):
        rng = random.Random(67)
        for n in (6, 7):
            lf = graph_profiles(n, 2)
            for mask in rng.sample(range(len(lf)), 400):
                g = _check_greedy_forest(n, mask, lf)
                for k in range(1, n + 1):
                    assert is_lk_free(g, k) == (lf[mask] <= k - 1), (n, mask, k)

    def test_budget_exceeded_when_bracket_leaves_it_open(self):
        # nu = 6 <= lf <= 2 nu = 12, the greedy forest has 11 edges and the
        # A-set bound gives 12 = k, so k = 12 needs the search
        g = parse_graph6("LGC@walJ??cGED")
        assert matching_number(g).size == 6
        assert len(forests._greedy_linear_forest(g, matching_number(g).witness)) == 11
        assert forests._a_set_bound(g, 11)[0] == 12
        assert is_lk_free(g, 12)
        with pytest.raises(BudgetExceeded, match="k = 12 exceeded its budget of 1 states"):
            is_lk_free(g, 12, budget=1)

    def test_budget_bounds_only_the_search(self):
        # K_{1,3} at k = 2: nu = 1 leaves the bracket open, and the greedy
        # forest from the matching has 2 edges, so no search runs and the
        # budget that a search would exceed does not bind
        g = Graph.star(3)
        assert len(forests._greedy_linear_forest(g, matching_number(g).witness)) == 2
        assert not is_lk_free(g, 2, budget=1)
        with pytest.raises(BudgetExceeded):
            forests._ForestSearch(g, 1, 2).run()

    def test_forbidden_edges_decided_without_search(self, monkeypatch):
        # every forbidden-edge decision of the stability suites at n = 24 is
        # settled by the greedy forest, so the forest search never starts
        def no_search(*args, **kwargs):
            raise AssertionError("forest search reached")

        monkeypatch.setattr(forests, "_ForestSearch", no_search)
        decided = 0
        for k in (7, 8, 9):
            for p in listed_hosts(24, k):
                host = build_host(p)
                for u, v in _forbidden_edges(host, p, random.Random(0)):
                    assert not is_lk_free(host.with_edge(u, v), k), (p, u, v)
                    decided += 1
        assert decided > 0

    def test_forest_at_least_matching(self):
        rng = random.Random(43)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng, rng.random())
            assert max_linear_forest(g).size >= matching_number(g).size


def _greedy_by_tuples(g, matching):
    """_greedy_linear_forest as it sorted (deg u + deg v, u, v) tuples."""
    deg = [row.bit_count() for row in g.adj]
    fdeg = [0] * g.n
    parent = list(range(g.n))
    edges = list(matching)
    for u, v in matching:
        fdeg[u] = fdeg[v] = 1
        parent[u] = v
    for _, u, v in sorted((deg[u] + deg[v], u, v) for u, v in g.edges()):
        if fdeg[u] < 2 and fdeg[v] < 2:
            ru, rv = forests._find(parent, u), forests._find(parent, v)
            if ru != rv:
                parent[ru] = rv
                fdeg[u] += 1
                fdeg[v] += 1
                edges.append((u, v))
    return edges


def _grid_hosts():
    """(family, k, host) for the 154 hosts of the benchmark's suite grid,
    n = 20..40 step 2, the 110 L_k-free ones first."""
    return [
        (family, k, p) for family, ks in ((LK_FREE, (7, 8, 9)), (MATCHING, (3, 4)))
        for k in ks for n in range(20, 41, 2) for p in family.hosts(n, k)
    ]


def _lk_hosts():
    """Every listed host with k = 5..14 and k < n <= 64."""
    return [p for k in range(5, 15) for n in range(k + 1, 65) for p in listed_hosts(n, k)]


class TestASetBound:
    @staticmethod
    def _certified(g, target):
        # the bound with its set, checked by the component-count oracle
        bound, amask = forests._a_set_bound(g, target)
        assert bound == forest_upper_bound(g, list(iter_bits(amask))), (g, target)
        return bound

    def test_sets_pass_the_oracle_on_random_graphs(self):
        rng = random.Random(131)
        for _ in range(300):
            g = random_graph(rng.randint(0, 12), rng, rng.random())
            lf = max_linear_forest(g).size
            for target in range(-1, g.n + 1):
                bound = self._certified(g, target)
                assert bound >= lf, (g, target)

    def test_bracketed_lf_matches_subset_dp(self):
        rng = random.Random(137)
        closed = opened = 0
        for _ in range(150):
            g = random_graph(rng.randint(1, 10), rng, rng.random())
            lf = lf_subset_dp(g)
            assert LK_FREE.bound(g, 5, DEFAULT_BUDGET) == (4, lf), g
            greedy = len(forests._greedy_linear_forest(g, matching_number(g).witness))
            if self._certified(g, greedy) > greedy:
                opened += 1
            else:
                assert greedy == lf, g
                closed += 1
            for k in range(1, g.n + 2):
                assert is_lk_free(g, k) == (lf <= k - 1), (g, k)
        assert closed > 0 and opened > 0

    def test_bracket_matches_the_search_on_every_host(self):
        # k = 5..14, n <= 64: the greedy forest meets the A-set bound on all
        # but two hosts, and the bound row equals the exact search on all
        hosts = _lk_hosts()
        assert len(hosts) == 1905
        left_open = []
        for p in hosts:
            host = build_host(p)
            matching = matching_number(host)
            greedy = len(forests._greedy_linear_forest(host, matching.witness))
            lf = max_linear_forest(host).size
            assert LK_FREE.bound(host, p.k, DEFAULT_BUDGET)[1] == lf, p
            if self._certified(host, greedy) > greedy:
                left_open.append((p, greedy, lf))
        assert left_open == [
            (ConstructionParams(9, 6, 2, "plusplus"), 6, 7),
            (ConstructionParams(13, 10, 4, "plusplus"), 10, 11),
        ]

    @pytest.mark.parametrize("p, greedy, bound", [
        (ConstructionParams(9, 6, 2, "plusplus"), 6, 7),
        (ConstructionParams(13, 10, 4, "plusplus"), 10, 11),
    ], ids=["H++(9,6,2)", "H++(13,10,4)"])
    def test_open_hosts_fall_back_to_the_search(self, monkeypatch, p, greedy, bound):
        # the bracket leaves greedy < bound open, so the bound row searches
        host = build_host(p)
        matching = matching_number(host)
        assert len(forests._greedy_linear_forest(host, matching.witness)) == greedy
        assert self._certified(host, greedy) == bound
        from linfor.verify import theorems

        calls = []
        real = theorems.max_linear_forest

        def counted(g, budget):
            calls.append(g)
            return real(g, budget=budget)

        monkeypatch.setattr(theorems, "max_linear_forest", counted)
        k = p.k + 2  # an H++ host is listed for forest parameter k + 2
        assert LK_FREE.bound(host, k, DEFAULT_BUDGET) == (k - 1, bound)
        assert calls == [host]

    def test_closed_hosts_never_search(self, monkeypatch):
        # the benchmark grid's L_k-free bound rows are all closed by the
        # bracket, so none of them builds a forest search
        def no_search(*args, **kwargs):
            raise AssertionError("forest search reached")

        monkeypatch.setattr(forests, "_ForestSearch", no_search)
        hosts = [(k, p) for family, k, p in _grid_hosts() if family is LK_FREE]
        assert len(hosts) == 110
        for k, p in hosts:
            assert LK_FREE.bound(build_host(p), k, 1) == (k - 1, k - 1), p

    def test_packed_keys_match_the_tuple_sort(self):
        graphs = []
        for _, _, p in _grid_hosts():
            host = build_host(p)
            graphs.append(host)
            graphs += [host.with_edge(u, v)
                       for u, v in _forbidden_edges(host, p, random.Random(0))]
        rng = random.Random(139)
        graphs += [random_graph(rng.choice((8, 20, 40, MAX_VERTICES)), rng, rng.random())
                   for _ in range(100)]
        assert len(graphs) > 154
        for g in graphs:
            witness = matching_number(g).witness
            assert forests._greedy_linear_forest(g, witness) == _greedy_by_tuples(g, witness)


def _check_greedy_forest(n, mask, lf):
    """The graph of mask, once its greedy forest is checked to be a linear
    forest of it with between nu and the lf table's edges."""
    g = Graph.from_edge_mask(n, mask)
    matching = matching_number(g)
    edges = forests._greedy_linear_forest(g, matching.witness)
    assert is_linear_forest(n, edges), (n, mask)
    assert all(g.has_edge(u, v) for u, v in edges), (n, mask)
    assert matching.size <= len(edges) <= lf[mask], (n, mask)
    return g


def _sample_graph():
    return random_graph(11, random.Random(3), 0.4)


NO_CYCLE_CALLS = {
    "max_linear_forest": lambda: max_linear_forest(_sample_graph()),
    "is_lk_free": lambda: [is_lk_free(_sample_graph(), k) for k in range(1, 12)],
    # the net (a triangle with a pendant edge at each corner) reaches the
    # search at k = 5: nu = 3, the greedy forest and lf have 4 edges, and the
    # A-set bound gives 5
    "is_lk_free_search": lambda: is_lk_free(parse_graph6("ExQ?"), 5),
    "count_cliques": lambda: count_cliques(_sample_graph(), 3),
    "canonical_graph": lambda: canonical_graph(_sample_graph()),
    "refined_canonical_key": lambda: refined_canonical_key(11, _sample_graph().adj),
    "g_extremal": lambda: g_extremal(3, 3),
    "embeds_in_host": lambda: embeds_in_host(
        build_host(ConstructionParams(12, 7, 2)), ConstructionParams(12, 7, 2)
    ),
    "stability_suite": lambda: stability_suite(7, 24, samples=5),
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

    def test_witnesses_match_pinned_digests(self):
        got = {}
        for name, gs in _matching_pin_graphs().items():
            res = [(r.size, r.witness) for r in map(matching_number, gs)]
            got[name] = hashlib.sha256(repr(res).encode()).hexdigest()
        assert got == PINNED_MATCHING_DIGESTS

    @pytest.mark.parametrize("n", range(6))
    def test_empty_graph(self, n):
        res = matching_number(Graph.empty(n))
        assert (res.size, res.witness) == (0, ())

    def test_star_with_isolated_vertices(self):
        # 0 and 1 are isolated; after the centre 2 takes leaf 3, the search
        # from leaf 4 fails, and leaves 5 and 6 see only that dead tree
        res = matching_number(disjoint_union(Graph.empty(2), Graph.star(4)))
        assert (res.size, res.witness) == (1, ((2, 3),))
        res = matching_number(disjoint_union(Graph.star(3), Graph.empty(2)))
        assert (res.size, res.witness) == (1, ((0, 1),))

    def test_isolated_vertices_in_front_of_a_union(self):
        g = disjoint_union(Graph.empty(3), disjoint_union(Graph.cycle(5), Graph.path(4)))
        res = matching_number(g)
        assert (res.size, res.witness) == (4, ((3, 4), (5, 6), (8, 9), (10, 11)))
        assert res.size == matching_subset_dp(g)

    def test_blossom_heavy_cases(self):
        # odd cycles glued at a vertex exercise contraction
        g = Graph.from_edges(
            9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 8), (8, 6)]
        )
        assert matching_number(g).size == matching_subset_dp(g)


def _host_params(n):
    """Every listed host for k = 5..9 and every matching host for k = 2..4."""
    return [p for k in range(5, 10) for p in listed_hosts(n, k)] + [
        p for k in range(2, 5) for p in matching_hosts(n, k)
    ]


def _matching_pin_graphs():
    """Seeded G(n, p) graphs with n <= 24, every listed and matching host at
    n = 30, and each of those hosts with one forbidden edge added."""
    rng = random.Random(71)
    params = _host_params(30)
    hosts = [build_host(p) for p in params]
    return {
        "random": [
            random_graph(rng.randint(0, 24), rng, rng.random()) for _ in range(300)
        ],
        "hosts": hosts,
        "perturbed": [
            host.with_edge(u, v)
            for host, p in zip(hosts, params)
            for u, v in _forbidden_edges(host, p, random.Random(0))
        ],
    }


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
        grid = extremal_grid()
        for k in range(1, 6):
            assert grid[k, 2][0] <= 3 * k // 2
            for delta in (3, 4):
                assert grid[k, delta][0] <= k * (delta - 1)

    def test_degree_two_closed_form(self):
        # triangles plus one edge for odd budgets attain 3k/2 exactly
        for k in range(2, 7):
            assert g_extremal(k, 2)[0] == 3 * k // 2

    def test_class_enumeration_budget(self):
        # a budget raises and never returns a wrong answer
        with pytest.raises(BudgetExceeded) as exc:
            g_extremal(4, 3, budget=100)
        assert str(exc.value) == (
            "g_extremal at k = 4, delta = 3: "
            "isomorphism-class enumeration exceeded 100 graphs "
            "at the 6-vertex level, which had kept 6 classes"
        )
        # children with more edges than lf <= 4 allows are proposed and
        # refused by the parent bracket, and count against the budget too
        with pytest.raises(BudgetExceeded) as exc:
            g_extremal(4, 3, budget=201)
        assert str(exc.value).endswith(
            "exceeded 201 graphs at the 8-vertex level, which had kept 0 classes"
        )
        assert g_extremal(4, 3, budget=202)[0] == g_extremal(4, 3)[0] == 7

    def test_parent_bracket_agrees_with_freeness(self, monkeypatch):
        # the hook decides most children from the parent's maximum forest;
        # each child it decides so gets is_lk_free's answer, and it builds
        # only the children it keeps or passes to is_lk_free
        searched = []
        built = []

        def counting_is_lk_free(g, k, budget):
            searched.append(g)
            return is_lk_free(g, k, budget=budget)

        add_vertex = forests._add_vertex

        def counting_add_vertex(prows, nbrs):
            built.append(nbrs)
            return add_vertex(prows, nbrs)

        grow = forests._isomorphism_classes
        children = []

        def recording_classes(top, delta, empty, hook, budget):
            def recording_hook(prows, nbrs):
                before = len(searched), len(built)
                child = hook(prows, nbrs)
                decided = len(searched) == before[0]
                children.append((add_vertex(prows, nbrs), child, decided,
                                 len(built) > before[1]))
                return child

            return grow(top, delta, empty, recording_hook, budget)

        grid = extremal_grid()  # built unpatched
        monkeypatch.setattr(forests, "is_lk_free", counting_is_lk_free)
        monkeypatch.setattr(forests, "_add_vertex", counting_add_vertex)
        monkeypatch.setattr(forests, "_isomorphism_classes", recording_classes)
        kept = refused = total = 0
        for k in range(6):
            for delta in range(5):
                children.clear()
                assert g_extremal(k, delta) == grid[k, delta]
                for full, child, decided, was_built in children:
                    assert child is None or child == full
                    # built iff the bracket keeps it or leaves it open
                    assert was_built == (not decided or child is not None)
                    if decided:
                        free = is_lk_free(Graph(len(full), full), k + 1)
                        assert (child is not None) == free, (k, delta)
                        kept += child is not None
                        refused += child is None
                total += len(children)
        # 9,440 children: 479 kept and 7,383 refused by the bracket, 1,578
        # passed to is_lk_free; only 479 + 1,578 of them are built
        assert (kept, refused, len(searched)) == (479, 7383, 1578)
        assert (total, len(built)) == (9440, 479 + 1578)

    def test_class_generator_meets_chvatal_hanson(self):
        # components with nu <= k and max degree <= delta, grown by the class
        # generator, and combined over nu, give the published maximum
        pairs = [(k, delta) for k in range(1, 4) for delta in range(1, 5)] + [(4, 2), (4, 3)]
        for k, delta in pairs:
            def nu_at_most_k(prows, nbrs):
                rows = forests._add_vertex(prows, nbrs)
                child = Graph(len(rows), rows)
                return None if has_disjoint_edges(child, k + 1) else rows

            best: dict[int, int] = {}
            for comp in forests._isomorphism_classes(
                MAX_VERTICES, delta, False, nu_at_most_k, forests.DEFAULT_BUDGET
            ):
                nu = next(j for j in range(k + 1) if not has_disjoint_edges(comp, j + 1))
                best[nu] = max(best.get(nu, 0), comp.edge_count)
            assert matching_knapsack(best, k) == chvatal_hanson(k, delta), (k, delta)

    def test_grid_digest(self):
        # every total and witness labeling over 0 <= k <= 5, 0 <= delta <= 4
        h = hashlib.sha256()
        for k in range(6):
            for delta in range(5):
                total, witness = extremal_grid()[k, delta]
                h.update(f"{k} {delta} {total} {to_graph6(witness)}\n".encode())
        assert h.hexdigest() == (
            "d433552c8c1b7089cf8453955de406b15a87ba926d277505b6ff98fa8b163d77"
        )

    def test_only_kept_children_are_labeled(self, monkeypatch):
        import linfor.canon

        labeled = []

        def counting_key(n, rows):
            labeled.append(Graph(n, rows))
            return refined_canonical_key(n, rows)

        monkeypatch.setattr(linfor.canon, "refined_canonical_key", counting_key)
        assert g_extremal(4, 3)[0] == 7
        assert labeled and all(is_lk_free(g, 5) for g in labeled)

        labeled.clear()

        def refuse(prows, nbrs):
            return None

        assert list(forests._isomorphism_classes(4, 3, True, refuse, 2)) == []
        with pytest.raises(BudgetExceeded) as exc:
            list(forests._isomorphism_classes(4, 3, True, refuse, 1))
        assert str(exc.value) == (
            "isomorphism-class enumeration exceeded 1 graphs "
            "at the 2-vertex level, which had kept 0 classes"
        )
        assert labeled == []

    def test_degree_cap_reaches_every_class(self, monkeypatch):
        # max degree <= delta is hereditary, so the degree rule alone reaches
        # every connected class with max degree <= delta, and only a child
        # that starts a class is built as a Graph
        def connected(g):
            seen = todo = 1
            while todo:
                v = (todo & -todo).bit_length() - 1
                todo ^= 1 << v
                new = g.adj[v] & ~seen
                seen |= new
                todo |= new
            return seen == (1 << g.n) - 1

        built = 0
        post_init = Graph.__post_init__

        def counting_post_init(g):
            nonlocal built
            built += 1
            post_init(g)

        def grow(delta, empty):
            nonlocal built
            built = 0
            monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
            grown = list(forests._isomorphism_classes(
                6, delta, empty, forests._add_vertex, forests.DEFAULT_BUDGET
            ))
            monkeypatch.undo()
            assert built == len(grown)
            return grown

        for delta in range(1, 5):
            grown = grow(delta, False)
            for n in range(2, 7):
                got = sorted(canonical_graph(g).edge_mask() for g in grown if g.n == n)
                want = [
                    g.edge_mask() for g in enumerate_graphs(n, dedup=True)
                    if connected(g) and max(g.degree(v) for v in range(n)) <= delta
                ]
                assert got == want, (n, delta)
        # enumerate._classes(6)'s run builds 207 graphs, one per class on
        # 2..6 vertices
        assert len(grow(5, True)) == 207

    def test_matches_labeled_oracle_at_n7(self):
        # V_7 <= total, since every mask V_7 maximizes over is a graph that
        # g_extremal maximizes over; a witness on at most 7 vertices, padded
        # with isolated vertices, is one of those masks, so then V_7 == total
        for k in range(6):
            for delta in range(5):
                total, witness = extremal_grid()[k, delta]
                v7 = degree_capped_max(7, k, delta)
                assert v7 <= total, (k, delta)
                if witness.n <= 7:
                    mask = witness.edge_mask()
                    assert v7 == total, (k, delta)
                    assert mask.bit_count() == total
                    assert degree_capped_holds(7, k, delta, mask), (k, delta)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            g_extremal(7, 3)
        with pytest.raises(ValueError):
            g_extremal(3, 5)
