"""Exact clique counting against the all-subsets oracle."""

import random

from linfor import (
    ConstructionParams,
    Graph,
    build_host,
    clique_vector,
    count_cliques,
    host_clique_count,
)
from linfor.verify import listed_hosts

from .oracles import count_cliques_subsets


def random_graph(n, rng, p=0.5):
    return Graph.from_edges(
        n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    )


class TestCountCliques:
    def test_hand_values(self):
        assert count_cliques(Graph.complete(4), 3) == 4
        assert count_cliques(Graph.cycle(5), 3) == 0

    def test_r_beyond_n_is_zero(self):
        assert count_cliques(Graph.complete(3), 4) == 0

    def test_oracle_small_random(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 9)
            g = random_graph(n, rng, rng.random())
            for r in range(1, n + 2):
                assert count_cliques(g, r) == count_cliques_subsets(g, r)

    def test_isomorphism_invariance(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 10)
            g = random_graph(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            for r in range(1, n + 1):
                assert count_cliques(g, r) == count_cliques(h, r)

    def test_oracle_high_degree_first(self):
        # index order, not degree, drives the expansion: put the hubs first
        rng = random.Random(23)
        graphs = []
        for _ in range(60):
            n = rng.randint(1, 10)
            rows = [row | 1 for row in random_graph(n, rng, rng.random()).adj]
            rows[0] = (1 << n) - 2  # vertex 0 joins everything
            hub = Graph(n, tuple(rows))
            by_degree = sorted(range(n), key=lambda v: -hub.degree(v))
            perm = [0] * n
            for new, v in enumerate(by_degree):
                perm[v] = new
            graphs.append(hub.relabel(perm))
        for p in (ConstructionParams(10, 5, 2), ConstructionParams(10, 6, 2, "plusplus"),
                  ConstructionParams(9, 7, 3, "plus")):
            host = build_host(p)  # part A is 0..a-1, the highest degrees
            graphs += [host, host.relabel(list(range(p.n))[::-1])]
        for g in graphs:
            for r in range(1, g.n + 2):
                assert count_cliques(g, r) == count_cliques_subsets(g, r)

    def test_reversed_hosts_match_closed_form(self):
        # part A last: the lowest index of a clique sits in B or C
        for k in (7, 8, 9):
            for p in listed_hosts(60, k):
                g = build_host(p).relabel(list(range(60))[::-1])
                for r in range(2, 6):
                    assert count_cliques(g, r) == host_clique_count(p, r)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 9)
            g = random_graph(n, rng, 0.4)
            non_edges = [
                (u, v) for v in range(n) for u in range(v) if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            h = g.with_edge(u, v)
            for r in range(1, n + 1):
                assert count_cliques(h, r) >= count_cliques(g, r)


class TestCliqueVector:
    def test_hand_values(self):
        assert clique_vector(Graph.complete(4)).counts == (4, 6, 4, 1)
        assert clique_vector(Graph.empty(3)).counts == (3, 0, 0)
        assert clique_vector(Graph.cycle(5)).counts == (5, 5, 0, 0, 0)
        assert clique_vector(Graph.complete(4)).count(3) == 4

    def test_basic_invariants(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng)
            cv = clique_vector(g)
            assert len(cv.counts) == n
            assert cv.counts[0] == n
            if n >= 2:
                assert cv.counts[1] == g.edge_count
            assert cv.count(n + 3) == 0

    def test_zero_tail_after_clique_number(self):
        cv = clique_vector(Graph.cycle(6))
        assert cv.counts == (6, 6, 0, 0, 0, 0)
