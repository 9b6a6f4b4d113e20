"""Host constructions and closed-form clique counts."""

import math

import pytest

from linfor import (
    ConstructionParams,
    Graph,
    binomial,
    build_host,
    clique_bound_from_edges,
    count_cliques,
    disjoint_union,
    h_r,
    host_clique_count,
    is_lk_free,
    max_linear_forest,
)


def all_valid_params(n_max: int, variants=("plain", "plus", "plusplus")):
    for n in range(n_max + 1):
        for k in range(n + 1):
            for a in range(k // 2 + 1):
                if n - k + a < 0:
                    continue
                for variant in variants:
                    try:
                        yield ConstructionParams(n, k, a, variant)
                    except ValueError:
                        continue


class TestParams:
    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            ConstructionParams(5, 3, 2)

    def test_rejects_negative_c(self):
        with pytest.raises(ValueError):
            ConstructionParams(3, 5, 1)

    def test_variant_needs_room_in_c(self):
        with pytest.raises(ValueError):
            ConstructionParams(6, 5, 0, "plus")  # |C| = 1
        with pytest.raises(ValueError):
            ConstructionParams(8, 6, 1, "plusplus")  # |C| = 3
        ConstructionParams(9, 6, 1, "plusplus")  # |C| = 4 is fine


class TestBuildHost:
    def test_star_case(self):
        assert build_host(ConstructionParams(6, 3, 1)) == Graph.star(5)

    def test_clique_plus_isolated_case(self):
        expected = disjoint_union(Graph.complete(5), Graph.empty(3))
        assert build_host(ConstructionParams(8, 5, 0)) == expected

    def test_plus_adds_one_c_edge(self):
        g = build_host(ConstructionParams(6, 3, 1, "plus"))
        assert g == Graph.star(5).with_edge(2, 3)

    def test_plusplus_adds_two_independent_c_edges(self):
        g = build_host(ConstructionParams(10, 5, 2, "plusplus"))
        plain = build_host(ConstructionParams(10, 5, 2))
        assert g == plain.with_edge(3, 4).with_edge(5, 6)

    def test_part_structure(self):
        p = ConstructionParams(10, 5, 2)
        g = build_host(p)
        # A = {0,1} complete to everything, B = {2}, C independent
        for v in range(2):
            assert g.degree(v) == 9
        assert g.degree(2) == 2
        for c in range(3, 10):
            assert g.degree(c) == 2

    def test_rejects_beyond_dense_cap(self):
        with pytest.raises(ValueError):
            build_host(ConstructionParams(65, 5, 2))


class TestHr:
    def test_hand_values(self):
        assert h_r(6, 3, 1, 2) == 5
        assert h_r(8, 5, 0, 3) == 10
        assert h_r(8, 5, 2, 3) == 6

    def test_a_zero_collapses_to_binomial(self):
        # for r = 1 the count is n, not C(k, 1): isolated C-vertices count
        for n in range(5, 12):
            for k in range(1, n):
                for r in range(2, 6):
                    assert h_r(n, k, 0, r) == binomial(k, r)

    def test_r_one_counts_vertices(self):
        assert h_r(9, 4, 2, 1) == 9

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            h_r(5, 3, 2, 2)
        with pytest.raises(ValueError):
            h_r(6, 3, 1, 0)


class TestHostCliqueCount:
    def test_hand_values(self):
        assert host_clique_count(ConstructionParams(6, 3, 1), 2) == 5
        assert host_clique_count(ConstructionParams(6, 3, 1, "plus"), 2) == 6
        assert host_clique_count(ConstructionParams(10, 5, 2, "plusplus"), 3) == 12

    def test_agrees_with_counter_everywhere(self):
        # exhaustive cross-check against the clique counter, n <= 14
        for p in all_valid_params(14):
            g = build_host(p)
            for r in range(1, p.n + 2):
                assert host_clique_count(p, r) == count_cliques(g, r), p

    def test_closed_form_scales(self):
        # purely arithmetic: far beyond the dense cap
        val = host_clique_count(ConstructionParams(10**5, 9, 4, "plusplus"), 3)
        assert val == h_r(10**5, 9, 4, 3) + 2 * binomial(4, 1)


class TestVandermonde:
    def test_identity_exhaustive(self):
        for m in range(21):
            for l in range(21):
                for r in range(m + l + 1):
                    lhs = binomial(m + l, r)
                    rhs = sum(binomial(m, j) * binomial(l, r - j) for j in range(r + 1))
                    assert lhs == rhs


class TestCliqueBound:
    def test_hand_values(self):
        assert clique_bound_from_edges(15, 3) == pytest.approx(20.0)
        assert clique_bound_from_edges(0, 3) == 0.0
        assert clique_bound_from_edges(3, 3) == pytest.approx(1.0)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            clique_bound_from_edges(10, 2)

    def test_fractional_edge_counts_interpolate(self):
        # x for m=10 is (1+sqrt 81)/2 = 5
        assert clique_bound_from_edges(10, 3) == pytest.approx(10.0)
        assert clique_bound_from_edges(11, 3) > 10.0
        assert clique_bound_from_edges(11, 3) < math.comb(6, 3)

    def test_dominates_every_graph_up_to_seven_vertices(self):
        import numpy as np

        from linfor.verify import graph_profiles

        for n in range(2, 8):
            prof = graph_profiles(n)
            masks = np.arange(prof.count, dtype=np.uint32)
            edge_counts = np.bitwise_count(masks)
            for r in range(3, n + 1):
                bound = np.array(
                    [clique_bound_from_edges(m, r) for m in range(n * (n - 1) // 2 + 1)]
                )
                assert (prof.cliques(r) <= bound[edge_counts] + 1e-9).all()


class TestHostFreeness:
    def test_theorem_range_hosts_are_lk_free(self):
        # sharpness side: hosts with a <= floor((k-1)/2) never contain a
        # k-edge forest
        for p in all_valid_params(12):
            if p.k < 1 or p.a > (p.k - 1) // 2:
                continue
            g = build_host(p)
            if p.variant == "plain":
                assert is_lk_free(g, p.k), p
            elif p.variant == "plus":
                # one extra C-edge raises the max forest by at most one
                assert max_linear_forest(g).size <= p.k, p
            else:
                assert max_linear_forest(g).size <= p.k + 1, p

    def test_half_split_host_is_not_free(self):
        # a = k/2 leaves B empty; an alternating A-C path reaches k edges,
        # so these hosts sit outside the extremal family
        assert not is_lk_free(build_host(ConstructionParams(3, 2, 1)), 2)
        assert not is_lk_free(build_host(ConstructionParams(8, 4, 2)), 4)
