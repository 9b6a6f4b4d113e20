"""Graph representation and graph6 interchange."""

import random

import pytest

from linfor import (
    Graph,
    Graph6Error,
    degree_sequence,
    edges_between,
    induced_subgraph,
    parse_graph6,
    to_graph6,
)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Graph.empty(65)

    def test_edge_roundtrip(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 4)]
        assert g.edge_count == 3
        assert g.has_edge(4, 2) and not g.has_edge(0, 2)

    def test_edge_mask_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(0, 9)
            g = random_graph(n, rng)
            assert Graph.from_edge_mask(n, g.edge_mask()) == g


class TestGraph6:
    def test_k2_encodes_to_known_record(self):
        assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"

    def test_empty_pair_encodes(self):
        assert to_graph6(Graph.empty(2)) == "A?"

    def test_single_vertex_encodes(self):
        assert to_graph6(Graph.empty(1)) == "@"

    def test_parse_known_records(self):
        assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])
        assert parse_graph6("A?") == Graph.empty(2)
        assert parse_graph6("@") == Graph.empty(1)

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_") == Graph.from_edges(2, [(0, 1)])

    def test_roundtrip_exhaustive_small(self):
        for n in range(5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                assert parse_graph6(to_graph6(g)) == g

    def test_roundtrip_randomized_large(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(10, 62)
            g = random_graph(n, rng, p=rng.random())
            assert parse_graph6(to_graph6(g)) == g

    def test_known_records(self):
        # K_4: all six upper-triangle bits set -> 111111 -> '~'
        assert to_graph6(Graph.complete(4)) == "C~"
        # C_5 on labels 0-1-2-3-4-0: bits 101001|1001(00) -> 'h','c'
        assert to_graph6(Graph.cycle(5)) == "Dhc"
        assert parse_graph6("Dhc") == Graph.cycle(5)

    def test_encode_rejects_beyond_single_byte_header(self):
        with pytest.raises(Graph6Error):
            to_graph6(Graph.empty(63))

    def test_parse_rejects_malformed_header(self):
        with pytest.raises(Graph6Error):
            parse_graph6("\x1c??")

    def test_parse_rejects_truncated_body(self):
        record = to_graph6(Graph.complete(10))
        with pytest.raises(Graph6Error):
            parse_graph6(record[:-1])
        with pytest.raises(Graph6Error):
            parse_graph6(record + "?")

    def test_parse_rejects_non_ascii(self):
        # "é" must not be read as a "?" digit, which would give an empty graph
        for record in ("Aé", "A\u2603", ">>graph6<<Aé"):
            with pytest.raises(Graph6Error):
                parse_graph6(record)

    def test_parse_rejects_out_of_range_n(self):
        # long-form header for n = 100
        record = chr(126) + chr(63) + chr(63 + 1) + chr(63 + 36)
        with pytest.raises(Graph6Error):
            parse_graph6(record)

    def test_parse_long_form_64(self):
        # n = 64 long form header with an all-zero body parses fine
        nbits = 64 * 63 // 2
        body = "?" * ((nbits + 5) // 6)
        record = chr(126) + chr(63) + chr(63 + 1) + chr(63) + body
        assert parse_graph6(record) == Graph.empty(64)


class TestQueries:
    def test_degree_sequence_examples(self):
        assert degree_sequence(Graph.cycle(5)) == [2, 2, 2, 2, 2]
        assert degree_sequence(Graph.complete(4)) == [3, 3, 3, 3]
        assert degree_sequence(Graph.star(5)) == [5, 1, 1, 1, 1, 1]

    def test_degree_sequence_sums_to_twice_edges(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(1, 10), rng)
            seq = degree_sequence(g)
            assert seq == sorted(seq, reverse=True)
            assert sum(seq) == 2 * g.edge_count

    def test_edges_between_examples(self):
        k4 = Graph.complete(4)
        assert edges_between(k4, 0b0011, 0b1100) == 4
        assert edges_between(k4, 0, 0b1111) == 0
        c5 = Graph.cycle(5)
        assert edges_between(c5, 0b11111, 0b11111) == 5

    def test_edges_between_symmetric(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 9)
            g = random_graph(n, rng)
            s = rng.randrange(1 << n)
            t = rng.randrange(1 << n)
            assert edges_between(g, s, t) == edges_between(g, t, s)

    def test_degree_equals_edges_to_rest(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 9)
            g = random_graph(n, rng)
            for v in range(n):
                rest = g.vertex_mask() ^ (1 << v)
                assert g.degree(v) == edges_between(g, 1 << v, rest)

    def test_induced_subgraph_examples(self):
        assert induced_subgraph(Graph.complete(5), 0b10101) == Graph.complete(3)
        c5 = Graph.cycle(5)
        assert induced_subgraph(c5, 0b00011) == Graph.from_edges(2, [(0, 1)])
        assert induced_subgraph(c5, 0) == Graph.empty(0)

    def test_induced_subgraph_preserves_order(self):
        g = Graph.from_edges(5, [(1, 3), (3, 4)])
        h = induced_subgraph(g, 0b11010)  # vertices 1, 3, 4 -> 0, 1, 2
        assert h == Graph.from_edges(3, [(0, 1), (1, 2)])
