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
from linfor.graphcore import _touching, pair_index, read_graph6_lines


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

    @pytest.mark.parametrize("n, rows, message", [
        (65, (0,) * 65, "vertex count 65 outside [0, 64]"),
        (3, (0, 0), "adjacency row count does not match n"),
        (3, (0, 0b1000, 0), "row 1 mentions vertices >= n"),
        # the self-loop is named before the asymmetry it also makes
        (3, (0b010, 0b010, 0), "self-loop at vertex 1"),
        (3, (0b010, 0, 0), "asymmetric adjacency between 1 and 0"),
        # stored only in row 1's lower half: 0 is in row 1, 1 is not in row 0
        (3, (0, 0b001, 0), "asymmetric adjacency between 0 and 1"),
    ], ids=["n_range", "row_count", "row_range", "self_loop", "upper_half",
            "lower_half"])
    def test_rejection_messages(self, n, rows, message):
        with pytest.raises(ValueError) as exc:
            Graph(n, rows)
        assert str(exc.value) == message

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Graph.empty(65)

    def test_edge_mask_beyond_pairs_rejected(self):
        # n = 3 has C(3, 2) = 3 pair bits, so bit 3 names no pair
        for mask in (1 << 3, -1):
            with pytest.raises(ValueError, match="edge mask has bits beyond C"):
                Graph.from_edge_mask(3, mask)

    def test_edge_roundtrip(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 4)]
        assert g.edge_count == 3
        assert g.has_edge(4, 2) and not g.has_edge(0, 2)

    def test_edge_mask_roundtrip(self):
        # the mask is defined edge by edge through pair_index
        def check(g):
            mask = g.edge_mask()
            assert mask == sum(1 << pair_index(u, v) for u, v in g.edges())
            assert Graph.from_edge_mask(g.n, mask) == g

        for n in range(6):
            for mask in range(1 << n * (n - 1) // 2):
                g = Graph.from_edge_mask(n, mask)
                assert g.edge_mask() == mask
                check(g)
        rng = random.Random(7)
        for _ in range(50):
            check(random_graph(rng.randint(0, 9), rng))
        for n in range(6, 65):
            check(random_graph(n, rng, rng.random()))
        check(Graph.complete(64))


def _verdict(build, n, rows):
    try:
        build(n, rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidationOracle:
    """Graph must raise exactly what the edge-by-edge oracle raises."""

    @staticmethod
    def check(n, rows):
        from .oracles import validate_rows_by_edge

        assert _verdict(Graph, n, rows) == _verdict(validate_rows_by_edge, n, rows), (n, rows)

    def test_every_small_matrix(self):
        # every 0/1 n x n matrix for n <= 4, diagonal included
        for n in range(5):
            for bits in range(1 << n * n):
                rows = tuple(bits >> v * n & ((1 << n) - 1) for v in range(n))
                self.check(n, rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 33, 63, 64])
    def test_out_of_range_rows(self, n):
        rng = random.Random(n)
        base = random_graph(n, rng).adj
        for bad in (-1, -(1 << n), 1 << n, ((1 << n) - 1) << 1, 1 << 64, -(1 << 70)):
            for v in range(n):
                rows = list(base)
                rows[v] = bad
                self.check(n, tuple(rows))
                # a self-loop in the rows before, at and after the bad row
                for w in {0, v, n - 1}:
                    looped = list(rows)
                    looped[w] |= 1 << w
                    self.check(n, tuple(looped))

    @pytest.mark.parametrize("n", [2, 8, 9, 16, 17, 32, 33, 63, 64])
    def test_corner_entries(self, n):
        # the entries farthest from the diagonal, next to each stride change
        for g in (Graph.empty(n), Graph.complete(n)):
            for v, u in ((0, n - 1), (n - 1, 0)):
                rows = list(g.adj)
                rows[v] ^= 1 << u
                self.check(n, tuple(rows))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_one_fault_in_symmetric_graph(self, n):
        rng = random.Random(n)
        for _ in range(4):
            g = random_graph(n, rng, rng.random())
            self.check(n, g.adj)
            v = rng.randrange(n)
            rows = list(g.adj)
            rows[v] |= 1 << v
            self.check(n, tuple(rows))
            if n > 1:
                u = rng.choice([u for u in range(n) if u != v])
                rows = list(g.adj)
                rows[v] ^= 1 << u
                self.check(n, tuple(rows))


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
        for record, message in [
            ("~~??????", "unsupported or truncated graph6 size header"),
            ("~?", "unsupported or truncated graph6 size header"),
            # n = 2: one edge bit, then five padding bits of which the last is set
            ("A`", "nonzero padding bits in graph6 body"),
        ]:
            with pytest.raises(Graph6Error) as exc:
                parse_graph6(record)
            assert str(exc.value) == message

    def test_parse_strips_only_ascii_space(self):
        # str.strip() would also drop these and read each record as K_4
        for record in ("\x1cC~", "C~\x0b", "C~\x0c", "C~\x1f"):
            with pytest.raises(Graph6Error) as exc:
                parse_graph6(record)
            assert str(exc.value) == "graph6 byte outside printable range 63..126"
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("C~\x85")
        assert str(exc.value) == "graph6 record has a non-ASCII character"
        assert parse_graph6(" \tC~\r\n") == Graph.complete(4)

    def test_control_byte_line_is_not_blank(self):
        assert read_graph6_lines(["C~", " \t\r", "C~"]) == [Graph.complete(4)] * 2
        with pytest.raises(Graph6Error) as exc:
            read_graph6_lines(["C~", "\x0b"])
        assert str(exc.value) == "line 2: graph6 byte outside printable range 63..126"

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


def _agree(record):
    """parse_graph6 and the reference decoder accept the same records and
    read the same graph from them."""
    from .oracles import graph6_decode_reference

    try:
        want = graph6_decode_reference(record)
    except ValueError:
        want = None
    try:
        g = parse_graph6(record)
    except Graph6Error:
        assert want is None, record
        return
    assert want == (g.n, frozenset(g.edges())), record


class TestGraph6Reference:
    """parse_graph6 and to_graph6 against the codec in tests.oracles."""

    @staticmethod
    def check(g):
        from .oracles import graph6_encode_reference

        record = graph6_encode_reference(g.n, g.edges())
        if g.n <= 62:
            assert to_graph6(g) == record
        for r in (record, graph6_encode_reference(g.n, g.edges(), long_form=True)):
            assert parse_graph6(r) == g
            _agree(r)
            _agree(">>graph6<<" + r)

    def test_every_small_graph(self):
        for n in range(6):
            for mask in range(1 << n * (n - 1) // 2):
                self.check(Graph.from_edge_mask(n, mask))

    def test_seeded_graphs(self):
        rng = random.Random(19)
        for n in list(range(6, 63)) + [63, 63, 64, 64]:
            self.check(random_graph(n, rng, rng.random()))
        self.check(Graph.complete(64))

    def test_beyond_64_vertices(self):
        from .oracles import graph6_encode_reference

        for n in (65, 66, 100):
            _agree(graph6_encode_reference(n, [(0, n - 1)]))

    # each record is edited at every position by every one-byte
    # substitution, insertion and deletion
    EDITED = ["@", "A_", "C~", "Dhc", ">>graph6<<Dhc", "~??Dhc", "I~~~~~~}w"]
    CHARS = [chr(c) for c in range(128)] + ["\x85", "\xe9", "\u2603"]

    @pytest.mark.parametrize("record", EDITED)
    def test_one_byte_edits(self, record):
        for i in range(len(record) + 1):
            if i < len(record):
                _agree(record[:i] + record[i + 1:])
            for c in self.CHARS:
                _agree(record[:i] + c + record[i:])
                if i < len(record):
                    _agree(record[:i] + c + record[i + 1:])


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
        # the edge (0, 1) has both ends in s ∩ t and still counts once
        assert edges_between(Graph.complete(3), 0b011, 0b111) == 3
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


def _row_union(g: Graph, mask: int) -> int:
    out = 0
    for v in range(g.n):
        if mask >> v & 1:
            out |= g.adj[v]
    return out


class TestTouching:
    # rows are packed at stride 8, 16, 32 or 64, so n = 8/9, 16/17 and
    # 32/33 cross a stride edge and n = 64 fills the widest one
    @pytest.mark.parametrize("n", range(65))
    def test_matches_row_union(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(n, rng, p)
            masks = [0, full, *(1 << v for v in range(n))]
            masks += [rng.getrandbits(n) if n else 0 for _ in range(8)]
            for mask in masks:
                assert _touching(g.adj, mask) == _row_union(g, mask), (p, mask)
