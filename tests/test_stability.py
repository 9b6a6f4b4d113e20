"""Host embedding and stability classification."""

import dataclasses
import hashlib
import itertools
import math
import random

import pytest

from linfor import (
    BudgetExceeded,
    ConstructionParams,
    Graph,
    build_host,
    count_cliques,
    disjoint_union,
    to_graph6,
)
from linfor.constructions import VARIANTS
from linfor.forests import DEFAULT_BUDGET, matching_number, max_linear_forest
from linfor.verify import (
    EmbeddingCertificate,
    classify_matching_stability,
    classify_stability,
    embeds_in_host,
    enumerate_graphs,
    host_label,
    listed_hosts,
    matching_hosts,
    matching_stability_suite,
    matching_stability_threshold,
    stability_suite,
    stability_threshold,
    validate_embedding,
)
from linfor.verify.stability import _certifies, _try_assignment, family_threshold
from linfor.verify.suite import _delete_random_edges, _forbidden_edges
from linfor.verify.theorems import LK_FREE, MATCHING

from .oracles import (
    clique_number,
    forest_upper_bound,
    is_linear_forest_in,
    is_matching_in,
    tutte_berge_bound,
    validate_embedding_reference,
)


def _rendered(cert):
    """A certificate (or None) as its host label, its parts read per vertex
    and its extra edges, whatever fields the certificate stores them in."""
    if cert is None:
        return "None"
    return f"{host_label(cert.params)} {''.join(cert.parts)} {cert.extra_edges}"


def _valid_hosts(n):
    """Every valid (k, a, variant) host on n vertices."""
    hosts = []
    for k, a, variant in itertools.product(
        range(1, n + 1), range(n // 2 + 1), ["plain", "plus", "plusplus"]
    ):
        try:
            hosts.append(ConstructionParams(n, k, a, variant))
        except ValueError:
            continue
    return hosts


class TestEmbedsInHost:
    def test_invalid_certificate_raises(self, monkeypatch):
        # the certificate check must not be an assert, which `python -O` strips
        monkeypatch.setattr(
            "linfor.verify.stability.validate_embedding", lambda g, cert: False
        )
        p = ConstructionParams(8, 5, 2)
        with pytest.raises(RuntimeError):
            embeds_in_host(build_host(p), p)

    def test_identity_embedding(self):
        p = ConstructionParams(8, 5, 2)
        cert = embeds_in_host(build_host(p), p)
        assert cert is not None
        assert cert.parts == ("A", "A", "B", "C", "C", "C", "C", "C")

    def test_star_into_its_host(self):
        p = ConstructionParams(6, 3, 1)
        cert = embeds_in_host(Graph.star(5), p)
        assert cert is not None
        assert cert.parts[0] == "A"

    def test_cycle_refuses(self):
        g = disjoint_union(Graph.cycle(5), Graph.empty(3))
        assert embeds_in_host(g, ConstructionParams(8, 5, 2)) is None

    def test_budget_counts_a_sets(self):
        # C_8 forces no vertex into A, and none of its C(8, 2) = 28 A-sets fits
        p = ConstructionParams(8, 5, 2)
        assert embeds_in_host(Graph.cycle(8), p, budget=28) is None
        with pytest.raises(BudgetExceeded, match="exceeded 27 attempts"):
            embeds_in_host(Graph.cycle(8), p, budget=27)

    def test_budget_message_names_the_search(self):
        # both A vertices keep degree 8 and are forced; the other eight
        # vertices fall into two twin classes
        p = ConstructionParams(10, 5, 2, "plus")
        g = build_host(p).without_edge(0, 1)
        with pytest.raises(BudgetExceeded) as exc:
            embeds_in_host(g, p, budget=0)
        assert str(exc.value) == (
            "embedding an n = 10 graph into H+(10,5,2) with 2 forced A vertices"
            " and 2 pool twin classes exceeded 0 attempts"
        )

    def test_variant_certificates(self):
        p = ConstructionParams(10, 5, 2, "plusplus")
        host = build_host(p)
        cert = embeds_in_host(host, p)
        assert cert is not None and len(cert.extra_edges) == 2
        # the plus variant cannot absorb two independent C-edges
        assert embeds_in_host(host, ConstructionParams(10, 5, 2, "plus")) is None

    def test_relabeled_host_still_embeds(self):
        rng = random.Random(5)
        p = ConstructionParams(9, 5, 2, "plus")
        host = build_host(p)
        for _ in range(20):
            perm = list(range(9))
            rng.shuffle(perm)
            cert = embeds_in_host(host.relabel(perm), p)
            assert cert is not None

    def test_random_subgraphs_embed(self):
        rng = random.Random(7)
        p = ConstructionParams(12, 6, 2)
        host = build_host(p)
        edges = host.edges()
        for _ in range(25):
            g = host
            for e in rng.sample(edges, rng.randint(1, 4)):
                g = g.without_edge(*e)
            cert = embeds_in_host(g, p)
            assert cert is not None and validate_embedding(g, cert)

    def test_extra_edge_breaks_plain_embedding(self):
        p = ConstructionParams(8, 5, 2)
        host = build_host(p)
        spoiled = host.with_edge(4, 5)  # C-C edge
        assert embeds_in_host(spoiled, p) is None
        cert = embeds_in_host(spoiled, ConstructionParams(8, 5, 2, "plus"))
        assert cert is not None and validate_embedding(spoiled, cert)

    def test_validate_rejects_wrong_parts(self):
        p = ConstructionParams(6, 3, 1)
        cert = embeds_in_host(Graph.star(5), p)
        bad = EmbeddingCertificate(p, cert.a_mask & ~1, cert.b_mask, ())
        assert not validate_embedding(Graph.star(5), bad)

    # A = {0, 1}, B = {2} and C = the rest in every H(n, 5, 2) variant
    @pytest.mark.parametrize("g_n, p_n, variant, c_edges, extra", [
        (8, 9, "plain", [], ()),
        (8, 8, "plus", [], ((2, 3),)),
        (10, 10, "plusplus", [(3, 4), (4, 5)], ((3, 4), (4, 5))),
        (10, 10, "plus", [(3, 4), (5, 6)], ((3, 4), (5, 6))),
        (8, 8, "plain", [(3, 4)], ()),
        (8, 8, "plain", [(2, 3)], ()),
        (10, 10, "plus", [], ((9, 9),)),
        (10, 10, "plus", [], ((-1, 8),)),
        (10, 10, "plus", [], ((3, 10),)),
    ], ids=["graph_n", "extra_leaves_c", "extra_share_vertex",
            "extra_too_many", "edge_not_allowed", "b_has_c_neighbour",
            "extra_loop", "extra_negative_end", "extra_end_past_n"])
    def test_validate_rejects_each_bad_certificate(
        self, g_n, p_n, variant, c_edges, extra
    ):
        # g is the plain host plus c_edges; each certificate breaks one rule
        g = build_host(ConstructionParams(g_n, 5, 2))
        for u, v in c_edges:
            g = g.with_edge(u, v)
        cert = EmbeddingCertificate(
            ConstructionParams(p_n, 5, 2, variant), 0b11, 0b100, extra
        )
        assert not validate_embedding(g, cert)

    @pytest.mark.parametrize("a_mask, b_mask", [
        (0b11, 0b10), (0b11, 1 << 8), (1 << 8 | 0b1, 0b100), (0b11, -1 << 8),
        (-1 << 8 | 0b11, 0b100),
    ], ids=["a_b_overlap", "b_bit_at_n", "a_bit_at_n", "b_negative", "a_negative"])
    def test_validate_rejects_bad_masks(self, a_mask, b_mask):
        # on the edgeless graph every A and B with |A| = 2 and |B| = 1 fits
        # H(8, 5, 2), so only the mask checks refuse these
        g, p = Graph.empty(8), ConstructionParams(8, 5, 2)
        assert validate_embedding(g, EmbeddingCertificate(p, 0b11, 0b100, ()))
        assert not validate_embedding(g, EmbeddingCertificate(p, a_mask, b_mask, ()))

    @staticmethod
    def _random_certificate(n, rng):
        """A seeded host on n vertices, A and B over shuffled vertices, extra
        edges among C, and g drawn from the allowed edges plus, now and
        then, stray edges."""
        while True:
            k, a = rng.randint(0, n), rng.randint(0, n // 2)
            try:
                p = ConstructionParams(n, k, a, rng.choice(VARIANTS))
                break
            except ValueError:
                continue
        order = rng.sample(range(n), n)
        a_set, b_set = order[: p.a], order[p.a : p.a + p.b_size]
        c_set = order[p.a + p.b_size :]
        cs = rng.sample(c_set, 2 * rng.randint(0, p.extra_edge_count))
        extra = tuple(zip(cs[::2], cs[1::2]))
        allowed = [(u, v) for u in a_set for v in range(n) if u != v]
        allowed += itertools.combinations(b_set, 2)
        allowed += extra
        dense = rng.random()
        edges = {tuple(sorted(e)) for e in allowed if rng.random() < dense}
        while n > 1 and rng.random() < 0.3:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph.from_edges(n, edges)
        masks = [sum(1 << v for v in part) for part in (a_set, b_set)]
        return g, EmbeddingCertificate(p, *masks, extra)

    @staticmethod
    def _mutations(cert, n, rng):
        p, extra = cert.params, cert.extra_edges
        a, b = cert.a_mask, cert.b_mask
        out = []
        if n:
            bit = 1 << rng.randrange(n)
            moves = [(a | bit, b & ~bit), (a & ~bit, b | bit), (a & ~bit, b & ~bit)]
            for masks in moves:  # the vertex moved to another part
                if masks != (a, b):
                    out.append(EmbeddingCertificate(p, *masks, extra))
            out.append(EmbeddingCertificate(p, a | bit, b | bit, extra))
        if a and b:
            # A trades its lowest vertex for B's: the counts hold, the parts meet
            out.append(EmbeddingCertificate(p, a ^ (a & -a) | (b & -b), b, extra))
        high = 1 << n + rng.randrange(2)
        out.append(EmbeddingCertificate(p, a | high, b, extra))
        out.append(EmbeddingCertificate(p, a, b | high, extra))
        # negative, with the same bits as the mask below n
        out.append(EmbeddingCertificate(p, a | -1 << n, b, extra))
        out.append(EmbeddingCertificate(p, a, b | -1 << n, extra))
        ends = list(range(-1, n + 1))
        if extra:
            i = rng.randrange(len(extra))
            moved = list(extra)
            moved[i] = (extra[i][0], rng.choice(ends))
            out.append(EmbeddingCertificate(p, a, b, tuple(moved)))
            u = rng.choice(extra[i])
            shared = (*extra, (u, rng.choice(ends)))
            out.append(EmbeddingCertificate(p, a, b, shared))
        added = (*extra, (rng.choice(ends), rng.choice(ends)))
        out.append(EmbeddingCertificate(p, a, b, added))
        wider = ConstructionParams(n + 1, p.k, p.a, p.variant)
        out.append(EmbeddingCertificate(wider, a, b, extra))
        return out

    @pytest.mark.parametrize("n", [0, 1, 8, 9, 17, 33, 40, 64])
    def test_validate_agrees_with_per_vertex_reference(self, n):
        rng = random.Random(n)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            g, cert = self._random_certificate(n, rng)
            for c in [cert, *self._mutations(cert, n, rng)]:
                want = validate_embedding_reference(g, c)
                assert validate_embedding(g, c) == want, (g.adj, c)
                verdicts[want] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 400, verdicts

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embeds_in_host(Graph.empty(5), ConstructionParams(6, 3, 1))

    def test_against_naive_part_scan(self):
        from .oracles import embeds_in_host_naive

        def random_pairs():
            rng = random.Random(11)
            for _ in range(400):
                n = rng.randint(3, 8)
                k = rng.randint(1, n)
                a = rng.randint(0, k // 2)
                if n - k + a < 0:
                    continue
                variant = rng.choice(["plain", "plus", "plusplus"])
                try:
                    p = ConstructionParams(n, k, a, variant)
                except ValueError:
                    continue
                mask = rng.randrange(1 << (n * (n - 1) // 2))
                yield Graph.from_edge_mask(n, mask), p

        def small_sweep():
            # every labeled graph on n <= 5 against every valid host
            for n in range(1, 6):
                hosts = _valid_hosts(n)
                for mask in range(1 << (n * (n - 1) // 2)):
                    g = Graph.from_edge_mask(n, mask)
                    for p in hosts:
                        yield g, p

        positives = negatives = 0
        for g, p in itertools.chain(random_pairs(), small_sweep()):
            cert = embeds_in_host(g, p)
            assert (cert is not None) == embeds_in_host_naive(g, p), (p, g.edge_mask())
            if cert is not None:
                positives += 1
                assert validate_embedding(g, cert)
            else:
                negatives += 1
        # the comparison exercised real embeddings and real refusals
        assert positives > 20 and negatives > 10_000

    def test_against_naive_part_scan_on_n6_classes(self):
        # one graph per isomorphism class on 6 vertices against every valid
        # host: embedding is isomorphism-invariant, so this covers every
        # labeled graph at n = 6
        from .oracles import embeds_in_host_naive

        hosts = _valid_hosts(6)
        pairs = negatives = 0
        for g in enumerate_graphs(6, dedup=True):
            for p in hosts:
                found = embeds_in_host(g, p) is not None
                assert found == embeds_in_host_naive(g, p), (p, g.edge_mask())
                pairs += 1
                negatives += not found
        # 156 classes against 32 hosts, 3,588 of the 4,992 answers "no"
        assert (len(hosts), pairs, negatives) == (32, 4992, 3588)

    def test_b_overflow_by_one_after_extra_edges(self):
        # H+(12, 6, 2): A = {0, 1}, B = {2, 3}, C = 4..11 with extra edge (4, 5)
        from .oracles import embeds_in_host_naive

        p = ConstructionParams(12, 6, 2, "plus")
        host = build_host(p)
        # 4 non-singleton vertices less the 2 of an extra edge fill B exactly;
        # both (2, 3) and (4, 5) are K_2 components, and the lower one becomes
        # the extra edge
        cert = _try_assignment(host, p, 0b11)
        assert cert is not None and cert.extra_edges == ((2, 3),)
        assert "".join(cert.parts) == "AACCBBCCCCCC"
        # the B-C edge (3, 6) leaves 5 - 2 vertices for the 2 slots of B
        g = host.with_edge(3, 6)
        assert _try_assignment(g, p, 0b11) is None
        assert embeds_in_host(g, p) is None
        assert not embeds_in_host_naive(g, p)

    def test_certificates_pinned(self):
        # sha256 of every rendered certificate (or None) when each graph of a
        # host list is tried against each host of that list: every listed
        # host for k = 7, 8, 9 and matching host for k = 3, 4 at n = 20, 22,
        # ..., 40, plus 5 seeded edge-deleted subgraphs of each host
        rng = random.Random(0)
        lines = []
        for n in range(20, 41, 2):
            lists = [listed_hosts(n, k) for k in (7, 8, 9)]
            lists += [matching_hosts(n, k) for k in (3, 4)]
            for hosts in lists:
                for src in hosts:
                    host = build_host(src)
                    edges = host.edges()
                    graphs = [host]
                    for _ in range(5):
                        g = host
                        for e in rng.sample(edges, rng.randint(1, 6)):
                            g = g.without_edge(*e)
                        graphs.append(g)
                    for i, g in enumerate(graphs):
                        for p in hosts:
                            cert = embeds_in_host(g, p)
                            lines.append(
                                f"{host_label(src)} {i} {host_label(p)} {_rendered(cert)}\n"
                            )
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == (
            "429becbb870970cf19f3fcd170646678e0395b6ade136a0166547351ed36ab34"
        )


class TestHostLists:
    def test_odd_k_hosts(self):
        hosts = listed_hosts(24, 7)
        assert [(p.k, p.a, p.variant) for p in hosts] == [
            (7, 3, "plain"), (7, 2, "plain"), (6, 2, "plus"),
        ]

    def test_even_k_hosts(self):
        hosts = listed_hosts(24, 8)
        assert [(p.k, p.a, p.variant) for p in hosts] == [
            (8, 3, "plain"), (8, 2, "plain"), (7, 2, "plus"), (6, 2, "plusplus"),
        ]

    def test_matching_hosts(self):
        hosts = matching_hosts(20, 3)
        assert [(p.k, p.a) for p in hosts] == [(7, 3), (7, 2)]


class TestThresholds:
    @staticmethod
    def written_out(n, big_k, r, d):
        # max(h_r(n, K, d), h_r(n, K, floor((K - 5) / 2)))
        def h(a):
            return math.comb(big_k - a, r) + (n - big_k + a) * math.comb(a, r - 1)

        return max(h(d), h((big_k - 5) // 2))

    @pytest.mark.parametrize("threshold, ks, forest_k", [
        (stability_threshold, range(5, 10), lambda k: k),
        (matching_stability_threshold, range(2, 5), lambda k: 2 * k + 1),
    ], ids=["stability", "matching"])
    def test_against_written_out_formula(self, threshold, ks, forest_k):
        for k in ks:
            big_k = forest_k(k)
            for n in (big_k + 1, 24):
                for r in range(2, 5):
                    for d in range((big_k - 1) // 2 + 1):
                        assert threshold(n, k, r, d) == self.written_out(
                            n, big_k, r, d
                        ), (n, k, r, d)

    @pytest.mark.parametrize("threshold, k, message", [
        (stability_threshold, 4, "stability threshold needs k >= 5"),
        (matching_stability_threshold, 1,
         "matching stability threshold needs k >= 2"),
    ], ids=["stability", "matching"])
    def test_small_k_refused(self, threshold, k, message):
        with pytest.raises(ValueError, match=message):
            threshold(24, k, 2, 0)


class TestClassifyStability:
    def test_host_above_threshold_and_embeds(self):
        g = build_host(ConstructionParams(20, 7, 3))
        rep = classify_stability(g, 7, 2, 0)
        assert rep.above_threshold
        assert rep.embedded
        assert rep.attempts[0][1] is not None  # the a = floor((k-1)/2) host
        assert not rep.hypothesis_n_ok  # 20 <= 7^5: advisory only

    def test_empty_graph_below_threshold(self):
        rep = classify_stability(Graph.empty(20), 7, 2, 0)
        assert not rep.above_threshold
        assert rep.attempts == ()

    def test_plus_host_certifies_via_its_own_shape(self):
        g = build_host(ConstructionParams(19, 6, 2, "plus"))
        rep = classify_stability(g, 7, 2, 0)
        assert rep.above_threshold
        certified = [p.variant for p, cert in rep.attempts if cert is not None]
        assert "plus" in certified

    def test_min_degree_precondition(self):
        with pytest.raises(ValueError):
            classify_stability(Graph.empty(20), 7, 2, 1)

    def test_twin_classes_only_with_a_free_slot(self, monkeypatch):
        # classify_family embeds through embeds_in_host once per host, which
        # computes twin classes only when a host's A has a slot the forced
        # vertices leave free; the certificates are embeds_in_host's
        from linfor.verify import stability

        def counting(name):
            calls = []
            real = getattr(stability, name)

            def counted(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(stability, name, counted)
            return calls

        g = build_host(ConstructionParams(19, 6, 2, "plus"))
        h = build_host(ConstructionParams(19, 7, 3))
        for graph, twin_count in [(g, 1), (h, 0)]:
            embeds = counting("embeds_in_host")
            twins = counting("twin_classes")
            rep = classify_stability(graph, 7, 2, 0)
            monkeypatch.undo()
            assert len(rep.attempts) == 3 and len(embeds) == 3
            assert len(twins) == twin_count
            assert rep.attempts == tuple(
                (p, embeds_in_host(graph, p)) for p, _ in rep.attempts
            )


class TestClassifyMatchingStability:
    def test_hosts_embed_identically(self):
        g = build_host(ConstructionParams(12, 5, 2))
        rep = classify_matching_stability(g, 2, 2, 0)
        assert rep.above_threshold and rep.attempts[0][1] is not None
        g = build_host(ConstructionParams(12, 5, 1))
        rep = classify_matching_stability(g, 2, 2, 0)
        assert rep.above_threshold and rep.attempts[1][1] is not None

    def test_below_threshold_makes_no_claim(self):
        # with d = 1 the threshold rises above this host's count
        g = build_host(ConstructionParams(12, 4, 1, "plus"))
        rep = classify_matching_stability(g, 2, 2, 1)
        assert rep.clique_count == 13 and rep.threshold == 14
        assert not rep.above_threshold
        assert rep.certificate is None and not rep.embedded
        assert rep.nu == 3  # outside the hypothesis too; reported, not hidden

    def test_nu_reported(self):
        g = build_host(ConstructionParams(12, 5, 2))
        rep = classify_matching_stability(g, 2, 2, 0)
        assert rep.nu == 2


def _counting_embeds(monkeypatch):
    """The hosts of every embeds_in_host call made through the stability
    module, in call order."""
    from linfor.verify import stability

    calls = []
    real = stability.embeds_in_host

    def counted(g, p, *args):
        calls.append(p)
        return real(g, p, *args)

    monkeypatch.setattr(stability, "embeds_in_host", counted)
    return calls


class TestCertifies:
    """The suites' yes/no: classify's `above_threshold and embedded` at r = 2,
    trying hosts in the given order and stopping at the first certificate."""

    def test_at_or_below_threshold_embeds_nothing(self, monkeypatch):
        hosts = listed_hosts(20, 7)
        thr = family_threshold(LK_FREE, 20, 7, 2, 0)
        host = build_host(hosts[0])
        # exactly thr edges: N_2 = thr is not above the threshold
        g = Graph.from_edges(20, host.edges()[:thr])
        assert g.edge_count == thr
        calls = _counting_embeds(monkeypatch)
        for graph in (Graph.empty(20), g):
            assert _certifies(graph, hosts, thr, 0) is False
            assert not classify_stability(graph, 7, 2, 0).above_threshold
        assert calls == []

    def test_min_degree_message(self):
        hosts = listed_hosts(20, 7)
        thr = family_threshold(LK_FREE, 20, 7, 2, 1)
        message = "min degree 0 below required d = 1"
        with pytest.raises(ValueError, match=message):
            _certifies(Graph.empty(20), hosts, thr, 1)
        with pytest.raises(ValueError, match=message):
            classify_stability(Graph.empty(20), 7, 2, 1)

    @pytest.mark.parametrize("family, k, n", [
        (LK_FREE, 5, 12), (LK_FREE, 6, 13), (LK_FREE, 7, 16), (LK_FREE, 8, 18),
        (MATCHING, 2, 12), (MATCHING, 3, 16),
    ])
    def test_agrees_with_classify_in_every_host_order(
        self, monkeypatch, family, k, n
    ):
        # hosts, random proper subgraphs and perturbed hosts; each host order
        # embeds up to its first certifying host and no further
        classify = {LK_FREE: classify_stability, MATCHING: classify_matching_stability}[family]
        hosts = family.hosts(n, k)
        rng = random.Random(k * 100 + n)
        graphs = []
        for p in hosts:
            host = build_host(p)
            edges = host.edges()
            graphs.append(host)
            graphs += [_delete_random_edges(host, edges, rng) for _ in range(3)]
            graphs += [host.with_edge(u, v) for u, v in _forbidden_edges(host, p, rng)]
        thr = family_threshold(family, n, k, 2, 0)
        answers = set()
        for g in graphs:
            rep = classify(g, k, 2, 0)
            certified = {p for p, cert in rep.attempts if cert is not None}
            expected = rep.above_threshold and rep.embedded
            answers.add(expected)
            for order in itertools.permutations(hosts):
                calls = _counting_embeds(monkeypatch)
                assert _certifies(g, list(order), thr, 0) is expected
                monkeypatch.undo()
                if not rep.above_threshold:
                    assert calls == []
                elif expected:
                    first = next(i for i, p in enumerate(order) if p in certified)
                    assert calls == list(order[: first + 1])
                else:
                    assert calls == list(order)
        assert answers == {True, False}

    def test_says_no_to_every_forbidden_edge(self):
        # on the benchmark grid each forbidden edge breaks the family, and a
        # graph outside the family embeds in no listed host (freeness passes
        # to subgraphs), so the suite's certification must answer no to all
        refused = 0
        for family, ks in ((LK_FREE, (7, 8, 9)), (MATCHING, (3, 4))):
            for k in ks:
                for n in (20, 30, 40):
                    hosts = family.hosts(n, k)
                    thr = family_threshold(family, n, k, 2, 0)
                    for i, p in enumerate(hosts):
                        order = [p, *hosts[:i], *hosts[i + 1 :]]
                        host = build_host(p)
                        for u, v in _forbidden_edges(host, p, random.Random(0)):
                            g3 = host.with_edge(u, v)
                            assert not family.contains(g3, k, None, DEFAULT_BUDGET)
                            # a witness that g3 left the family: a k-edge
                            # linear forest, or a (k + 1)-edge matching
                            if family is LK_FREE:
                                witness = max_linear_forest(g3).witness
                                assert len(witness) >= k, (p, u, v)
                                assert is_linear_forest_in(g3, witness), (p, u, v)
                            else:
                                witness = matching_number(g3).witness
                                assert len(witness) >= k + 1, (p, u, v)
                                assert is_matching_in(g3, witness), (p, u, v)
                            assert _certifies(g3, order, thr, 0) is False, (p, u, v)
                            refused += 1
        assert refused == 126


class TestSharpness:
    def test_threshold_hosts_embed_in_no_listed_host(self):
        # the threshold max{h_r(n, K, d), h_r(n, K, a_s)} is attained by
        # H(n, K, d) or H(n, K, a_s) at every suite point; both are in the
        # family with min degree >= d and embed in no listed host, so the
        # threshold cannot be one lower.  Each no is backed by a clique
        # number above every listed host's: H(n, K, a) holds K_{K-a}
        checks = 0
        for family, ks in ((LK_FREE, range(5, 13)), (MATCHING, range(2, 6))):
            for k in ks:
                big_k, a_s = family.forest_k(k), family.stability_a(k)
                for n in range(20, 41, 2):
                    listed = family.hosts(n, k)
                    omega = max(clique_number(build_host(p)) for p in listed)
                    for d in range(a_s + 1):
                        graphs = [
                            build_host(ConstructionParams(n, big_k, a))
                            for a in sorted({a_s, d})
                        ]
                        for g in graphs:
                            assert family.contains(g, k, d, DEFAULT_BUDGET), (k, n, d)
                            assert all(embeds_in_host(g, p) is None for p in listed)
                            assert clique_number(g) > omega, (k, n, d)
                        for r in (2, 3):
                            threshold = family_threshold(family, n, k, r, d)
                            counts = [count_cliques(g, r) for g in graphs]
                            assert max(counts) == threshold, (k, n, d, r)
                            checks += len(graphs)
        assert checks == 1056


class TestSuites:
    def test_stability_suite_small(self):
        rows = stability_suite(7, 20, samples=3, seed=1)
        assert all(row.verdict == "pass" for row in rows)
        notes = " ".join(row.note for row in rows)
        assert "H(20,7,3)" in notes and "H+(20,6,2)" in notes

    def test_matching_suite_small(self):
        rows = matching_stability_suite(3, 20, samples=3, seed=1)
        assert all(row.verdict == "pass" for row in rows)

    @pytest.mark.parametrize("suite, k, theorem", [
        (stability_suite, 7, "theorem4"),
        (matching_stability_suite, 3, "theorem7"),
    ], ids=["theorem4", "theorem7"])
    def test_r_below_two_refused(self, suite, k, theorem):
        # N_1 = n = h_1(n, K, a) for every graph, so r = 1 has no check
        with pytest.raises(ValueError, match=f"{theorem}: r must be at least 2, got 1"):
            suite(k, 20, r_values=[3, 1])

    def test_bound_rows_certified_on_both_sides(self):
        # each bound row's lf or nu on the benchmark grid is met by a witness
        # from below and, with A = U = the host's part A, by the A-set or
        # Tutte-Berge bound from above; the pinned digests pin only behaviour
        grid = (
            (LK_FREE, (7, 8, 9), max_linear_forest, is_linear_forest_in,
             forest_upper_bound),
            (MATCHING, (3, 4), matching_number, is_matching_in, tutte_berge_bound),
        )
        certified = 0
        for family, ks, solve, is_witness, upper in grid:
            for k in ks:
                for n in range(20, 41, 2):
                    for p in family.hosts(n, k):
                        host = build_host(p)
                        formula, oracle = family.bound(host, k, DEFAULT_BUDGET)
                        witness = solve(host).witness
                        assert is_witness(host, witness), p
                        assert upper(host, range(p.a)) == len(witness) == oracle, p
                        assert oracle == formula, p
                        certified += 1
        assert certified == 154

    def test_certificates_pass_the_per_vertex_reference(self, monkeypatch):
        # every certificate the suites get back on part of the benchmark grid
        # passes the validator that shares no code with validate_embedding
        from linfor.verify import stability

        real = stability.embeds_in_host
        certs = []

        def checked(g, p, *args):
            cert = real(g, p, *args)
            if cert is not None:
                assert validate_embedding_reference(g, cert), (p, cert)
                certs.append(cert)
            return cert

        monkeypatch.setattr(stability, "embeds_in_host", checked)
        for suite, ks in (
            (stability_suite, (7, 8, 9)), (matching_stability_suite, (3, 4))
        ):
            for k in ks:
                for n in (20, 30, 40):
                    suite(k, n, samples=5)
        assert len(certs) == 252

    def test_suite_deterministic(self):
        a = stability_suite(8, 21, samples=4, seed=9)
        b = stability_suite(8, 21, samples=4, seed=9)
        assert a == b

    @staticmethod
    def _certified(monkeypatch, suite, k):
        # every (g, d, answer) the suite's yes/no gives, in call order
        import linfor.verify.suite as suite_module

        seen = []
        inner = suite_module._certifies

        def record(g, hosts, threshold, d):
            seen.append((g, d, inner(g, hosts, threshold, d)))
            return seen[-1][2]

        monkeypatch.setattr(suite_module, "_certifies", record)
        suite(k, 24, samples=5, seed=3)
        return seen

    @pytest.mark.parametrize("suite, k", [
        (stability_suite, 7), (matching_stability_suite, 3),
    ], ids=["theorem4", "theorem7"])
    def test_source_host_certifies_first(self, monkeypatch, suite, k):
        # each graph is tried against the host it came from first, which
        # certifies every host, sample and kept perturbation here at once
        embeds = _counting_embeds(monkeypatch)
        seen = self._certified(monkeypatch, suite, k)
        assert len(embeds) == len(seen) > 0
        assert all(answer for _, _, answer in seen)

    @pytest.mark.parametrize("suite, k, digest", [
        (stability_suite, 7,
         "2fde5712bde0d68a4fff2f3b58756f934493d192e4e4064df39f38a5f79b8a81"),
        (matching_stability_suite, 3,
         "a10084e8a1ae96762937612f1a9fb80e95c160574f99606953e36e85140f8d12"),
    ], ids=["theorem4", "theorem7"])
    def test_sampled_graphs_pinned(self, monkeypatch, suite, k, digest):
        # report rows hold only counts, so pin which graphs get certified
        seen = self._certified(monkeypatch, suite, k)
        text = "\n".join(to_graph6(g) for g, _, _ in seen) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite, k, classify, digest", [
        (stability_suite, 7, classify_stability,
         "0d5bb89d7bdc4b96b60a9940a70174f7e1b697573513f47a8c98cfd1c1f5bf07"),
        (matching_stability_suite, 3, classify_matching_stability,
         "b8e46a77a1f3391c7874fe044be89c6ee60d40895190eca488b427f02d11790d"),
    ], ids=["theorem4", "theorem7"])
    def test_reports_pinned(self, monkeypatch, suite, k, classify, digest):
        # the whole report of every graph the suite certifies: each attempt's
        # certificate, nu and the min degree; the suite's yes/no is the
        # report's above_threshold and embedded
        seen = self._certified(monkeypatch, suite, k)
        reports = [classify(g, k, 2, d) for g, d, _ in seen]
        assert [answer for _, _, answer in seen] == [
            rep.above_threshold and rep.embedded for rep in reports
        ]
        rendered = [
            dataclasses.replace(rep, attempts=tuple(
                (host_label(p), _rendered(cert)) for p, cert in rep.attempts
            ))
            for rep in reports
        ]
        assert hashlib.sha256(repr(rendered).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, digest", [
        (12, "84d2882e89ef851f2abe02d38f0bcc1d3b3850a1c4d6ea22f9094ab5d557209a"),
        (24, "e76fcd4265649804b0f170430192b10ecaa0c7e2c22f71eafb46dd23088362af"),
    ])
    def test_forbidden_edges_pinned(self, n, digest):
        # report rows count the perturbations only, and the sampled-graph pin
        # sees a perturbed host only when it stays in the family
        hosts = [p for k in range(5, 10) for p in listed_hosts(n, k)]
        hosts += [p for k in range(2, 5) for p in matching_hosts(n, k)]
        text = "".join(
            f"{host_label(p)} {_forbidden_edges(build_host(p), p, random.Random(0))}\n"
            for p in hosts
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @staticmethod
    def _forbidden_edges_listed(host, p, rng):
        """The forbidden edges drawn by listing every other non-edge u < v in
        order of v, then u, and taking rng.choice of the list."""
        core = p.k - p.a
        cands = []
        if p.b_size >= 1 and p.c_size >= 1:
            cands.append((p.a, core))
        for u in range(core, p.n):
            later = [v for v in range(u + 1, p.n) if not host.has_edge(u, v)]
            if later:
                cands.append((u, later[0]))
                break
        non_edges = [
            (u, v) for v in range(host.n) for u in range(v)
            if not host.has_edge(u, v) and (u, v) not in cands
        ]
        if non_edges:
            cands.append(rng.choice(non_edges))
        return cands

    def test_forbidden_edges_draw_as_listed(self):
        # every host of the benchmark grid, and every small host, down to
        # complete ones with no non-edge left to draw
        hosts = [
            p for family, ks in ((LK_FREE, (7, 8, 9)), (MATCHING, (3, 4)))
            for k in ks for n in range(20, 41, 2) for p in family.hosts(n, k)
        ]
        assert len(hosts) == 154
        hosts += [p for n in range(1, 9) for p in _valid_hosts(n)]
        for p in hosts:
            host = build_host(p)
            for seed in range(5):
                drawn, listed = random.Random(seed), random.Random(seed)
                assert _forbidden_edges(host, p, drawn) == (
                    self._forbidden_edges_listed(host, p, listed)
                ), (p, seed)
                assert drawn.getstate() == listed.getstate(), (p, seed)

    def test_budget_message_names_theorem_and_host(self):
        # H(9,8,2)'s lf is closed by the A-set bracket; a perturbation of it
        # reaches the search, which passes 5 states
        with pytest.raises(
            BudgetExceeded,
            match=r"^theorem4 at n = 9, k = 8, host H\(9,8,2\): linear-forest search",
        ) as info:
            stability_suite(8, 9, budget=5)
        assert isinstance(info.value.__cause__, BudgetExceeded)

    def test_certification_budget_names_host(self, monkeypatch):
        import linfor.verify.suite as suite_module

        def exceed(g, hosts, threshold, d):
            raise BudgetExceeded("embedding exceeded")

        monkeypatch.setattr(suite_module, "_certifies", exceed)
        with pytest.raises(
            BudgetExceeded,
            match=r"^theorem7 at n = 20, k = 3, host H\(20,7,3\): embedding exceeded$",
        ):
            matching_stability_suite(3, 20)
