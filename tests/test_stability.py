"""Host embedding and stability classification."""

import random

import pytest

from linfor import ConstructionParams, Graph, build_host, disjoint_union
from linfor.verify import (
    classify_matching_stability,
    classify_stability,
    embeds_in_host,
    listed_hosts,
    matching_hosts,
    matching_stability_suite,
    stability_suite,
    validate_embedding,
)


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
        from linfor.verify import EmbeddingCertificate

        bad = EmbeddingCertificate(p, tuple(["C"] + list(cert.parts[1:])), ())
        assert not validate_embedding(Graph.star(5), bad)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embeds_in_host(Graph.empty(5), ConstructionParams(6, 3, 1))

    def test_against_naive_part_scan(self):
        from .oracles import embeds_in_host_naive

        rng = random.Random(11)
        positives = 0
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
            g = Graph.from_edge_mask(n, mask)
            cert = embeds_in_host(g, p)
            assert (cert is not None) == embeds_in_host_naive(g, p), (n, k, a, variant, mask)
            if cert is not None:
                positives += 1
                assert validate_embedding(g, cert)
        assert positives > 20  # the comparison exercised real embeddings


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
        assert rep.nu == 3  # outside the hypothesis too; reported, not hidden

    def test_nu_reported(self):
        g = build_host(ConstructionParams(12, 5, 2))
        rep = classify_matching_stability(g, 2, 2, 0)
        assert rep.nu == 2


class TestSuites:
    def test_stability_suite_small(self):
        rows = stability_suite(7, 20, samples=3, seed=1)
        assert all(row.verdict == "pass" for row in rows)
        notes = " ".join(row.note for row in rows)
        assert "H(20,7,3)" in notes and "H+(20,6,2)" in notes

    def test_matching_suite_small(self):
        rows = matching_stability_suite(3, 20, samples=3, seed=1)
        assert all(row.verdict == "pass" for row in rows)

    def test_suite_deterministic(self):
        a = stability_suite(8, 21, samples=4, seed=9)
        b = stability_suite(8, 21, samples=4, seed=9)
        assert a == b
