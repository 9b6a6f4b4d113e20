"""Enumeration, the vectorized profile kernel, and the theorem oracles."""

import hashlib
import random

import numpy as np
import pytest

from linfor import (
    Graph,
    count_cliques,
    is_canonical,
    matching_number,
    max_linear_forest,
    parse_graph6,
)
from linfor.verify import (
    TheoremReport,
    brute_ex,
    brute_ex_matching,
    check_input_graph,
    enumerate_graphs,
    graph_profiles,
    reports_csv,
    reports_json,
)

from .oracles import count_cliques_subsets, lf_subset_dp, matching_subset_dp

# sha256 of every uint8 profile array for n = 0..7 ("cliques" lists N_1..N_n),
# captured from the earlier vertex-subset DP kernel, which computed lf from
# minimum path covers and nu and N_r by their own subset DPs
PINNED_DIGESTS = {
    0: {
        "lf": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "nu": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "mindeg": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "cliques": [],
    },
    1: {
        "lf": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "nu": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "mindeg": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "cliques": [
            "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        ],
    },
    2: {
        "lf": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "nu": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "mindeg": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        "cliques": [
            "50cff72c8e550546d661ec235431888fb2f9f7bada40c17020d47f6ccc117aae",
            "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
        ],
    },
    3: {
        "lf": "42e41f72ee6d9c3eb14d3d17dfb586ebc0abe8bb6146053d1e64582ac240067c",
        "nu": "58b152dbcbf85e1396e9d063bb32d246ef9bbf87b88340e7313c641783a7cbdd",
        "mindeg": "d09f5c1fd903da03f5f2002a919d2f2f56a80f028cf5d0853b8df105cafbc438",
        "cliques": [
            "d155d4b4a5d82abdc42ce8dcc31a7339a003b872ec0332c856f69d6ccc59c967",
            "db3a85c6851c53d5d2c74587ad63684643d4b94ac48197ba17c55c89ce56c16c",
            "cd2662154e6d76b2b2b92e70c0cac3ccf534f9b74eb5b89819ec509083d00a50",
        ],
    },
    4: {
        "lf": "8dd5ad5e0865c31fcc545c1b9e5b17e8a55a2a56e62e8be416c874c515adf6c3",
        "nu": "7a03328bf65cf8b6c9680d05fd236ba4332005139d1fa55f4e6597f59f601ed8",
        "mindeg": "200b790fdf7e2877752e8c299595cce7c0abd49bfffe75f7503918165763bc2c",
        "cliques": [
            "cb4cdf1351c7b7812e52b873640ab20bd748a7142ffec144b18439bc8b833924",
            "2950a6a95a2bfc8a9851561b05fc33947260b489c498beddb0add201d9480ddc",
            "7d08843cdddcab55530b47c2cb421f67ffc16ca6ca5fe3f75062537061081880",
            "90f4b39548df55ad6187a1d20d731ecee78c545b94afd16f42ef7592d99cd365",
        ],
    },
    5: {
        "lf": "bcad908ce4999202247160e52ffbdf73b7f834d18c4457c47aa1e65562941a73",
        "nu": "2479a96be8253eb461aabf521dc8c0ee336a1378b8d95a87300b42a209ec1b10",
        "mindeg": "d7e9e86c34af6dd49fb541b7ba7df25fe26a53986398a82b4b177a9f0edf0a10",
        "cliques": [
            "1ba794e9305174cbcd58c9e8ce282af85b353d87ccd380db3a41c3bc4615d273",
            "586c42de711795257a28f472b11e76ed8fd4b07f6f834ac19fdfee2d584f8f95",
            "54247a7c8725e1addcaee3d248343eaca8e1b8e35f5698df3578e78cb2cd49dc",
            "a6888665e443aa0b0a1dce655116807c6d74258fb489bd9bb9bbd81053a5fb21",
            "4b6e04b8a58c45f207527a7e4cfd8362f5ad1db979486851f1ad2b6db4c5343b",
        ],
    },
    6: {
        "lf": "5178d4f3360d5977cdf34aebdf544839209ac246158a79e46fd8609ead43a4a0",
        "nu": "a72c0654b539a02c4fac609f4f8bf0f225ecb98b6db164f112d8ca08b570b29c",
        "mindeg": "7b3d23e81381ab22b06d4fd9587bee2483b17e008dca3461da21b7677c3e896d",
        "cliques": [
            "296f2020280bfe340be212090c7564c45d6f9bb0df8b85ebf7483a41e6faa38a",
            "4804c132717ef69770e63468937ae219392e0346288a0d356388e7d60d576748",
            "0c77e0fa2d54366764d38df0152d3b7c1a4a8911358891bcc1cf96dd21fa2747",
            "40cbb59cf65b652c6dc21ddb975fc6f8990712e62acc2afcb7cc032ca6df16e9",
            "aaef2cb9e625d1f1de8c5695bb57db2d4c3f5ca272d91d89924791b9d1ef5d21",
            "09f9729b31669c63f2d85f13ae9bf53979cfba4317b99cb2fb7637c8895e3e2a",
        ],
    },
    7: {
        "lf": "445a2aab19daaff726701735f80f14204e5dadd0824b66ff39cb44bd164d8b51",
        "nu": "34d40aa350061cfbdf422b128e8c2411891571c956547bb6ee0a857126050b74",
        "mindeg": "91c562cc2895b6840e7fd87d0213f763592474cc1bc50593b505fe3100518dd8",
        "cliques": [
            "c406296b30d433e27c08e2989ad557c7e9ae7825d1bea14c42aa4ef53c9e8a9d",
            "a315cb862ad3f2fe3c2381a3dafad4c5c19346b710382f9a2700169e3ead54eb",
            "5d06c0b302e9c8776a2ec42234cb6c5b0d1cd3728f92c9f22a1647834ccac4e0",
            "e897e1d427f461e0094c30bcc0ba300e1768f25cc0c5fb3a2ea20059f55cc885",
            "12c8a61693a282b1f106e9bcaefee09b8f06135385971c6a48e37a4aeabbd4ac",
            "e540abcd86c641108c1b91ca0b24f7ba3319cc81e5441d9301e85d719f73a0b3",
            "c04bff05ea31e406be1ddce1854262d6ad700f8e0dadd4f13c77356df56dddc1",
        ],
    },
}


def _sha256(a: np.ndarray) -> str:
    assert a.dtype == np.uint8 and a.ndim == 1
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestEnumerate:
    def test_counts(self):
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(4)) == 64

    def test_filter(self):
        found = list(
            enumerate_graphs(4, lambda g: min(g.degree(v) for v in range(4)) >= 3)
        )
        assert found == [Graph.complete(4)]

    def test_triangle_free_count(self):
        assert sum(1 for _ in enumerate_graphs(3, lambda g: count_cliques(g, 3) == 0)) == 7

    def test_lex_mask_order_and_determinism(self):
        masks = [g.edge_mask() for g in enumerate_graphs(3)]
        assert masks == list(range(8))
        again = [g.edge_mask() for g in enumerate_graphs(3)]
        assert masks == again

    def test_dedup_counts_match_iso_classes(self):
        # numbers of graphs up to isomorphism on 1..5 vertices
        for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
            assert sum(1 for _ in enumerate_graphs(n, dedup=True)) == expected

    def test_dedup_yields_canonical_representatives(self):
        for g in enumerate_graphs(4, dedup=True):
            assert is_canonical(g)

    def test_ceiling(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(9))


class TestProfiles:
    def test_against_library_functions_exhaustive(self):
        for n in range(0, 5):
            prof = graph_profiles(n)
            for mask in range(prof.count):
                g = Graph.from_edge_mask(n, mask)
                assert prof.lf[mask] == max_linear_forest(g).size
                assert prof.nu[mask] == matching_number(g).size
                if n:
                    assert prof.mindeg[mask] == min(g.degree(v) for v in range(n))
                for r in range(1, n + 1):
                    assert prof.cliques(r)[mask] == count_cliques(g, r)

    def test_against_independent_oracles_sampled(self):
        prof = graph_profiles(6)
        rng = random.Random(61)
        for mask in rng.sample(range(prof.count), 300):
            g = Graph.from_edge_mask(6, mask)
            assert prof.lf[mask] == lf_subset_dp(g)
            assert prof.nu[mask] == matching_subset_dp(g)
            assert prof.cliques(3)[mask] == count_cliques_subsets(g, 3)

    def test_forest_and_matching_exhaustive_n6(self):
        prof = graph_profiles(6)
        for mask in range(prof.count):
            g = Graph.from_edge_mask(6, mask)
            assert prof.lf[mask] == max_linear_forest(g).size
            assert prof.nu[mask] == matching_number(g).size

    def test_forest_dominates_matching_exhaustive(self):
        # a matching is a linear forest, so lf >= nu on every graph, n <= 7
        for n in range(8):
            prof = graph_profiles(n)
            assert (prof.lf >= prof.nu).all()

    def test_bounded_matching_forces_forest_freeness_exhaustive(self):
        # nu <= k rules out linear forests with 2k+1 edges, n <= 7
        for n in range(8):
            prof = graph_profiles(n)
            for k in range(4):
                assert (prof.lf[prof.nu <= k] <= 2 * k).all()

    def test_arrays_match_pinned_digests(self):
        for n, pinned in PINNED_DIGESTS.items():
            prof = graph_profiles(n)
            assert prof.count == 1 << (n * (n - 1) // 2)
            got = {
                "lf": _sha256(prof.lf),
                "nu": _sha256(prof.nu),
                "mindeg": _sha256(prof.mindeg),
                "cliques": [_sha256(prof.cliques(r)) for r in range(1, n + 1)],
            }
            assert got == pinned, n


class TestBruteEx:
    def test_spec_values(self):
        rep = brute_ex(6, 2, 3)
        assert (rep.formula_value, rep.oracle_value, rep.verdict) == (5, 5, "pass")
        rep = brute_ex(6, 2, 5)
        assert (rep.formula_value, rep.oracle_value) == (10, 10)

    def test_witnesses_are_real_extremal_graphs(self):
        rep = brute_ex(6, 2, 3)
        assert 1 <= len(rep.witnesses) <= 16
        for g6 in rep.witnesses:
            g = parse_graph6(g6)
            assert max_linear_forest(g).size <= 2
            assert g.edge_count == 5

    def test_min_degree_variant(self):
        rep = brute_ex(7, 2, 5, min_degree=2)
        assert rep.theorem == "theorem3"
        assert rep.verdict == "pass"
        assert rep.oracle_value <= rep.formula_value

    def test_dedup_agrees_with_array_path(self):
        for n in range(3, 6):
            for k in range(2, n):
                fast = brute_ex(n, 2, k)
                slow = brute_ex(n, 2, k, dedup=True)
                assert fast.oracle_value == slow.oracle_value

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            brute_ex(4, 2, 4)
        with pytest.raises(ValueError):
            brute_ex(9, 2, 3)
        with pytest.raises(ValueError):
            brute_ex(6, 2, 3, min_degree=5)


class TestBruteExMatching:
    def test_spec_values(self):
        rep = brute_ex_matching(6, 2, 1)
        assert (rep.formula_value, rep.oracle_value, rep.verdict) == (5, 5, "pass")
        rep = brute_ex_matching(7, 2, 2)
        assert (rep.formula_value, rep.oracle_value) == (11, 11)

    def test_min_degree_variant(self):
        rep = brute_ex_matching(6, 3, 2, min_degree=1)
        assert rep.theorem == "theorem6"
        assert rep.oracle_value <= rep.formula_value

    def test_requires_room_for_hypothesis(self):
        with pytest.raises(ValueError):
            brute_ex_matching(5, 2, 2, min_degree=1)  # needs n >= 2k+2


class TestInputGraphMode:
    def test_hypothesis_met(self):
        rep = check_input_graph(Graph.star(5), "theorem1", 3, 2)
        assert rep.verdict == "pass" and rep.note == "input graph"
        assert rep.oracle_value == 5

    def test_hypothesis_not_met_is_vacuous(self):
        rep = check_input_graph(Graph.complete(5), "theorem1", 3, 2)
        assert rep.verdict == "pass"
        assert "hypothesis" in rep.note


class TestReportSerialization:
    def test_json_schema_and_csv_columns(self):
        reps = [brute_ex(5, 2, 3), brute_ex_matching(5, 2, 1)]
        import json

        doc = json.loads(reports_json(reps))
        assert doc["schema"] == 1
        assert len(doc["reports"]) == 2
        assert doc["reports"][0]["verdict"] == "pass"
        csv_text = reports_csv(reps)
        header = csv_text.splitlines()[0]
        assert header.split(",") == [
            "theorem", "n", "k", "r", "d", "kind",
            "formula_value", "oracle_value", "verdict", "witnesses", "note",
        ]

    def test_serialization_deterministic(self):
        reps = [brute_ex(5, 2, 2)]
        assert reports_json(reps) == reports_json(reps)
        assert reports_csv(reps) == reports_csv(reps)

    def test_witness_separator_outside_graph6_alphabet(self):
        rep = TheoremReport("theorem1", 4, 2, 2, None, "equality", 1, 1,
                            ("C~", "C^"))
        row = reports_csv([rep])
        assert "C~;C^" in row
