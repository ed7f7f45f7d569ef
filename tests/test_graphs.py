"""Graph container, matchings, permutations, and the optimum oracles."""

import numpy as np
import pytest

from matchlab import graphs
from matchlab.graphs import (BRUTE_FORCE_MAX_ONLINE, BipartiteGraph, Matching,
                             Permutation, brute_force_maximum_matching,
                             graph_from_dict, graph_to_dict, maximum_matching,
                             random_bipartite, verify_matching)
from matchlab.rng import derive_seed, make_rng

SEED = 24601


def _fuzz_graph(index, max_online=10, max_offline=10, p=0.35):
    rng = make_rng(derive_seed(SEED, index))
    n = int(rng.integers(0, max_online + 1))
    m = int(rng.integers(1, max_offline + 1))
    return random_bipartite(n, m, p, rng)


def test_rows_are_sorted_read_only_views():
    g = BipartiteGraph.from_rows(2, 4, [[3, 0, 2], [1]])
    assert g.neighbors(0).tolist() == [0, 2, 3]
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 1


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        BipartiteGraph.from_rows(1, 2, [[2]])      # out of range
    with pytest.raises(ValueError):
        BipartiteGraph.from_rows(1, 2, [[-1]])
    with pytest.raises(ValueError):
        BipartiteGraph.from_rows(1, 2, [[0, 0]])   # duplicate edge
    with pytest.raises(ValueError):
        BipartiteGraph.from_rows(2, 2, [[0]])      # row count mismatch
    with pytest.raises(ValueError):
        BipartiteGraph.from_rows(-1, 2, [])
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [0, 1], [0.5])        # non-integer id
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [0, 2, 1], [0, 1])    # indptr falls
    with pytest.raises(ValueError):
        BipartiteGraph(1, 3, [0, 2], [2, 1])       # row not increasing


def test_degree_tables_and_edge_queries():
    g = BipartiteGraph.from_rows(3, 3, [[0, 1], [1], []])
    assert g.online_degrees.tolist() == [2, 1, 0]
    assert g.offline_degrees.tolist() == [1, 2, 0]
    assert g.has_edge(0, 1) and not g.has_edge(2, 0) and not g.has_edge(1, 2)
    assert g.offline_neighbors(1).tolist() == [0, 1]
    assert g.n_edges == 3


def test_both_side_indexes_agree_on_fuzz_graphs():
    for i in range(60):
        g = _fuzz_graph(i)
        edges = {(u, int(v)) for u in range(g.n_online) for v in g.neighbors(u)}
        back = {(int(u), v) for v in range(g.n_offline)
                for u in g.offline_neighbors(v)}
        assert edges == back
        assert len(edges) == g.n_edges


def test_adjacency_roundtrip_and_equality():
    g = _fuzz_graph(999, max_online=8)
    h = BipartiteGraph.from_rows(g.n_online, g.n_offline, g.adjacency())
    assert g == h
    assert graph_from_dict(graph_to_dict(g)) == g
    with pytest.raises(ValueError):
        graph_from_dict({"n_online": 1, "adj": [[0]]})
    empty_rows = graph_from_dict({"n_online": 2, "n_offline": 1, "adj": [[], [0]]})
    assert empty_rows.adjacency() == [[], [0]]


MALFORMED_GRAPH_DOCS = [
    {"n_online": 1, "n_offline": 2, "adj": [[0.9]]},     # float id
    {"n_online": 1, "n_offline": 2, "adj": [[True]]},    # bool id
    {"n_online": 1.0, "n_offline": 2, "adj": [[0]]},     # float count
    {"n_online": 1, "n_offline": "2", "adj": [[0]]},     # string count
    [[0]],                                               # not an object
    {"n_online": 1, "n_offline": 2, "adj": None},
    {"n_online": 1, "n_offline": 2, "adj": [0]},         # rows not lists
    {"n_online": True, "n_offline": 1, "adj": [[0]]},    # bool count
    {"n_online": 1, "n_offline": 10 ** 12, "adj": [[0]]},  # above the vertex cap
]


@pytest.mark.parametrize("doc", MALFORMED_GRAPH_DOCS)
def test_graph_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        graph_from_dict(doc)


def test_graph_from_dict_refuses_documents_above_the_edge_cap(monkeypatch):
    doc = {"n_online": 2, "n_offline": 2, "adj": [[0, 1], [1]]}
    monkeypatch.setattr(graphs, "MAX_EDGES", 2)
    with pytest.raises(ValueError, match="3 edges, above the cap of 2"):
        graph_from_dict(doc)
    monkeypatch.setattr(graphs, "MAX_EDGES", 3)
    assert graph_from_dict(doc).n_edges == 3


def test_matching_bookkeeping():
    m = Matching(3, 3)
    m.match(0, 2)
    m.match(2, 0)
    assert m.size == 2
    assert m.pairs() == [(0, 2), (2, 0)]
    assert m.matched_offline_mask().tolist() == [True, False, True]
    with pytest.raises(AssertionError):
        m.match(1, 2)  # offline side already taken


def test_verify_matching_accepts_valid_and_rejects_tampered():
    g = BipartiteGraph.from_rows(2, 2, [[0, 1], [0]])
    m = Matching(2, 2)
    m.match(0, 1)
    m.match(1, 0)
    assert verify_matching(g, m)
    m.partner_of_online[1] = 1          # not an edge of g
    assert not verify_matching(g, m)
    m.partner_of_online[1] = 0
    m.partner_of_offline[0] = 0         # partner maps disagree
    assert not verify_matching(g, m)
    assert not verify_matching(g, Matching(1, 2))  # wrong shape


def test_permutation_validation_and_inverse():
    p = Permutation([2, 0, 1])
    assert p.rank.tolist() == [1, 2, 0]
    assert len(p) == 3
    assert Permutation.identity(3) == Permutation([0, 1, 2])
    for bad in ([0, 0, 1], [0, 3, 1], [-1, 0, 1]):
        with pytest.raises(ValueError):
            Permutation(bad)
    rng = make_rng(SEED)
    q = Permutation.random(50, rng)
    assert q.order[q.rank].tolist() == list(range(50))


def test_maximum_matching_is_valid_and_matches_brute_force():
    for i in range(150):
        g = _fuzz_graph(i)
        fast = maximum_matching(g)
        assert verify_matching(g, fast)
        slow = brute_force_maximum_matching(g)
        assert verify_matching(g, slow)
        assert fast.size == slow.size, f"oracles disagree on graph {i}"


def test_brute_force_result_is_itself_a_matching_of_right_size():
    # the reconstruction walk must realize the counted optimum exactly
    for i in range(40):
        g = _fuzz_graph(200 + i, max_online=8, max_offline=6, p=0.5)
        m = brute_force_maximum_matching(g)
        assert verify_matching(g, m)
        assert m.size == maximum_matching(g).size


def test_brute_force_size_guard():
    g = random_bipartite(BRUTE_FORCE_MAX_ONLINE + 1, 3, 0.5, make_rng(1))
    with pytest.raises(ValueError):
        brute_force_maximum_matching(g)


def test_empty_and_degenerate_graphs():
    empty = BipartiteGraph.from_rows(0, 3, [])
    assert maximum_matching(empty).size == 0
    assert brute_force_maximum_matching(empty).size == 0
    no_edges = BipartiteGraph.from_rows(3, 3, [[], [], []])
    assert maximum_matching(no_edges).size == 0
    single = BipartiteGraph.from_rows(1, 1, [[0]])
    assert maximum_matching(single).size == 1


def test_random_bipartite_is_seed_deterministic():
    a = random_bipartite(12, 9, 0.3, make_rng(77))
    b = random_bipartite(12, 9, 0.3, make_rng(77))
    assert a == b
    with pytest.raises(ValueError):
        random_bipartite(3, 3, 1.5, make_rng(0))


def test_derive_seed_spreads_and_replays():
    xs = {derive_seed(SEED, i) for i in range(1000)}
    assert len(xs) == 1000
    assert derive_seed(SEED, 42) == derive_seed(SEED, 42)
    assert all(0 <= x < 2 ** 63 for x in xs)
