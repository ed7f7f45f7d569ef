"""Graph container, matchings, and the optimum oracles."""

import json
import tracemalloc

import numpy as np
import pytest

from matchlab import graphs
from matchlab.cli import graph_document
from matchlab.families import gen_besser_poloczek, gen_kvv_triangular
from matchlab.graphs import (BRUTE_FORCE_MAX_ONLINE, BipartiteGraph,
                             brute_force_maximum_matching, graph_from_dict,
                             matching_size, maximum_matching, verify_matching)
from matchlab.rng import derive_seed, make_rng

from conftest import neighbor_lists, offline_neighbors, random_bipartite

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
    with pytest.raises(ValueError, match="start <= stop"):
        BipartiteGraph.from_ranges(2, 3, ([0], [2], [1]))  # stop below start


def test_degree_tables_and_edge_queries():
    g = BipartiteGraph.from_rows(3, 3, [[0, 1], [1], []])
    assert g.online_degrees.tolist() == [2, 1, 0]
    assert g.offline_degrees.tolist() == [1, 2, 0]
    assert offline_neighbors(g, 1).tolist() == [0, 1]
    assert g.n_edges == 3
    for u, v, edge in [(0, 1, True), (2, 0, False), (1, 2, False)]:
        partner = np.full(3, -1)
        partner[u] = v  # one pair, so only the edge is checked
        assert verify_matching(g, partner) == edge


def test_both_side_indexes_agree_on_fuzz_graphs():
    for i in range(60):
        g = _fuzz_graph(i)
        edges = {(u, int(v)) for u in range(g.n_online) for v in g.neighbors(u)}
        back = {(int(u), v) for v in range(g.n_offline)
                for u in offline_neighbors(g, v)}
        assert edges == back
        assert len(edges) == g.n_edges


def test_scipy_views_share_the_graph_buffers():
    g = BipartiteGraph.from_rows(3, 4, [[0, 2], [], [1, 2, 3]])
    csr = g.to_csr()
    assert np.shares_memory(csr.indices, g.indices)
    assert np.shares_memory(csr.indptr, g.indptr)
    assert csr.indices.dtype == csr.indptr.dtype == np.int64


def test_the_transpose_peaks_near_the_size_of_its_result():
    # csr_matrix downcast to int32, transposed, then recast: 1.51x
    import scipy.sparse  # noqa: F401 -- the import's own allocations stay untraced
    g, _ = gen_besser_poloczek(40)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = g.indices_offline
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * result.nbytes


def test_adjacency_roundtrip_and_equality():
    g = _fuzz_graph(999, max_online=8)
    h = BipartiteGraph.from_rows(g.n_online, g.n_offline, neighbor_lists(g))
    assert g == h
    assert graph_from_dict(json.loads("".join(graph_document(g, {})))) == g
    with pytest.raises(ValueError):
        graph_from_dict({"n_online": 1, "adj": [[0]]})
    empty_rows = graph_from_dict({"n_online": 2, "n_offline": 1, "adj": [[], [0]]})
    assert neighbor_lists(empty_rows) == [[], [0]]


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


def test_offline_degrees_are_counted_without_copying_the_edges():
    # np.bincount copies a read-only input: 8 MB of `indices` here
    g, _ = gen_kvv_triangular(1414)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        degrees = g.offline_degrees
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.indices.nbytes > 8 * 10**6 and peak < 2 * 2**20
    assert np.array_equal(degrees, np.arange(1, 1415))


def test_matching_size_counts_matched_online_vertices():
    assert matching_size(np.array([2, -1, 0])) == 2
    assert matching_size(np.full(4, -1)) == 0
    assert matching_size(np.empty(0, dtype=np.int64)) == 0


@pytest.mark.parametrize("partner", [
    np.array([0, 0]),            # duplicate offline partner
    np.array([0, 1]),            # (1, 1) is not an edge of g
    np.array([1, 0, -1]),        # wrong shape
    np.array([[1, 0]]),          # wrong shape: 2-D
    np.array([1.0, 0.0]),        # float dtype
    np.array([1, 2]),            # offline id out of range
    np.array([-2, 0]),           # negative id other than -1
])
def test_verify_matching_rejects_invalid_partner_arrays(partner):
    g = BipartiteGraph.from_rows(2, 2, [[0, 1], [0]])
    assert verify_matching(g, np.array([1, 0]))
    assert verify_matching(g, np.array([-1, 0]))
    assert not verify_matching(g, partner)


def test_maximum_matching_is_valid_and_matches_brute_force():
    for i in range(150):
        g = _fuzz_graph(i)
        fast = maximum_matching(g)
        assert verify_matching(g, fast)
        slow = brute_force_maximum_matching(g)
        assert verify_matching(g, slow)
        assert matching_size(fast) == matching_size(slow), f"oracles disagree on graph {i}"


def test_brute_force_result_is_itself_a_matching_of_right_size():
    # the partner tuple kept for the fullest mask must realize the optimum
    for i in range(40):
        g = _fuzz_graph(200 + i, max_online=8, max_offline=6, p=0.5)
        m = brute_force_maximum_matching(g)
        assert verify_matching(g, m)
        assert matching_size(m) == matching_size(maximum_matching(g))


def test_brute_force_size_guard():
    g = random_bipartite(BRUTE_FORCE_MAX_ONLINE + 1, 3, 0.5, make_rng(1))
    with pytest.raises(ValueError):
        brute_force_maximum_matching(g)


def test_empty_and_degenerate_graphs():
    empty = BipartiteGraph.from_rows(0, 3, [])
    assert matching_size(maximum_matching(empty)) == 0
    assert matching_size(brute_force_maximum_matching(empty)) == 0
    no_edges = BipartiteGraph.from_rows(3, 3, [[], [], []])
    assert matching_size(maximum_matching(no_edges)) == 0
    single = BipartiteGraph.from_rows(1, 1, [[0]])
    assert matching_size(maximum_matching(single)) == 1


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
