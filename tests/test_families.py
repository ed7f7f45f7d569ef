"""Instance generators: shapes, degrees, block maps, and optima."""

import math

import numpy as np
import pytest

from matchlab.families import (FAMILIES, MAX_FIB_INDEX, build_family,
                               fibonacci, gadget_slack, gen_besser_poloczek,
                               gen_fibonacci_family, gen_goel_mehta,
                               gen_h_graph, gen_kvv_triangular,
                               gen_min_degree_hard)
from matchlab.graphs import (MAX_EDGES, MAX_VERTICES, BipartiteGraph,
                             maximum_matching)
from matchlab.iid import sample_instance, materialize_instance
from matchlab.rng import derive_seed


def _block_sizes(blocks):
    return {name: hi - lo for name, (lo, hi) in blocks.items()}


def _assert_blocks_partition(blocks, n):
    spans = sorted(blocks.values())
    assert spans[0][0] == 0 and spans[-1][1] == n
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi == lo, "blocks must tile the side without gaps"


def test_fibonacci_values_and_guards():
    assert [fibonacci(i) for i in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fibonacci(MAX_FIB_INDEX) == 7540113804746346429
    for bad in (0, -2, MAX_FIB_INDEX + 1):
        with pytest.raises(ValueError):
            fibonacci(bad)
    # consecutive even/odd-index ratios approach the inverse golden ratio
    assert abs(fibonacci(10) / fibonacci(11) - 2 / (1 + math.sqrt(5))) < 1e-4


def test_fibonacci_family_base_case_is_the_two_by_two_graph():
    g, desc = gen_fibonacci_family(1)
    assert g.adjacency() == [[0, 1], [0]]
    assert desc.expected_opt == 2 == maximum_matching(g).size


@pytest.mark.parametrize("k", range(1, 8))
def test_fibonacci_family_sizes_and_perfect_matching(k):
    g, desc = gen_fibonacci_family(k)
    side = fibonacci(2 * k + 1)
    assert g.n_online == g.n_offline == side
    assert desc.expected_opt == side
    assert maximum_matching(g).size == side


@pytest.mark.parametrize("k", range(2, 7))
def test_fibonacci_family_recursive_block_structure(k):
    g, desc = gen_fibonacci_family(k)
    sizes = _block_sizes(desc.online_blocks)
    assert sizes["U1"] == sizes["U3"] == fibonacci(2 * k - 1)
    assert sizes["U2"] == fibonacci(2 * k - 2)
    off = _block_sizes(desc.offline_blocks)
    assert [off[f"V{i}"] for i in (1, 2, 3)] == [sizes[f"U{i}"] for i in (1, 2, 3)]
    _assert_blocks_partition(desc.online_blocks, g.n_online)

    u1 = desc.online_blocks["U1"]
    u2 = desc.online_blocks["U2"]
    u3 = desc.online_blocks["U3"]
    v1 = desc.offline_blocks["V1"]
    v2 = desc.offline_blocks["V2"]
    v3 = desc.offline_blocks["V3"]
    # the previous level sits embedded between U1 and V3
    prev, _ = gen_fibonacci_family(k - 1)
    embedded = [sorted(int(v) - v3[0] for v in g.neighbors(u) if v >= v3[0])
                for u in range(*u1)]
    assert embedded == prev.adjacency()
    for u in range(*u1):        # U1 is complete to V1
        nb = set(map(int, g.neighbors(u)))
        assert set(range(*v1)) <= nb
    for i, u in enumerate(range(*u2)):   # U2: V1 biclique + parallel V2 edge
        assert set(map(int, g.neighbors(u))) == set(range(*v1)) | {v2[0] + i}
    for i, u in enumerate(range(*u3)):   # U3: single parallel edge into V1
        assert g.neighbors(u).tolist() == [v1[0] + i]


def test_fibonacci_family_parameter_guards():
    for bad in (0, -1, 12):
        with pytest.raises(ValueError):
            gen_fibonacci_family(bad)


def test_kvv_triangular_structure():
    g, desc = gen_kvv_triangular(3)
    assert g.adjacency() == [[0, 1, 2], [1, 2], [2]]
    assert g.online_degrees.tolist() == [3, 2, 1]
    assert desc.expected_opt == 3
    big, desc_big = gen_kvv_triangular(200)
    assert maximum_matching(big).size == 200 == desc_big.expected_opt
    with pytest.raises(ValueError):
        gen_kvv_triangular(0)


@pytest.mark.parametrize("b", [2, 3, 5])
def test_besser_poloczek_matches_independent_construction(b):
    g, desc = gen_besser_poloczek(b)
    b2 = b * b
    side = 2 * b2 + 2 * b
    assert g.n_online == g.n_offline == side
    expected = []
    for i in range(b2):
        expected.append(sorted([b2 + i] + list(range(2 * b2, side))))
    for i in range(b2):
        blk = i // b
        expected.append(sorted([i] + list(range(b2 + blk * b, b2 + blk * b + b))))
    for j in range(2 * b):
        expected.append(sorted(list(range(b2)) + [2 * b2 + j]))
    assert g.adjacency() == expected
    _assert_blocks_partition(desc.online_blocks, side)
    assert desc.extra["sub_block_size"] == b


def test_besser_poloczek_degrees_and_optimum():
    b = 4
    g, desc = gen_besser_poloczek(b)
    b2 = b * b
    deg = g.online_degrees
    assert set(deg[:b2]) == {2 * b + 1}          # S1
    assert set(deg[b2:2 * b2]) == {b + 1}        # S2, the minimum
    assert set(deg[2 * b2:]) == {b2 + 1}         # S3
    assert int(deg.min()) == b + 1
    assert maximum_matching(g).size == desc.expected_opt == 2 * b2 + 2 * b
    with pytest.raises(ValueError):
        gen_besser_poloczek(1)


def test_h_graph_shape_and_optimum():
    g, desc = gen_h_graph(5, 3)
    assert g.n_online == 5 and g.n_offline == 8
    assert g.adjacency()[0] == [0, 1, 2, 3]
    assert g.adjacency()[4] == [0, 1, 2, 7]
    assert desc.offline_blocks == {"V1": (0, 3), "V2": (3, 8)}
    assert maximum_matching(g).size == 5
    flat, _ = gen_h_graph(3, 0)
    assert flat.adjacency() == [[0], [1], [2]]
    for n, k in ((0, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError):
            gen_h_graph(n, k)


def test_goel_mehta_degree_laws():
    L, N = 2, 4
    g, desc = gen_goel_mehta(L, N)
    assert g.n_online == g.n_offline == L * N
    for j in range(1, N + 1):
        lo, hi = desc.online_blocks[f"U{j}"]
        assert set(g.online_degrees[lo:hi]) == {(N - j + 1) * L}
    for i in range(1, N + 1):
        lo, hi = desc.offline_blocks[f"V{i}"]
        assert set(g.offline_degrees[lo:hi]) == {i * L}
    # block-triangular edge rule: U_j complete to V_i exactly when i >= j
    for u in range(L * N):
        j = u // L
        assert g.neighbors(u).tolist() == list(range(j * L, L * N))
    assert maximum_matching(g).size == desc.expected_opt == L * N
    with pytest.raises(ValueError):
        gen_goel_mehta(0, 3)


def test_gadget_slack_formula():
    assert gadget_slack(1) == math.ceil(3 * math.sqrt(math.log(2)))
    assert gadget_slack(10) == math.ceil(3 * math.sqrt(10 * math.log(10)))
    with pytest.raises(ValueError):
        gadget_slack(0)


def test_min_degree_hard_equalizes_copy_degrees():
    L, N, K = 5, 4, 3
    g, desc = gen_min_degree_hard(L, N, K)
    ln = L * N
    copy_deg = g.offline_degrees[:ln * K]
    # gadget bicliques top up every copy-offline vertex to the same degree
    assert set(map(int, copy_deg)) == {(N + 1) * L}
    cap = desc.extra["gadget_capacity"]
    assert cap == L + gadget_slack(L)
    for lo, hi in desc.extra["gadget_offline"]:
        assert set(map(int, g.offline_degrees[lo:hi])) == {L}
    assert g.n_online == ln * K + N * L
    assert g.n_offline == ln * K + N * cap
    assert desc.expected_opt == ln * K + N * L
    assert maximum_matching(g).size == desc.expected_opt


def test_min_degree_hard_smallest_case_structure():
    g, desc = gen_min_degree_hard(1, 1, 1)
    cap = 1 + gadget_slack(1)
    assert g.n_online == 2 and g.n_offline == 1 + cap
    assert g.adjacency()[0] == [0]                       # the lone copy edge
    assert g.adjacency()[1] == list(range(0, 1 + cap))   # gadget sees both
    with pytest.raises(ValueError):
        gen_min_degree_hard(0, 1, 1)


def test_min_degree_hard_sampled_optimum_stays_near_copy_count():
    # Monte Carlo floor for the sampled optimum at the headline parameters
    L, N, K = 10, 10, 20
    g, desc = gen_min_degree_hard(L, N, K)
    samples = 100
    total = 0
    for t in range(samples):
        inst = sample_instance(g, derive_seed(36151, t))
        total += maximum_matching(materialize_instance(g, inst)).size
    assert total / samples >= 0.95 * (L * N * K)


def test_descriptor_serialization_round_trips_block_maps():
    _, desc = gen_goel_mehta(2, 3)
    d = desc.to_dict()
    assert d["family"] == "goel_mehta"
    assert d["params"] == {"L": 2, "N": 3}
    assert d["online_blocks"]["U1"] == [0, 2]
    assert d["expected_opt"] == 6


# eight spot cases, then a small grid over every family
SIZE_CASES = [
    ("fibonacci", {"k": 1}), ("fibonacci", {"k": 5}), ("kvv", {"n": 7}),
    ("bp", {"b": 3}), ("hgraph", {"n": 5, "k": 2}), ("hgraph", {"n": 3, "k": 0}),
    ("goelmehta", {"L": 2, "N": 3}), ("mindegreehard", {"L": 3, "N": 2, "K": 2}),
    *[("fibonacci", {"k": k}) for k in range(1, 7)],
    *[("kvv", {"n": n}) for n in range(1, 9)],
    *[("bp", {"b": b}) for b in range(2, 6)],
    *[("hgraph", {"n": n, "k": k}) for n in range(1, 6) for k in range(n + 1)],
    *[("goelmehta", {"L": L, "N": N}) for L in (1, 2, 3) for N in (1, 2, 3)],
    *[("mindegreehard", {"L": L, "N": N, "K": K})
      for L in (1, 2) for N in (1, 2) for K in (1, 2)],
]


@pytest.mark.parametrize("family,params", SIZE_CASES)
def test_edge_count_formula_matches_the_built_graph(family, params):
    _, names, sizes = FAMILIES[family]
    g, _ = build_family(family, params)
    assert sizes(*(params[p] for p in names)) == (g.n_online, g.n_offline, g.n_edges)


def _edges(family, *args):
    return FAMILIES[family][2](*args)[2]


def test_edge_cap_covers_the_benchmark_graphs_and_refuses_huge_ones():
    assert _edges("bp", 100) == 5_020_200  # the largest benchmark graph
    assert MAX_EDGES >= 10 * _edges("bp", 100)
    assert _edges("kvv", 10 ** 6) == 500_000_500_000 > MAX_EDGES
    assert _edges("fibonacci", 10) < MAX_EDGES < _edges("fibonacci", 11)
    # the fibonacci generator's own guard and the caps refuse every k it
    # cannot build
    for k, message in ((0, "k must lie in 1..11"), (12, "above the cap"),
                       (100, "fibonacci index must lie")):
        with pytest.raises(ValueError, match=message):
            build_family("fibonacci", {"k": k})


def test_vertex_cap_refuses_families_the_edge_cap_lets_through(monkeypatch):
    assert FAMILIES["bp"][2](100)[:2] == (20_200, 20_200)  # largest benchmark graph
    assert MAX_VERTICES >= 99 * 20_200

    def never(*args):
        raise AssertionError("a family above the cap must not be generated")
    for family, params in (("hgraph", {"n": 60_000_000, "k": 0}),
                           ("mindegreehard", {"L": 1, "N": 1, "K": 29_999_998})):
        _, names, sizes = entry = FAMILIES[family]
        assert sizes(*(params[p] for p in names))[2] == MAX_EDGES
        monkeypatch.setitem(FAMILIES, family, (never, *entry[1:]))
        with pytest.raises(ValueError, match=f"above the cap of {MAX_VERTICES} per side"):
            build_family(family, params)


def test_build_family_takes_integer_parameters_only():
    assert build_family("kvv", {"n": np.int64(3)})[0].n_online == 3
    with pytest.raises(TypeError):
        build_family("kvv", {"n": 2.9})
