"""Instance generators: shapes, degrees, block maps, and optima."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import cli
from matchlab.families import (FAMILIES, MAX_FIB_INDEX, FamilyDescriptor,
                               build_family, fibonacci, gadget_slack,
                               gen_besser_poloczek, gen_fibonacci_family,
                               gen_goel_mehta, gen_h_graph,
                               gen_kvv_triangular, gen_min_degree_hard)
from matchlab.graphs import (MAX_EDGES, MAX_VERTICES, BipartiteGraph,
                             matching_size, maximum_matching, verify_matching)
from matchlab.iid import sample_instance, materialize_instance
from matchlab.rng import derive_seed

from conftest import neighbor_lists


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
    assert neighbor_lists(g) == [[0, 1], [0]]
    assert matching_size(desc.matching) == 2 == matching_size(maximum_matching(g))


@pytest.mark.parametrize("k", range(1, 8))
def test_fibonacci_family_sizes_and_perfect_matching(k):
    g, desc = gen_fibonacci_family(k)
    side = fibonacci(2 * k + 1)
    assert g.n_online == g.n_offline == side
    assert matching_size(desc.matching) == side
    assert matching_size(maximum_matching(g)) == side


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
    assert embedded == neighbor_lists(prev)
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
    assert neighbor_lists(g) == [[0, 1, 2], [1, 2], [2]]
    assert g.online_degrees.tolist() == [3, 2, 1]
    assert matching_size(desc.matching) == 3
    big, desc_big = gen_kvv_triangular(200)
    assert matching_size(maximum_matching(big)) == 200 == matching_size(desc_big.matching)
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
    assert neighbor_lists(g) == expected
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
    assert (matching_size(maximum_matching(g)) == matching_size(desc.matching)
            == 2 * b2 + 2 * b)
    with pytest.raises(ValueError):
        gen_besser_poloczek(1)


def test_h_graph_shape_and_optimum():
    g, desc = gen_h_graph(5, 3)
    assert g.n_online == 5 and g.n_offline == 8
    assert g.neighbors(0).tolist() == [0, 1, 2, 3]
    assert g.neighbors(4).tolist() == [0, 1, 2, 7]
    assert desc.offline_blocks == {"V1": (0, 3), "V2": (3, 8)}
    assert matching_size(maximum_matching(g)) == 5
    flat, _ = gen_h_graph(3, 0)
    assert neighbor_lists(flat) == [[0], [1], [2]]
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
    assert matching_size(maximum_matching(g)) == matching_size(desc.matching) == L * N
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
    assert matching_size(desc.matching) == ln * K + N * L
    assert matching_size(maximum_matching(g)) == matching_size(desc.matching)


def test_min_degree_hard_smallest_case_structure():
    g, desc = gen_min_degree_hard(1, 1, 1)
    cap = 1 + gadget_slack(1)
    assert g.n_online == 2 and g.n_offline == 1 + cap
    assert g.neighbors(0).tolist() == [0]                       # the lone copy edge
    assert g.neighbors(1).tolist() == list(range(0, 1 + cap))   # gadget sees both
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
        total += matching_size(maximum_matching(materialize_instance(g, inst)))
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


def test_repeated_builds_share_one_frozen_pair():
    g, desc = build_family("kvv", {"n": 4})
    again = build_family("kvv", {"n": np.int64(4)})
    assert again[0] is g and again[1] is desc
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.family = "kvv2"


# (family, generator arguments) over small sizes of all six families
SMALL_FAMILIES = st.one_of(
    st.tuples(st.just("fibonacci"), st.tuples(st.integers(1, 6))),
    st.tuples(st.just("kvv"), st.tuples(st.integers(1, 40))),
    st.tuples(st.just("bp"), st.tuples(st.integers(2, 7))),
    st.tuples(st.just("hgraph"), st.integers(1, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n)))),
    st.tuples(st.just("goelmehta"), st.tuples(st.integers(1, 6), st.integers(1, 6))),
    st.tuples(st.just("mindegreehard"),
              st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(SMALL_FAMILIES, st.data())
def test_each_family_certifies_its_optimum_with_its_own_matching(case, data):
    family, args = case
    gen, names, sizes = FAMILIES[family]
    g, desc = gen(*args)
    assert verify_matching(g, desc.matching)
    assert matching_size(desc.matching) == g.n_online == matching_size(maximum_matching(g))
    # unmatched, a non-edge, or another vertex's partner: build_family
    # must refuse each
    u = data.draw(st.integers(0, g.n_online - 1))
    wrong = [-1, *np.setdiff1d(np.arange(g.n_offline), g.neighbors(u))[:1]]
    if g.n_online > 1:
        wrong.append(desc.matching[(u + 1) % g.n_online])
    for v in wrong:
        bad = desc.matching.copy()
        bad[u] = v
        corrupt = dataclasses.replace(desc, matching=bad)
        with mock.patch.dict(FAMILIES, {family: (lambda *_: (g, corrupt), names, sizes)}):
            with pytest.raises(ValueError, match="not a perfect matching"):
                build_family(family, dict(zip(names, args)))


def test_a_family_whose_matching_fails_is_refused_and_never_cached(monkeypatch, capsys):
    calls = []

    def broken(n):
        calls.append(n)
        g, desc = gen_kvv_triangular(n)
        return g, dataclasses.replace(desc, matching=np.roll(desc.matching, 1))
    monkeypatch.setitem(FAMILIES, "kvv", (broken, *FAMILIES["kvv"][1:]))
    for _ in range(2):
        with pytest.raises(ValueError, match="family 'kvv' n=5: its matching is not"):
            build_family("kvv", {"n": 5})
    assert calls == [5, 5]  # generated again: the refused pair was not cached
    for argv in (["generate", "kvv", "n=5"], ["run", "kvv", "n=5", "--algorithm", "greedy"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "is not a perfect matching of the online side" in err


# Reference generators: one neighbour array per online vertex, joined by
# from_rows, and one partner per online vertex.  The generators in
# matchlab.families compute the same rows as runs of consecutive offline
# ids and their partners as arrays, and must build equal graphs and
# matchings.

def rows_fibonacci_family(k):
    adj = [np.array([0, 1]), np.array([0])]
    partner = [1, 0]
    top = bot = 0
    for level in range(1, k):
        a = fibonacci(2 * level + 1)
        b = fibonacci(2 * level)
        v1 = np.arange(a)
        new_adj = []
        for u in range(a):             # U1: complete to V1, copy into V3
            new_adj.append(np.concatenate([v1, adj[u] + a + b]))
        for i in range(b):             # U2: complete to V1, parallel to V2
            new_adj.append(np.concatenate([v1, [a + i]]))
        for i in range(a):             # U3: parallel to V1
            new_adj.append(np.array([i]))
        adj = new_adj
        partner = ([p + a + b for p in partner] + [a + i for i in range(b)]
                   + list(range(a)))
        top, bot = a, b
    side = fibonacci(2 * k + 1)
    g = BipartiteGraph.from_rows(side, side, adj)
    if k == 1:
        on_blocks, off_blocks = {"U": (0, side)}, {"V": (0, side)}
    else:
        on_blocks = {"U1": (0, top), "U2": (top, top + bot), "U3": (top + bot, side)}
        off_blocks = {"V1": (0, top), "V2": (top, top + bot), "V3": (top + bot, side)}
    return g, FamilyDescriptor(family="fibonacci", params={"k": k},
                               online_blocks=on_blocks, offline_blocks=off_blocks,
                               matching=np.array(partner))


def rows_kvv_triangular(n):
    g = BipartiteGraph.from_rows(n, n, [np.arange(i, n) for i in range(n)])
    return g, FamilyDescriptor(family="kvv", params={"n": n},
                               online_blocks={"U": (0, n)},
                               offline_blocks={"V": (0, n)}, matching=np.arange(n))


def rows_besser_poloczek(b):
    b2 = b * b
    side = 2 * b2 + 2 * b
    s3 = np.arange(2 * b2, side)
    adj = []
    for i in range(b2):          # S1 online: parallel partner + S3 offline
        adj.append(np.concatenate([[b2 + i], s3]))
    for i in range(b2):          # S2 online: parallel partner + own sub-block
        blk = i // b
        adj.append(np.concatenate([[i], np.arange(b2 + blk * b, b2 + (blk + 1) * b)]))
    for j in range(2 * b):       # S3 online: S1 offline + parallel partner
        adj.append(np.concatenate([np.arange(b2), [2 * b2 + j]]))
    g = BipartiteGraph.from_rows(side, side, adj)
    blocks = {"S1": (0, b2), "S2": (b2, 2 * b2), "S3": (2 * b2, side)}
    return g, FamilyDescriptor(family="besser_poloczek", params={"b": b},
                               online_blocks=dict(blocks), offline_blocks=dict(blocks),
                               extra={"sub_block_size": b},
                               matching=np.array([b2 + i for i in range(b2)]
                                                 + [i for i in range(b2)]
                                                 + [2 * b2 + j for j in range(2 * b)]))


def rows_h_graph(n, k):
    hub = np.arange(k)
    adj = [np.concatenate([hub, [k + i]]) for i in range(n)]
    g = BipartiteGraph.from_rows(n, k + n, adj)
    return g, FamilyDescriptor(family="hgraph", params={"n": n, "k": k},
                               online_blocks={"U": (0, n)},
                               offline_blocks={"V1": (0, k), "V2": (k, k + n)},
                               matching=k + np.arange(n))


def rows_goel_mehta(L, N):
    n = L * N
    g = BipartiteGraph.from_rows(n, n, [np.arange((u // L) * L, n) for u in range(n)])
    return g, FamilyDescriptor(
        family="goel_mehta", params={"L": L, "N": N},
        online_blocks={f"U{j}": ((j - 1) * L, j * L) for j in range(1, N + 1)},
        offline_blocks={f"V{i}": ((i - 1) * L, i * L) for i in range(1, N + 1)},
        matching=np.arange(n))


def rows_min_degree_hard(L, N, K):
    ln = L * N
    slack = gadget_slack(L)
    cap = L + slack
    n_online = ln * K + N * L
    n_offline = ln * K + N * cap
    adj = []
    partner = list(range(ln * K))  # each copy row's own column
    for i in range(K):
        base = i * ln
        for u in range(ln):
            j = u // L  # 0-based copy block
            adj.append(np.arange(base + j * L, base + ln))
    gadget_online = []
    gadget_offline = []
    for j in range(1, N + 1):
        start = ln * K + (j - 1) * L
        gadget_online.append((start, start + L))
        ostart = ln * K + (j - 1) * cap
        gadget_offline.append((ostart, ostart + cap))
        own = np.arange(ostart, ostart + cap)
        copies = [np.arange(i * ln, i * ln + j * L) for i in range(K)]
        row = np.concatenate(copies + [own])
        for r in range(L):
            adj.append(row)
            partner.append(ostart + r)
    g = BipartiteGraph.from_rows(n_online, n_offline, adj)
    return g, FamilyDescriptor(
        family="min_degree_hard", params={"L": L, "N": N, "K": K},
        online_blocks={"copies": (0, ln * K), "gadgets": (ln * K, n_online)},
        offline_blocks={"copies": (0, ln * K), "gadgets": (ln * K, n_offline)},
        matching=np.array(partner),
        extra={"slack": slack, "gadget_capacity": cap,
               "gadget_online": gadget_online, "gadget_offline": gadget_offline,
               "copy_online": [(i * ln, (i + 1) * ln) for i in range(K)],
               "copy_offline": [(i * ln, (i + 1) * ln) for i in range(K)]})


REFERENCE_CASES = [
    *[(gen_besser_poloczek, rows_besser_poloczek, (b,)) for b in (2, 3, 4, 5, 6, 25)],
    *[(gen_kvv_triangular, rows_kvv_triangular, (n,)) for n in (1, 2, 7, 200)],
    *[(gen_fibonacci_family, rows_fibonacci_family, (k,)) for k in range(1, 10)],
    *[(gen_h_graph, rows_h_graph, nk) for nk in ((1, 0), (6, 0), (6, 6), (6, 2), (1, 1))],
    *[(gen_goel_mehta, rows_goel_mehta, LN) for LN in ((1, 1), (1, 7), (7, 1), (20, 20))],
    *[(gen_min_degree_hard, rows_min_degree_hard, LNK)
      for LNK in ((1, 1, 1), (2, 2, 2), (3, 4, 1), (10, 10, 20))],
]


@pytest.mark.parametrize("gen,reference,args", REFERENCE_CASES,
                         ids=lambda x: getattr(x, "__name__", None))
def test_range_generators_equal_the_row_list_references(gen, reference, args):
    g, desc = gen(*args)
    ref_g, ref_desc = reference(*args)
    assert g == ref_g
    assert desc.to_dict() == ref_desc.to_dict()
    assert np.array_equal(desc.matching, ref_desc.matching)
    assert desc.matching.dtype == np.int64 and not desc.matching.flags.writeable


@pytest.mark.parametrize("gen,args", [(gen_besser_poloczek, (40,)),
                                      (gen_kvv_triangular, (1000,)),
                                      (gen_fibonacci_family, (7,)),
                                      (gen_min_degree_hard, (10, 10, 20))])
def test_a_build_peaks_near_the_size_of_its_edge_array(gen, args):
    # row-list generators held every edge twice while joining their rows
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g, _ = gen(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * g.indices.nbytes


def test_empty_runs_are_dropped_before_the_sort():
    # hgraph k=0 gives every row an empty hub run; sorted along with the
    # pendant runs they took the peak to 18.3x the edge array, 15.0x without
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g, _ = gen_h_graph(100_000, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * g.indices.nbytes


def test_many_copies_build_without_a_python_object_per_copy():
    # the edges into every copy are one broadcast block; a Python tuple per
    # copy peaks near 80 MB here, against a 1.6 MB edge array
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gen_min_degree_hard(1, 1, 100_000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
