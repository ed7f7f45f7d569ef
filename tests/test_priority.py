"""Degree-driven matching: selection loop, bookkeeping, offline-pass twin."""

import itertools

import numpy as np
import pytest

from matchlab.families import gen_h_graph, gen_kvv_triangular
from matchlab.graphs import (BipartiteGraph, Permutation, random_bipartite,
                             verify_matching)
from matchlab.priority import (run_min_greedy, run_min_ranking,
                               run_min_ranking_fixed, run_rhs_greedy)
from matchlab.rng import derive_seed, make_rng

SEED = 55511


def _is_maximal(g, m):
    for u in range(g.n_online):
        if m.partner_of_online[u] >= 0:
            continue
        nb = g.neighbors(u)
        if nb.size and np.any(m.partner_of_offline[nb] < 0):
            return False
    return True


def test_min_greedy_perfect_on_triangular_graphs():
    g, _ = gen_kvv_triangular(60)
    for s in range(20):
        assert run_min_greedy(g, derive_seed(SEED, s)).size == 60


def test_min_ranking_perfect_on_triangular_graphs():
    # the minimum-degree vertex always sits on the unmatched diagonal
    # front with a single free neighbor, so the priority list never hurts
    g, _ = gen_kvv_triangular(40)
    for s in range(20):
        assert run_min_ranking(g, derive_seed(SEED, 100 + s)).size == 40


def test_min_algorithms_trivial_cases():
    single = BipartiteGraph.from_rows(1, 1, [[0]])
    assert run_min_greedy(single, 0).size == 1
    assert run_min_ranking(single, 0).size == 1
    n = 7
    biclique = BipartiteGraph.from_rows(n, n, [list(range(n))] * n)
    assert run_min_greedy(biclique, 3).size == n
    assert run_min_ranking(biclique, 3).size == n


def test_min_algorithms_are_valid_maximal_and_deterministic():
    for i in range(40):
        rng = make_rng(derive_seed(SEED, 200 + i))
        g = random_bipartite(int(rng.integers(1, 15)), int(rng.integers(1, 15)),
                             0.3, rng)
        for run in (run_min_greedy, run_min_ranking):
            m = run(g, derive_seed(SEED, i))
            assert verify_matching(g, m)
            assert _is_maximal(g, m)
            assert m == run(g, derive_seed(SEED, i))


def test_isolated_vertices_consume_iterations_but_never_match():
    g = BipartiteGraph.from_rows(3, 2, [[0], [], [0, 1]])
    states = []
    m = run_min_greedy(g, 12, on_step=states.append)
    assert len(states) == g.n_online      # one selection per online vertex
    assert m.partner_of_online[1] == -1
    assert m.size == 2


def test_live_state_degree_bookkeeping_matches_recomputation():
    for i in range(25):
        rng = make_rng(derive_seed(SEED, 300 + i))
        g = random_bipartite(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                             0.35, rng)
        checks = []
        run_min_ranking(g, derive_seed(SEED, 400 + i),
                        on_step=lambda st: checks.append(st.verify(g)))
        assert all(checks)


def test_alive_degrees_stay_equal_on_hub_pendant_graphs():
    # every unmatched online vertex keeps the same current degree, which
    # is what makes the offline-pass twin below exact
    for n, k in ((4, 2), (5, 5), (6, 0), (3, 1)):
        g, _ = gen_h_graph(n, k)

        def all_equal(st):
            alive = st.curdeg[st.alive_online_mask()]
            return alive.size == 0 or int(alive.min()) == int(alive.max())

        flags = []
        run_min_ranking(g, derive_seed(SEED, n * 10 + k),
                        on_step=lambda st: flags.append(all_equal(st)))
        assert all(flags)


def test_offline_pass_hand_cases():
    g, desc = gen_h_graph(1, 1)
    m, pendants = run_rhs_greedy(g, desc, Permutation([1, 0]))  # pendant first
    assert pendants == 1 and m.pairs() == [(0, 1)]
    m, pendants = run_rhs_greedy(g, desc, Permutation([0, 1]))  # hub first
    assert pendants == 0 and m.pairs() == [(0, 0)]

    g3, desc3 = gen_h_graph(3, 0)
    m, pendants = run_rhs_greedy(g3, desc3, Permutation([2, 0, 1]))
    assert pendants == 3 and m.size == 3


def test_offline_pass_pendant_count_matches_the_matching():
    for i in range(30):
        rng = make_rng(derive_seed(SEED, 600 + i))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        g, desc = gen_h_graph(n, k)
        order = Permutation.random(n + k, rng)
        m, pendants = run_rhs_greedy(g, desc, order)
        assert verify_matching(g, m)
        assert pendants == sum(1 for _, v in m.pairs() if v >= k)


def test_offline_pass_rejects_wrong_shape_or_order():
    g, desc = gen_kvv_triangular(3)
    with pytest.raises(ValueError):
        run_rhs_greedy(g, desc, Permutation.identity(3))
    h, hdesc = gen_h_graph(2, 1)
    with pytest.raises(ValueError):
        run_rhs_greedy(h, hdesc, Permutation.identity(2))  # wrong length


def test_offline_pass_equals_fixed_priority_run_on_small_graphs():
    # exhaustive over every offline order; the acceptance suite repeats
    # this up to 7 offline vertices
    for n in range(1, 5):
        for k in range(0, min(n, 4 - n + 1) + 1):
            g, desc = gen_h_graph(n, k)
            for perm in itertools.permutations(range(n + k)):
                order = Permutation(list(perm))
                twin = run_min_ranking_fixed(g, order)
                mine, _ = run_rhs_greedy(g, desc, order)
                assert mine == twin, (n, k, perm)


def test_fixed_priority_run_validates_input():
    g, _ = gen_kvv_triangular(3)
    with pytest.raises(ValueError):
        run_min_ranking_fixed(g, Permutation.identity(2))
