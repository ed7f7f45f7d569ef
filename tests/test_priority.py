"""Degree-driven matching: selection loop, bookkeeping, offline-pass twin."""

import itertools

import numpy as np
import pytest

from matchlab import priority
from matchlab.families import gen_h_graph, gen_kvv_triangular
from matchlab.graphs import BipartiteGraph, matching_size, verify_matching
from matchlab.priority import (run_min_greedy, run_min_ranking,
                               run_min_ranking_fixed, run_rhs_greedy)
from matchlab.rng import derive_seed, make_rng

from conftest import is_maximal, random_bipartite

SEED = 55511


def test_min_greedy_perfect_on_triangular_graphs():
    g, _ = gen_kvv_triangular(60)
    for s in range(20):
        assert matching_size(run_min_greedy(g, derive_seed(SEED, s))) == 60


def test_min_ranking_perfect_on_triangular_graphs():
    # the minimum-degree vertex always sits on the unmatched diagonal
    # front with a single free neighbor, so the priority list never hurts
    g, _ = gen_kvv_triangular(40)
    for s in range(20):
        assert matching_size(run_min_ranking(g, derive_seed(SEED, 100 + s))) == 40


def test_min_algorithms_trivial_cases():
    single = BipartiteGraph.from_rows(1, 1, [[0]])
    assert matching_size(run_min_greedy(single, 0)) == 1
    assert matching_size(run_min_ranking(single, 0)) == 1
    n = 7
    biclique = BipartiteGraph.from_rows(n, n, [list(range(n))] * n)
    assert matching_size(run_min_greedy(biclique, 3)) == n
    assert matching_size(run_min_ranking(biclique, 3)) == n


def test_min_algorithms_are_valid_maximal_and_deterministic():
    for i in range(40):
        rng = make_rng(derive_seed(SEED, 200 + i))
        g = random_bipartite(int(rng.integers(1, 15)), int(rng.integers(1, 15)),
                             0.3, rng)
        for run in (run_min_greedy, run_min_ranking):
            m = run(g, derive_seed(SEED, i))
            assert verify_matching(g, m)
            assert is_maximal(g, m)
            assert np.array_equal(m, run(g, derive_seed(SEED, i)))


def test_min_degree_loop_needs_an_rng_or_a_rank():
    with pytest.raises(ValueError, match="rng or a rank"):
        priority._min_degree_loop(BipartiteGraph.from_rows(1, 1, [[0]]), None, None)


def test_isolated_vertices_consume_iterations_but_never_match():
    g = BipartiteGraph.from_rows(3, 2, [[0], [], [0, 1]])
    steps = []
    p = run_min_greedy(g, 12, on_step=lambda curdeg, alive: steps.append(1))
    assert len(steps) == g.n_online      # one selection per online vertex
    assert p[1] == -1
    assert matching_size(p) == 2


def _alive_online_mask(curdeg):
    # dead entries start at _DEAD and only lose one per later deletion,
    # so half the sentinel cleanly separates them from real degrees
    return curdeg < priority._DEAD // 2


def _degrees_match(curdeg, alive_offline, g):
    """Recompute every alive degree from the live arrays and compare."""
    for u in np.flatnonzero(_alive_online_mask(curdeg)):
        nb = g.neighbors(int(u))
        if int(alive_offline[nb].sum()) != int(curdeg[u]):
            return False
    return True


def test_live_state_degree_bookkeeping_matches_recomputation():
    for i in range(25):
        rng = make_rng(derive_seed(SEED, 300 + i))
        g = random_bipartite(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                             0.35, rng)
        checks = []
        run_min_ranking(g, derive_seed(SEED, 400 + i),
                        on_step=lambda curdeg, alive: checks.append(
                            _degrees_match(curdeg, alive, g)))
        assert all(checks)


def test_alive_degrees_stay_equal_on_hub_pendant_graphs():
    # every unmatched online vertex keeps the same current degree, which
    # is what makes the offline-pass twin below exact
    for n, k in ((4, 2), (5, 5), (6, 0), (3, 1)):
        g, _ = gen_h_graph(n, k)

        def all_equal(curdeg):
            alive = curdeg[_alive_online_mask(curdeg)]
            return alive.size == 0 or int(alive.min()) == int(alive.max())

        flags = []
        run_min_ranking(g, derive_seed(SEED, n * 10 + k),
                        on_step=lambda curdeg, _: flags.append(all_equal(curdeg)))
        assert all(flags)


def test_offline_pass_hand_cases():
    g, desc = gen_h_graph(1, 1)
    p, pendants = run_rhs_greedy(g, desc, np.array([1, 0]))  # pendant first
    assert pendants == 1 and p.tolist() == [1]
    p, pendants = run_rhs_greedy(g, desc, np.array([0, 1]))  # hub first
    assert pendants == 0 and p.tolist() == [0]

    g3, desc3 = gen_h_graph(3, 0)
    p, pendants = run_rhs_greedy(g3, desc3, np.array([2, 0, 1]))
    assert pendants == 3 and p.tolist() == [0, 1, 2]


def test_offline_pass_pendant_count_matches_the_matching():
    for i in range(30):
        rng = make_rng(derive_seed(SEED, 600 + i))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        g, desc = gen_h_graph(n, k)
        order = rng.permutation(n + k)
        p, pendants = run_rhs_greedy(g, desc, order)
        assert verify_matching(g, p)
        assert pendants == np.count_nonzero(p >= k)


def test_offline_pass_rejects_wrong_shape_or_order():
    g, desc = gen_kvv_triangular(3)
    with pytest.raises(ValueError):
        run_rhs_greedy(g, desc, np.arange(3))
    h, hdesc = gen_h_graph(2, 1)
    with pytest.raises(ValueError):
        run_rhs_greedy(h, hdesc, np.arange(2))  # wrong length
    g3, desc3 = gen_h_graph(3, 1)
    for order in ([0, 0, 1, 2], [0, 1, 2, 7]):  # repeated vertex, id out of range
        with pytest.raises(ValueError, match="offline order must be a permutation"):
            run_rhs_greedy(g3, desc3, np.array(order))


def test_offline_pass_equals_fixed_priority_run_on_small_graphs():
    # exhaustive over every offline order; the acceptance suite repeats
    # this up to 7 offline vertices
    for n in range(1, 5):
        for k in range(0, min(n, 4 - n + 1) + 1):
            g, desc = gen_h_graph(n, k)
            for perm in itertools.permutations(range(n + k)):
                order = np.array(perm)
                twin = run_min_ranking_fixed(g, np.argsort(order))
                mine, _ = run_rhs_greedy(g, desc, order)
                assert np.array_equal(mine, twin), (n, k, perm)


def test_fixed_priority_run_validates_input():
    g, _ = gen_kvv_triangular(3)
    with pytest.raises(ValueError):
        run_min_ranking_fixed(g, np.arange(2))
