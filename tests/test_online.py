"""Single-pass greedy/priority-list matching and the multi-pass refinement."""

import numpy as np
import pytest

from matchlab.analysis import trial_stats
from matchlab.experiments import ExperimentSpec, run_experiment
from matchlab.families import fibonacci, gen_fibonacci_family
from matchlab.graphs import (BipartiteGraph, matching_size, maximum_matching,
                             verify_matching)
from matchlab.online import (TIE_BREAKS, run_category_advice, run_greedy,
                             run_ranking)
from matchlab.rng import derive_seed, make_rng

from conftest import is_maximal, random_bipartite

SEED = 90125


def _base_case():
    # two online, two offline: u0 sees both, u1 only the first
    return BipartiteGraph.from_rows(2, 2, [[0, 1], [0]])


def test_greedy_lowest_index_blocks_the_base_case():
    assert run_greedy(_base_case()).tolist() == [0, -1]


def test_greedy_on_bicliques_is_perfect():
    n = 9
    g = BipartiteGraph.from_rows(n, n, [list(range(n))] * n)
    for tie in ("lowest-index", "max-index"):
        assert matching_size(run_greedy(g, tie_break=tie)) == n


def test_greedy_path_case_matches_both():
    g = BipartiteGraph.from_rows(2, 2, [[0], [0, 1]])
    assert run_greedy(g).tolist() == [0, 1]


def test_greedy_tie_rules_and_validation():
    g = BipartiteGraph.from_rows(1, 3, [[0, 1, 2]])
    assert run_greedy(g, tie_break="lowest-index").tolist() == [0]
    assert run_greedy(g, tie_break="max-index").tolist() == [2]
    rank = np.array([2, 0, 1])   # vertex 1 carries the best rank
    assert run_ranking(g, None, rank).tolist() == [1]
    with pytest.raises(ValueError):
        run_greedy(g, np.arange(2))              # arrival order of wrong size
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="random")        # seed required
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="offline-rank")  # ranking is run_ranking
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="coin-flip")
    p = run_greedy(g, tie_break="random", seed=5)
    assert np.array_equal(p, run_greedy(g, tie_break="random", seed=5))
    assert TIE_BREAKS == ("lowest-index", "max-index", "random")


@pytest.mark.parametrize("arrival", [[0, 0], [1, 1], [-1, 0], [0, 5]])
def test_arrival_orders_must_be_permutations(arrival):
    g = BipartiteGraph.from_rows(2, 3, [[0, 1], [2]])
    for run in (run_greedy, lambda g, a: run_category_advice(g, a, k=2),
                lambda g, a: run_ranking(g, a, np.arange(3))):
        with pytest.raises(ValueError, match="permutation of range"):
            run(g, np.array(arrival))


def test_ranking_priority_order_decides_the_base_case():
    g = _base_case()
    assert matching_size(run_ranking(g, None, np.arange(2))) == 1
    assert matching_size(run_ranking(g, None, np.array([1, 0]))) == 2
    with pytest.raises(ValueError):
        run_ranking(g, None, np.arange(3))


def test_ranking_output_is_always_a_maximal_matching():
    for i in range(50):
        rng = make_rng(derive_seed(SEED, i))
        g = random_bipartite(int(rng.integers(1, 14)), int(rng.integers(1, 14)),
                             0.3, rng)
        rank = np.argsort(rng.permutation(g.n_offline))
        arrival = rng.permutation(g.n_online)
        m = run_ranking(g, arrival, rank)
        assert verify_matching(g, m)
        assert is_maximal(g, m)


def _ranking_sizes(family, params, trials, seed):
    rows = run_experiment(ExperimentSpec(family, params, "ranking",
                                         trials=trials, seed=seed))
    return trial_stats([alg for _, alg, _ in rows])


def test_ranking_random_two_vertex_expectation():
    # two equally likely priority lists: one matches both, one matches one
    stats = _ranking_sizes("kvv", {"n": 2}, 4000, SEED)
    assert abs(stats.mean - 1.5) <= 3 * stats.stderr
    assert stats.count == 4000


def test_ranking_random_is_exact_on_bicliques_and_deterministic():
    # one block of the staircase family is the biclique K_{4,4}
    stats = _ranking_sizes("goelmehta", {"L": 4, "N": 1}, 64, 3)
    assert stats.mean == 4.0 and stats.variance == 0.0
    again = _ranking_sizes("goelmehta", {"L": 4, "N": 1}, 64, 3)
    assert stats.mean == again.mean and stats.ci == again.ci
    with pytest.raises(ValueError):
        _ranking_sizes("goelmehta", {"L": 4, "N": 1}, 0, 3)


def test_multi_pass_base_case_sizes():
    g = _base_case()
    p1, sizes1 = run_category_advice(g, k=1)
    assert sizes1 == [1] and p1.tolist() == [0, -1]
    _, sizes2 = run_category_advice(g, k=2)
    assert sizes2 == [1, 2]
    with pytest.raises(ValueError):
        run_category_advice(g, k=0)


@pytest.mark.parametrize("k", range(1, 5))
def test_multi_pass_exact_sizes_on_the_recursive_family(k):
    g, _ = gen_fibonacci_family(k)
    _, sizes = run_category_advice(g, k=k + 2)
    assert sizes[k - 1] == fibonacci(2 * k)
    assert sizes[k] == sizes[k + 1] == fibonacci(2 * k) + 1


def test_multi_pass_sizes_are_monotone_and_each_pass_maximal():
    for i in range(40):
        rng = make_rng(derive_seed(SEED, 100 + i))
        g = random_bipartite(int(rng.integers(1, 20)), int(rng.integers(1, 20)),
                             0.25, rng)
        m, sizes = run_category_advice(g, k=5)
        assert sizes == sorted(sizes)
        assert verify_matching(g, m)
        assert is_maximal(g, m)


def test_multi_pass_meets_the_per_k_fraction_of_optimum():
    for i in range(60):
        rng = make_rng(derive_seed(SEED, 500 + i))
        g = random_bipartite(int(rng.integers(1, 24)), int(rng.integers(1, 24)),
                             0.3, rng)
        opt = matching_size(maximum_matching(g))
        _, sizes = run_category_advice(g, k=4)
        for k, got in enumerate(sizes, start=1):
            bound = fibonacci(2 * k) / fibonacci(2 * k + 1) * opt
            assert got >= bound - 1e-9


def test_multi_pass_replay_is_deterministic():
    rng = make_rng(derive_seed(SEED, 9))
    g = random_bipartite(15, 15, 0.3, rng)
    arrival = make_rng(4).permutation(15)
    a, sa = run_category_advice(g, arrival, k=3)
    b, sb = run_category_advice(g, arrival, k=3)
    assert np.array_equal(a, b) and sa == sb


def test_extra_passes_after_stabilization_keep_the_size():
    g, _ = gen_fibonacci_family(2)
    _, sizes = run_category_advice(g, k=8)
    tail = sizes[2:]
    assert tail == [tail[0]] * len(tail)
