"""Single-pass greedy/priority-list matching and the multi-pass refinement."""

import numpy as np
import pytest

from matchlab.analysis import trial_stats
from matchlab.experiments import ExperimentSpec, run_experiment
from matchlab.families import fibonacci, gen_fibonacci_family
from matchlab.graphs import (BipartiteGraph, Matching, Permutation,
                             maximum_matching, random_bipartite,
                             verify_matching)
from matchlab.online import (CATEGORY_NEG_INF, TIE_BREAKS, refine_sigma,
                             run_category_advice, run_greedy, run_ranking)
from matchlab.rng import derive_seed, make_rng

SEED = 90125


def _base_case():
    # two online, two offline: u0 sees both, u1 only the first
    return BipartiteGraph.from_rows(2, 2, [[0, 1], [0]])


def _is_maximal(g, m):
    """No arrival could still be matched to a free neighbor."""
    for u in range(g.n_online):
        if m.partner_of_online[u] >= 0:
            continue
        nb = g.neighbors(u)
        if nb.size and np.any(m.partner_of_offline[nb] < 0):
            return False
    return True


def test_greedy_lowest_index_blocks_the_base_case():
    m = run_greedy(_base_case())
    assert m.size == 1
    assert m.pairs() == [(0, 0)]


def test_greedy_on_bicliques_is_perfect():
    n = 9
    g = BipartiteGraph.from_rows(n, n, [list(range(n))] * n)
    for tie in ("lowest-index", "max-index"):
        assert run_greedy(g, tie_break=tie).size == n


def test_greedy_path_case_matches_both():
    g = BipartiteGraph.from_rows(2, 2, [[0], [0, 1]])
    m = run_greedy(g)
    assert m.size == 2 and m.pairs() == [(0, 0), (1, 1)]


def test_greedy_tie_rules_and_validation():
    g = BipartiteGraph.from_rows(1, 3, [[0, 1, 2]])
    assert run_greedy(g, tie_break="lowest-index").pairs() == [(0, 0)]
    assert run_greedy(g, tie_break="max-index").pairs() == [(0, 2)]
    sigma = Permutation([1, 2, 0])   # vertex 1 carries the best rank
    assert run_ranking(g, None, sigma).pairs() == [(0, 1)]
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="random")        # seed required
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="offline-rank")  # ranking is run_ranking
    with pytest.raises(ValueError):
        run_greedy(g, tie_break="coin-flip")
    m = run_greedy(g, tie_break="random", seed=5)
    assert m == run_greedy(g, tie_break="random", seed=5)
    assert TIE_BREAKS == ("lowest-index", "max-index", "random")


def test_ranking_priority_order_decides_the_base_case():
    g = _base_case()
    assert run_ranking(g, None, Permutation.identity(2)).size == 1
    assert run_ranking(g, None, Permutation([1, 0])).size == 2
    with pytest.raises(ValueError):
        run_ranking(g, None, Permutation.identity(3))


def test_ranking_output_is_always_a_maximal_matching():
    for i in range(50):
        rng = make_rng(derive_seed(SEED, i))
        g = random_bipartite(int(rng.integers(1, 14)), int(rng.integers(1, 14)),
                             0.3, rng)
        sigma = Permutation.random(g.n_offline, rng)
        arrival = Permutation.random(g.n_online, rng)
        m = run_ranking(g, arrival, sigma)
        assert verify_matching(g, m)
        assert _is_maximal(g, m)


def _ranking_sizes(family, params, trials, seed):
    rows = run_experiment(ExperimentSpec(family, params, "ranking",
                                         trials=trials, seed=seed))
    return trial_stats([r.alg_size for r in rows])


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


def test_refine_sigma_defining_property_holds_pairwise():
    rng = make_rng(SEED)
    for _ in range(40):
        n = 8
        sigma = Permutation.random(n, rng)
        cats = rng.integers(-3, 1, size=n)
        out = refine_sigma(sigma, cats)
        for v1 in range(n):
            for v2 in range(n):
                if v1 == v2:
                    continue
                should_precede = (cats[v1] < cats[v2]
                                  or (cats[v1] == cats[v2]
                                      and sigma.rank[v1] < sigma.rank[v2]))
                assert (out.rank[v1] < out.rank[v2]) == should_precede


def test_refine_sigma_constant_categories_is_identity_on_sigma():
    sigma = Permutation([3, 1, 0, 2])
    assert refine_sigma(sigma, [7, 7, 7, 7]) == sigma
    assert refine_sigma(sigma, [CATEGORY_NEG_INF] * 4) == sigma
    assert refine_sigma(Permutation.identity(2), [-1, CATEGORY_NEG_INF]).order.tolist() == [1, 0]
    with pytest.raises(ValueError):
        refine_sigma(sigma, [0, 0])


def test_ranking_with_constant_category_refinement_changes_nothing():
    rng = make_rng(derive_seed(SEED, 7))
    g = random_bipartite(12, 12, 0.3, rng)
    sigma = Permutation.random(12, rng)
    refined = refine_sigma(sigma, np.zeros(12, dtype=int))
    assert run_ranking(g, None, sigma) == run_ranking(g, None, refined)


def test_multi_pass_base_case_sizes():
    g = _base_case()
    m1, sizes1 = run_category_advice(g, k=1)
    assert sizes1 == [1] and m1.size == 1
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
        assert _is_maximal(g, m)


def test_multi_pass_meets_the_per_k_fraction_of_optimum():
    for i in range(60):
        rng = make_rng(derive_seed(SEED, 500 + i))
        g = random_bipartite(int(rng.integers(1, 24)), int(rng.integers(1, 24)),
                             0.3, rng)
        opt = maximum_matching(g).size
        _, sizes = run_category_advice(g, k=4)
        for k, got in enumerate(sizes, start=1):
            bound = fibonacci(2 * k) / fibonacci(2 * k + 1) * opt
            assert got >= bound - 1e-9


def test_multi_pass_replay_is_deterministic():
    rng = make_rng(derive_seed(SEED, 9))
    g = random_bipartite(15, 15, 0.3, rng)
    arrival = Permutation.random(15, make_rng(4))
    a, sa = run_category_advice(g, arrival, k=3)
    b, sb = run_category_advice(g, arrival, k=3)
    assert a == b and sa == sb


def test_extra_passes_after_stabilization_keep_the_size():
    g, _ = gen_fibonacci_family(2)
    _, sizes = run_category_advice(g, k=8)
    tail = sizes[2:]
    assert tail == [tail[0]] * len(tail)
