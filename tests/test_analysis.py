"""Exact chain expectations, the two samplers, and the rate-equation root."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from matchlab.analysis import (PENDANT_STEP, _sum_below, expected_bp_sizes,
                               expected_kvv_sizes, expected_padded_sizes,
                               expected_staircase_sizes, expected_y_exact,
                               ode_root, simulate_chain,
                               simulate_rhs_empirical, trial_stats)
from matchlab.experiments import STOCHASTIC
from matchlab.families import (gen_besser_poloczek, gen_goel_mehta,
                               gen_kvv_triangular, gen_min_degree_hard)
from matchlab.graphs import matching_size, maximum_matching
from matchlab.iid import (InstanceSample, materialize_instance,
                          run_greedy_iid, run_min_degree)
from matchlab.online import run_ranking
from matchlab.priority import run_min_greedy, run_min_ranking
from matchlab.rng import derive_seed, make_rng

SEED = 361


def _expected_pendants_exact(n):
    """Reference dynamic program over the y-distribution, in fractions."""
    dist = [Fraction(1)]
    for t in range(n):
        x = n - t
        new = [Fraction(0)] * (t + 2)
        for y, p in enumerate(dist):
            p_inc = Fraction(x, 2 * x + y)
            new[y + 1] += p * p_inc
            new[y] += p * (1 - p_inc)
        dist = new
    return sum(y * p for y, p in enumerate(dist))


def _expected_pendants_by_enumeration(n):
    """Independent oracle: walk every trajectory with exact weights."""
    def walk(x, y):
        if x == 0:
            return Fraction(y)
        p = Fraction(x, 2 * x + y)
        return p * walk(x - 1, y + 1) + (1 - p) * walk(x - 1, y)
    return walk(n, 0)


def _rate_gap(n, z):
    """The solved drift balance whose positive root ode_root returns."""
    return math.log1p(z) - 1.0 / (1.0 + z) + 1.0 - math.log(n)


def test_trial_stats_basics():
    s = trial_stats([5, 5, 5, 5])
    assert s.mean == 5.0 and s.variance == 0.0 and s.ci == (5.0, 5.0)
    s = trial_stats([0, 1, 0, 1])
    assert s.mean == 0.5 and s.count == 4
    assert s.ci[0] < 0.5 < s.ci[1]
    one = trial_stats([2.5])
    assert one.variance == 0.0 and one.stderr == 0.0
    with pytest.raises(ValueError):
        trial_stats([])


def test_trial_stats_covers_the_uniform_mean():
    rng = make_rng(SEED)
    s = trial_stats(rng.random(10_000))
    assert abs(s.mean - 0.5) <= 3 * s.stderr


def test_step_probabilities_are_exact_fractions():
    step = PENDANT_STEP["minranking"]
    for x in range(1, 6):
        for y in range(0, 6):
            assert step(x, y) == float(Fraction(x, 2 * x + y))


def test_exact_expectation_small_values():
    assert _expected_pendants_exact(1) == Fraction(1, 2)
    assert _expected_pendants_exact(2) == Fraction(11, 12)
    assert expected_y_exact(1) == 0.5
    with pytest.raises(ValueError):
        expected_y_exact(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_expectation_matches_full_trajectory_enumeration(n):
    assert _expected_pendants_exact(n) == _expected_pendants_by_enumeration(n)


def test_float_path_agrees_with_rational_path():
    for n in (1, 2, 5, 10, 20, 30):
        exact = _expected_pendants_exact(n)
        assert abs(expected_y_exact(n) - float(exact)) < 1e-12


def test_expectation_fraction_descends_toward_the_limit():
    target = 1.0 / math.e
    dists = [abs(expected_y_exact(n) / n - target)
             for n in (10, 100, 1000, 2000)]
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.01


def test_chain_sampler_agrees_with_the_exact_value():
    s = simulate_chain(1, 100_000, SEED)
    assert abs(s.mean - 0.5) <= 3 * s.stderr
    s = simulate_chain(120, 4000, SEED)
    assert abs(s.mean - expected_y_exact(120)) <= 3 * s.stderr


def test_chain_sampler_bounds_and_determinism():
    s = simulate_chain(9, 500, 7)
    t = simulate_chain(9, 500, 7)
    assert s.mean == t.mean and s.variance == t.variance
    assert 0.0 <= s.mean <= 9.0
    with pytest.raises(ValueError):
        simulate_chain(0, 10, 1)
    with pytest.raises(ValueError):
        simulate_chain(5, 0, 1)


def test_graph_pass_sampler_agrees_with_the_exact_value():
    s = simulate_rhs_empirical(60, 2000, SEED)
    assert abs(s.mean - expected_y_exact(60)) <= 3 * s.stderr
    tiny = simulate_rhs_empirical(1, 3000, SEED)
    assert abs(tiny.mean - 0.5) <= 3 * tiny.stderr


def test_graph_pass_sampler_is_seed_deterministic():
    a = simulate_rhs_empirical(12, 200, 31)
    b = simulate_rhs_empirical(12, 200, 31)
    assert a.mean == b.mean and a.ci == b.ci


def test_two_samplers_and_the_exact_value_pairwise_agree():
    n = 80
    exact = expected_y_exact(n)
    chain = simulate_chain(n, 4000, SEED + 1)
    graph = simulate_rhs_empirical(n, 1500, SEED + 2)
    assert abs(chain.mean - exact) <= 3 * chain.stderr
    assert abs(graph.mean - exact) <= 3 * graph.stderr
    joint = math.hypot(chain.stderr, graph.stderr)
    assert abs(chain.mean - graph.mean) <= 3 * joint


def test_rate_equation_root_location():
    root = ode_root(1000)
    assert 0.33 <= root / 1000 <= 0.37
    assert abs(ode_root(10 ** 6) / 10 ** 6 - 1 / math.e) < 0.002
    with pytest.raises(ValueError):
        ode_root(2)


def test_rate_equation_root_respects_tolerance():
    n = 500
    tol = 1e-9
    root = ode_root(n, tol)
    assert _rate_gap(n, root - 2 * tol) < 0 < _rate_gap(n, root + 2 * tol)


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_rate_gap_signs_bracket_the_scaled_limit(n):
    # the root sits between 0.9 n/e and n/e for every tested size
    assert _rate_gap(n, n / math.e) > 0
    assert _rate_gap(n, 0.9 * n / math.e) < 0


def test_finite_size_expectations_at_the_pinned_sizes():
    greedy = expected_bp_sizes(25, "mingreedy")
    ranking = expected_bp_sizes(25, "minranking")
    padded = expected_padded_sizes(10, 10, 20)
    assert round(greedy.ratio, 4) == 0.6020 and greedy.opt == 1300
    assert round(ranking.ratio, 4) == 0.7395
    assert round(padded.opt, 2) == 1975.09 and round(padded.alg, 2) == 1418.90
    assert greedy.error < 1e-100 and ranking.error < 1e-100
    assert padded.error < 1e-3
    # the minranking sub-block is the hub-pendant chain
    assert ranking.alg == 25 * 25 + 4 * 25 + 25 * expected_y_exact(25)
    # and both descend toward the paper's limits
    assert abs(expected_bp_sizes(2000, "mingreedy").ratio - 0.5) < 0.003
    limit = 0.5 + 0.5 / math.e
    assert abs(expected_bp_sizes(2000, "minranking").ratio - limit) < 0.001
    # ranking on the triangular family and greedy on the staircase
    kvv = expected_kvv_sizes(200)
    staircase = expected_staircase_sizes(20, 20)
    assert round(kvv.alg, 5) == 126.68835 and kvv.opt == 200
    assert round(expected_kvv_sizes(2000).ratio, 6) == 0.632253
    assert round(staircase.alg, 5) == 258.93701 and staircase.opt == 400
    assert round(expected_staircase_sizes(100, 100).ratio, 6) == 0.635253
    assert kvv.error == staircase.error == 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_kvv_chain_equals_ranking_over_all_priority_orders(n):
    g, _ = gen_kvv_triangular(n)
    sizes = [matching_size(run_ranking(g, None, np.array(perm)))
             for perm in itertools.permutations(range(n))]
    assert abs(expected_kvv_sizes(n).alg - sum(sizes) / len(sizes)) < 1e-12


@pytest.mark.parametrize("L, N", [(1, 2), (1, 3), (2, 2), (1, 4)])
def test_staircase_chain_equals_max_index_greedy_over_all_sequences(L, N):
    g, _ = gen_goel_mehta(L, N)
    n = L * N
    total = sum(matching_size(run_greedy_iid(g, InstanceSample(np.array(seq)),
                                             tie_break="max-index"))
                for seq in itertools.product(range(n), repeat=n))
    assert abs(expected_staircase_sizes(L, N).alg - total / n ** n) < 1e-12


PAPER_LIMITS = {"ranking-kvv": 1 - 1 / math.e, "mingreedy-bp": 0.5,
                "minranking-bp": 0.5 + 0.5 / math.e,
                "mindegree-iid": 1 - 1 / math.e,
                "greedy-goelmehta": 1 - 1 / math.e}


@pytest.mark.parametrize("name", sorted(STOCHASTIC))
def test_reproduction_row_bands_hold_the_exact_and_the_paper_limit(name):
    # reckonings only: a mistyped row shows here before any trial runs
    row = STOCHASTIC[name]
    limit = PAPER_LIMITS[name]
    assert row.limit.endswith(f" = {limit:.4f}")
    assert row.reckon(**row.spec.family_params).error < 1e-3
    if row.large is None:
        assert row.band is None
        return
    lo, hi = row.band
    assert lo <= row.reckon(**row.large).ratio <= hi
    assert lo <= limit <= hi


@pytest.mark.parametrize("algorithm, run", [("mingreedy", run_min_greedy),
                                            ("minranking", run_min_ranking)])
def test_two_sided_expectation_matches_the_real_runs(algorithm, run):
    b = 6
    g, _ = gen_besser_poloczek(b)
    exact = expected_bp_sizes(b, algorithm)
    s = trial_stats([matching_size(run(g, derive_seed(SEED, t))) for t in range(400)])
    assert abs(s.mean - exact.alg) <= 3 * s.stderr + exact.error
    assert exact.error < 1e-2


def test_reduction_failure_probability_by_squaring():
    rng = make_rng(SEED)
    dist = rng.random(5)
    dist /= dist.sum()
    total = np.array([1.0])
    for _ in range(7):
        total = np.convolve(total, dist)
    for limit in (1, 4, 9, 20):
        assert abs(_sum_below(dist, 7, limit) - total[:limit].sum()) < 1e-14


@pytest.mark.parametrize("L, N, K", [(1, 2, 1), (2, 1, 1)])
def test_padded_expectation_matches_exhaustive_enumeration(L, N, K):
    # every arrival sequence of the tiny family, weighted equally; the
    # gadgets cannot overflow here, so the reckoning is exact
    g, _ = gen_min_degree_hard(L, N, K)
    n = g.n_online
    alg = opt = 0
    for seq in itertools.product(range(n), repeat=n):
        inst = InstanceSample(np.array(seq))
        alg += matching_size(run_min_degree(g, inst, tie_break="max-index"))
        opt += matching_size(maximum_matching(materialize_instance(g, inst)))
    exact = expected_padded_sizes(L, N, K)
    assert exact.error == 0.0
    assert abs(exact.alg - alg / n ** n) < 1e-12
    assert abs(exact.opt - opt / n ** n) < 1e-12


def test_finite_size_guards():
    with pytest.raises(ValueError):
        expected_bp_sizes(1, "mingreedy")
    with pytest.raises(ValueError):
        expected_bp_sizes(5, "greedy")
    with pytest.raises(ValueError):
        expected_padded_sizes(0, 2, 2)
    with pytest.raises(ValueError):
        expected_kvv_sizes(0)
    with pytest.raises(ValueError):
        expected_staircase_sizes(2, 0)
