"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Every tolerance and time budget is pinned here, next to the criterion it
guards.  Stochastic criteria run on fixed seeds, so reruns are
deterministic; exact criteria allow no tolerance at all.  Where the
paper's bound is a limit, the measured mean at the pinned size is held
to three standard errors of its exact finite-size expectation, and the
pinned band is applied to the limit.
"""

import itertools
import math
import time

import numpy as np

from matchlab.experiments import reproduce
from matchlab.families import (fibonacci, gen_h_graph, gen_kvv_triangular)
from matchlab.graphs import (BipartiteGraph, Permutation,
                             brute_force_maximum_matching, maximum_matching,
                             random_bipartite, verify_matching)
from matchlab.iid import TypeGraph, check_consistency, make_min_degree_rule, \
    parity_control_chooser
from matchlab.online import run_category_advice
from matchlab.priority import run_min_greedy, run_min_ranking_fixed, \
    run_rhs_greedy
from matchlab.rng import derive_seed

from conftest import record_criterion

SEED = 101


def _finish(num, label, ok, detail, elapsed, budget=None):
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f"; {elapsed:.1f}s of {budget:.0f}s budget"
    else:
        detail += f"; {elapsed:.1f}s"
    assert record_criterion(num, label, ok, detail), detail


def test_criterion_01_exact_pass_counts_on_recursive_family():
    t0 = time.perf_counter()
    res = reproduce("fibonacci-ratios", seed=SEED)
    ok = res.passed
    for k in range(1, 9):
        got = res.values[k]
        ok &= got["passes"] == fibonacci(2 * k)
        ok &= got["plus1"] == got["plus2"] == fibonacci(2 * k) + 1
        ok &= got["opt"] == fibonacci(2 * k + 1)
    _finish(1, "exact pass counts on the recursive family",
            ok, "k=1..8 all exact", time.perf_counter() - t0, budget=5.0)


def test_criterion_02_multi_pass_lower_bound_on_random_graphs():
    t0 = time.perf_counter()
    worst = 1.0
    ok = True
    for i in range(200):
        rng = np.random.default_rng(derive_seed(SEED, 500 + i))
        g = random_bipartite(int(rng.integers(1, 41)),
                             int(rng.integers(1, 41)), 0.3, rng)
        opt = maximum_matching(g).size
        m, sizes = run_category_advice(g, k=4)
        ok &= verify_matching(g, m) and m.size == sizes[-1]
        ok &= all(a <= b for a, b in zip(sizes, sizes[1:]))
        for j, size in enumerate(sizes, start=1):
            floor = fibonacci(2 * j) / fibonacci(2 * j + 1) * opt
            ok &= size >= floor - 1e-9
            if opt:
                worst = min(worst, size / max(floor, 1e-300))
    _finish(2, "multi-pass guarantee on 200 random graphs", ok,
            f"per-pass floors held, worst margin {worst:.3f}x",
            time.perf_counter() - t0, budget=10.0)


def test_criterion_03_random_priority_ratio_on_triangular_family():
    t0 = time.perf_counter()
    res = reproduce("ranking-kvv", seed=SEED)
    ratio = res.values["mean_ratio"]
    target = 1.0 - 1.0 / math.e
    ok = res.passed and abs(ratio - target) <= 0.02 + 1e-12
    _finish(3, "random-priority mean ratio on triangular n=200", ok,
            f"mean ratio {ratio:.4f}, target {target:.4f} +/- 0.02 "
            "(5000 trials)", time.perf_counter() - t0, budget=30.0)


def test_criterion_04_degree_guided_greedy_perfect_on_triangular_family():
    t0 = time.perf_counter()
    g, _ = gen_kvv_triangular(100)
    sizes = {run_min_greedy(g, derive_seed(SEED, 900 + t)).size
             for t in range(100)}
    ok = sizes == {100}
    _finish(4, "degree-guided greedy is perfect on triangular n=100", ok,
            f"sizes over 100 seeds: {sorted(sizes)}",
            time.perf_counter() - t0)


def _bp_band(name, lo, hi):
    # the reproduction holds the b=25 mean to 3 standard errors of its
    # exact value; the pinned band is applied to the exact ratio at b=2000
    res = reproduce(name, seed=SEED)
    v = res.values
    limit = v["limit_ratio"]
    ok = res.passed and lo - 1e-12 <= limit <= hi + 1e-12
    off = (v["alg_mean"] - v["exact_alg"]) / v["alg_stderr"]
    detail = (f"ratio of means {v['ratio']:.4f} vs exact "
              f"{v['exact_ratio']:.4f} ({off:+.2f} se, 3 allowed), 500 "
              f"trials; exact ratio at b=2000 {limit:.4f}, pinned band "
              f"[{lo:.4f}, {hi:.4f}]")
    return ok, detail


def test_criterion_05_degree_guided_greedy_band_on_two_sided_family():
    t0 = time.perf_counter()
    ok, detail = _bp_band("mingreedy-bp", 0.50, 0.56)
    _finish(5, "degree-guided greedy band on two-sided family b=25", ok,
            detail, time.perf_counter() - t0, budget=60.0)


def test_criterion_06_degree_guided_priority_band_on_two_sided_family():
    t0 = time.perf_counter()
    center = 0.5 + 0.5 / math.e
    ok, detail = _bp_band("minranking-bp", center - 0.03, center + 0.03)
    _finish(6, "degree-guided priority band on two-sided family b=25", ok,
            detail, time.perf_counter() - t0, budget=120.0)


def test_criterion_07_pendant_process_equals_fixed_priority_runs():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 8):
        for k in range(0, min(n, 7 - n) + 1):
            g, desc = gen_h_graph(n, k)
            for perm in itertools.permutations(range(n + k)):
                order = Permutation(list(perm))
                mine, _ = run_rhs_greedy(g, desc, order)
                ok &= mine == run_min_ranking_fixed(g, order)
                checked += 1
    ok &= checked == 23489
    _finish(7, "pendant process equals fixed-priority runs", ok,
            f"exact match on all {checked} (graph, order) pairs up to 7 "
            "offline vertices", time.perf_counter() - t0, budget=30.0)


def test_criterion_08_pendant_chain_anchors():
    t0 = time.perf_counter()
    res = reproduce("markov-ne", seed=SEED)
    v2000 = res.values["y2000_over_n"]
    ok = res.passed and abs(v2000 - 1.0 / math.e) <= 0.01 + 1e-12
    _finish(8, "pendant-count chain anchors", ok,
            f"exact E[Y]/n at n=2000 is {v2000:.6f} vs 1/e "
            f"{1.0 / math.e:.6f} +/- 0.01; samplers and rate-equation root "
            "checked inside", time.perf_counter() - t0, budget=60.0)


def test_criterion_09_greedy_fraction_on_staircase_types():
    t0 = time.perf_counter()
    res = reproduce("greedy-goelmehta", seed=SEED)
    frac = res.values["fraction"]
    target = 1.0 - 1.0 / math.e
    ok = res.passed and abs(frac - target) <= 0.03 + 1e-12
    _finish(9, "iid greedy fraction on staircase types L=N=20", ok,
            f"mean size / LN = {frac:.4f}, target {target:.4f} +/- 0.03, "
            "300 trials, adversarial ties", time.perf_counter() - t0,
            budget=60.0)


def test_criterion_10_degree_rule_band_on_padded_hard_family():
    t0 = time.perf_counter()
    # the reproduction holds the alg and sampled-optimum means each to 3
    # standard errors of their exact values
    res = reproduce("mindegree-iid", seed=SEED)
    v = res.values
    off_alg = (v["alg_mean"] - v["exact_alg"]) / v["alg_stderr"]
    off_opt = (v["opt_mean"] - v["exact_opt"]) / v["opt_stderr"]
    overflow = v["overflow_fraction"]
    ok = res.passed and overflow < 0.01
    _finish(10, "static-degree rule band on padded hard family", ok,
            f"alg mean {v['alg_mean']:.2f} vs exact {v['exact_alg']:.2f} "
            f"({off_alg:+.2f} se), opt mean {v['opt_mean']:.2f} vs exact "
            f"{v['exact_opt']:.2f} ({off_opt:+.2f} se), 3 se allowed; ratio "
            f"of means {v['ratio']:.4f} vs exact {v['exact_ratio']:.4f}; "
            f"gadget overflow fraction {overflow:.4f} (< 0.01 required), "
            "L=10 N=10 K=20, 200 trials", time.perf_counter() - t0,
            budget=180.0)


def _consistency_catalogue():
    graphs = []
    for nu in (1, 2, 3):
        for nv in (1, 2, 3):
            subsets = [list(c) for r in range(nv + 1)
                       for c in itertools.combinations(range(nv), r)]
            for rows in itertools.product(subsets, repeat=nu):
                graphs.append(BipartiteGraph.from_rows(nu, nv, list(rows)))
    graphs.append(BipartiteGraph.from_rows(4, 4, [[0, 1, 2, 3]] * 4))
    graphs.append(BipartiteGraph.from_rows(4, 4, [[i] for i in range(4)]))
    graphs.append(gen_kvv_triangular(4)[0])
    graphs.append(BipartiteGraph.from_rows(4, 4, [[0, 1, 2, 3], [0], [1], [2]]))
    rng = np.random.default_rng(derive_seed(SEED, 1100))
    graphs.extend(random_bipartite(4, 4, 0.5, rng) for _ in range(200))
    return graphs


def test_criterion_11_arrival_order_consistency_catalogue():
    t0 = time.perf_counter()
    catalogue = _consistency_catalogue()
    sigma_rng = np.random.default_rng(derive_seed(SEED, 1200))
    ok = len(catalogue) == 682 + 4 + 200
    parity_flagged = 0
    for g in catalogue:
        tg = TypeGraph.from_graph(g)
        rank = Permutation.random(g.n_offline, sigma_rng).rank

        def fixed_priority_greedy(rank=rank):
            return lambda t, avail, pos: int(avail[np.argmin(rank[avail])])

        ok &= check_consistency(
            tg, lambda: make_min_degree_rule(tg, "lowest-index")).ok
        ok &= check_consistency(tg, fixed_priority_greedy).ok
        parity_flagged += not check_consistency(tg, parity_control_chooser).ok
    ok &= parity_flagged >= 1
    _finish(11, "arrival-order consistency over the graph catalogue", ok,
            f"{len(catalogue)} graphs; degree rule and fixed-priority "
            f"greedy always consistent, position-dependent control flagged "
            f"on {parity_flagged}", time.perf_counter() - t0)


def test_criterion_12_exact_optimum_dual_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(SEED, 1300))
    ok = True
    for _ in range(500):
        g = random_bipartite(int(rng.integers(0, 11)),
                             int(rng.integers(0, 13)),
                             float(rng.uniform(0.05, 0.95)), rng)
        fast = maximum_matching(g)
        slow = brute_force_maximum_matching(g)
        ok &= fast.size == slow.size
        ok &= verify_matching(g, fast) and verify_matching(g, slow)
    _finish(12, "dual maximum-matching oracles agree", ok,
            "matcher vs exhaustive search on 500 random graphs, exact",
            time.perf_counter() - t0)
