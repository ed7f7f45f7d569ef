"""Type-graph sampling, static-degree matching, and the consistency checker."""

import math

import numpy as np
import pytest

from matchlab import experiments, iid
from matchlab.experiments import ExperimentSpec, run_experiment
from matchlab.families import gen_h_graph, gen_min_degree_hard, type_optimum_bounds
from matchlab.graphs import (BipartiteGraph, matching_size, maximum_matching,
                             verify_matching)
from matchlab.iid import (check_consistency, materialize_instance,
                          run_greedy_iid, run_min_degree, sample_instance)
from matchlab.online import arrival_pass, tie_rule
from matchlab.rng import Draws, derive_seed, make_rng

from conftest import is_maximal, parity_control_chooser, size_parity_chooser

SEED = 40320


def _tg(adj, n_offline):
    return BipartiteGraph.from_rows(len(adj), n_offline, adj)


def _identity_tg(n):
    return _tg([[i] for i in range(n)], n)


def test_type_graph_freezes_offline_degrees():
    tg = _tg([[0, 1], [1]], 2)
    assert tg.offline_degrees.tolist() == [1, 2]
    assert tg.n_online == 2 and tg.n_offline == 2
    with pytest.raises(ValueError):
        tg.offline_degrees[0] = 5


def test_instances_never_count_their_offline_degrees():
    # degrees are counted on first use; the trial runner only builds an
    # instance and solves its optimum, so it never pays for the bincount
    tg, _ = gen_min_degree_hard(2, 2, 3)
    gi = materialize_instance(tg, sample_instance(tg, 7))
    maximum_matching(gi)
    assert "offline_degrees" not in gi.__dict__
    assert np.array_equal(gi.offline_degrees,
                          np.bincount(gi.indices, minlength=gi.n_offline))
    assert not gi.offline_degrees.flags.writeable


def test_sampling_shape_determinism_and_range():
    tg = _tg([[0], [0], [0]], 1)
    inst = sample_instance(tg, 99)
    assert inst.draws.shape == (3,)
    assert inst.draws.min() >= 0 and inst.draws.max() < 3
    assert np.array_equal(inst.draws, sample_instance(tg, 99).draws)
    assert not np.array_equal(inst.draws, sample_instance(tg, 100).draws)


def test_sampling_frequencies_are_uniform():
    tg = _tg([[0], [0]], 1)
    ones = 0
    total = 0
    for t in range(5000):
        draws = sample_instance(tg, derive_seed(SEED, t)).draws
        ones += int(draws.sum())
        total += draws.size
    sd = math.sqrt(total * 0.25)
    assert abs(ones - total / 2) <= 3 * sd


def test_single_type_graph_always_draws_type_zero():
    tg = _tg([[0, 1]], 2)
    assert sample_instance(tg, 123).draws.tolist() == [0]


def test_materialized_instance_mirrors_the_drawn_types():
    tg = _tg([[0, 1], [2]], 3)
    inst = sample_instance(tg, 5)
    g = materialize_instance(tg, inst)
    assert g.n_online == 2 and g.n_offline == 3
    for pos, t in enumerate(inst.draws):
        assert g.neighbors(pos).tolist() == tg.neighbors(int(t)).tolist()


def test_min_degree_rule_uses_static_not_residual_degrees():
    # offline 0 is scarce (degree 1), offline 1 and 2 are busier; after
    # vertex 1 is taken, vertex 2's residual scarcity must not matter
    tg = _tg([[0, 1], [1, 2], [1, 2]], 3)
    assert tg.offline_degrees.tolist() == [1, 3, 2]
    key, draws = tie_rule(tg.n_offline, degree=tg.offline_degrees)
    # a fixed priority by static degree: scarce 0, then 2, then busy 1
    assert key.tolist() == [0, 2, 1] and draws is None
    # static degree of 2 beats 1's residual freedom regardless of history
    assert arrival_pass(tg, [1], key).tolist() == [2]
    assert arrival_pass(tg, [1, 2], key).tolist() == [2, 1]
    # arrival 0 takes the scarce vertex 0, arrivals 1-2 take 2 then 1
    assert arrival_pass(tg, [0, 1, 2], key).tolist() == [0, 2, 1]


def test_tie_rules_coincide_when_all_degrees_differ():
    tg = _tg([[0, 1, 2], [1, 2], [2]], 3)
    inst = sample_instance(tg, 11)
    low = run_min_degree(tg, inst, tie_break="lowest-index")
    high = run_min_degree(tg, inst, tie_break="max-index")
    rnd = run_min_degree(tg, inst, tie_break="random", seed=8)
    assert np.array_equal(low, high) and np.array_equal(low, rnd)


def test_greedy_rule_tie_rules_and_guards():
    for tie, rank in (("lowest-index", [0, 1, 2, 3]), ("max-index", [3, 2, 1, 0])):
        key, draws = tie_rule(4, tie)
        assert key.tolist() == rank and draws is None
    g = BipartiteGraph.from_rows(1, 10, [[2, 5, 9]])
    assert arrival_pass(g, [0], *tie_rule(10, "lowest-index")).tolist() == [2]
    assert arrival_pass(g, [0], *tie_rule(10, "max-index")).tolist() == [9]
    with pytest.raises(ValueError):
        tie_rule(10, "random")          # seed required
    with pytest.raises(ValueError):
        tie_rule(10, "first-come")
    key, draws = tie_rule(10, "random", seed=4)
    assert key is None and isinstance(draws, Draws)
    assert arrival_pass(g, [0], key, draws).tolist()[0] in {2, 5, 9}


def test_star_type_graph_matches_exactly_one():
    n = 5
    tg = _tg([[0]] * n, 1)
    for t in range(10):
        inst = sample_instance(tg, derive_seed(SEED, 50 + t))
        assert matching_size(run_greedy_iid(tg, inst)) == 1
        assert matching_size(run_min_degree(tg, inst)) == 1


def test_empty_type_graph_matches_nothing():
    tg = _tg([[], []], 2)
    inst = sample_instance(tg, 3)
    assert matching_size(run_greedy_iid(tg, inst)) == 0


def test_matchings_are_maximal_within_the_instance():
    rng = make_rng(SEED)
    for i in range(30):
        n = int(rng.integers(1, 7))
        v = int(rng.integers(1, 7))
        adj = [np.flatnonzero(rng.random(v) < 0.5) for _ in range(n)]
        tg = _tg(adj, v)
        inst = sample_instance(tg, derive_seed(SEED, 900 + i))
        gi = materialize_instance(tg, inst)
        for algo in (run_greedy_iid, run_min_degree):
            p = algo(tg, inst)
            assert verify_matching(gi, p)
            assert is_maximal(gi, p)


def test_parallel_type_graph_matches_distinct_draw_count():
    # each type owns one offline vertex, so the matching counts distinct
    # coupons; mean matched fraction approaches 1 - 1/e
    n = 8
    tg = _identity_tg(n)
    total = 0.0
    trials = 4000
    expected = n * (1 - (1 - 1 / n) ** n)
    for t in range(trials):
        inst = sample_instance(tg, derive_seed(SEED, 2000 + t))
        size = matching_size(run_greedy_iid(tg, inst))
        assert size == len(set(inst.draws.tolist()))
        total += size
    sd = math.sqrt(n) / 2  # crude bound on the per-trial deviation
    assert abs(total / trials - expected) <= 3 * sd / math.sqrt(trials)


def test_consistency_holds_for_index_and_degree_rules():
    graphs = [
        _tg([[0, 1], [1, 2], [0, 2]], 3),
        _tg([[0, 1, 2], [1], [2]], 3),
        _identity_tg(3),
        _tg([[0], [0], [0]], 1),
        _tg([[0, 1]], 2),
    ]
    for tg in graphs:
        for tie, degree in (("lowest-index", None), ("lowest-index", tg.offline_degrees),
                            ("max-index", tg.offline_degrees)):
            report = check_consistency(tg, tie_rule(tg.n_offline, tie, degree=degree)[0])
            assert report.ok, report.violations

    def states(n):
        # every first arrival is matched, so after p >= 1 arrivals 1..p of
        # the n offline vertices are taken
        return 1 + sum(math.comb(n, j) for p in range(1, n) for j in range(1, p + 1))
    assert (states(3), states(4)) == (10, 29)
    for n in range(1, 6):
        tg = _identity_tg(n)
        report = check_consistency(tg, tie_rule(n, degree=tg.offline_degrees)[0])
        assert report.ok and report.states_checked == states(n)


def test_consistency_checker_flags_the_position_dependent_rule():
    # a type with no neighbors shifts identical contexts across positions
    tg = _tg([[], [0, 1]], 2)
    report = check_consistency(tg, parity_control_chooser)
    assert not report.ok
    kinds = {v["kind"] for v in report.violations}
    assert "same-context" in kinds


def test_consistency_checker_flags_the_size_dependent_rule():
    # type 0 takes 2 from {0, 1, 2} but 1 from {1, 2}, once type 1 took 0
    tg = _tg([[0, 1, 2], [0]], 3)
    report = check_consistency(tg, size_parity_chooser)
    assert [(v["kind"], v["avail"], v["sub_avail"], v["matches"])
            for v in report.violations] == [("subset", [0, 1, 2], [1, 2], (2, 1))]


def test_consistency_checker_respects_the_size_guard(monkeypatch):
    tg = _identity_tg(4)  # reaches 29 states
    monkeypatch.setattr(iid, "CONSISTENCY_MAX_STATES", 28)
    with pytest.raises(ValueError, match="more than 28 states") as exc:
        check_consistency(tg, parity_control_chooser)
    assert "\n" not in str(exc.value)
    monkeypatch.setattr(iid, "CONSISTENCY_MAX_STATES", 29)
    assert check_consistency(tg, parity_control_chooser).states_checked == 29
    monkeypatch.undo()
    # seven types were past the old |U| <= 6 cap on enumerated sequences
    report = check_consistency(_tg([[0]] * 7, 1), parity_control_chooser)
    assert report.ok and report.states_checked == 7


def test_consistency_is_vacuous_for_single_type_graphs():
    tg = _tg([[0, 1]], 2)
    assert check_consistency(tg, parity_control_chooser).ok


def test_ratio_estimate_is_one_on_parallel_graphs():
    # each type owns one offline vertex, so every rule reaches the optimum
    for n, algo in ((4, run_greedy_iid), (1, run_min_degree)):
        tg = _identity_tg(n)
        for t in range(40):
            inst = sample_instance(tg, derive_seed(SEED, 2 * t))
            p = algo(tg, inst, tie_break="random", seed=derive_seed(SEED, 2 * t + 1))
            size = matching_size(p)
            assert size == matching_size(maximum_matching(materialize_instance(tg, inst)))
            assert n > 1 or size == 1
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("goelmehta", {"L": 1, "N": 4},
                                      "greedy-iid", trials=0))


def test_ratio_estimate_replays_per_seed():
    spec = ExperimentSpec("goelmehta", {"L": 2, "N": 3}, "mindegree",
                          trials=25, seed=77, tie_break="random")
    a = run_experiment(spec)
    assert a == run_experiment(spec)


def test_gadget_overflow_counting():
    # a gadget overflows exactly when its arrivals go past its capacity,
    # which is when the two bounds differ
    g, desc = gen_min_degree_hard(2, 2, 1)
    inst = sample_instance(g, 0)
    cap = desc.extra["gadget_capacity"]
    (g1_lo, g1_hi), _ = desc.extra["gadget_online"]
    # force every draw into the first gadget: far beyond its capacity
    inst.draws[:] = g1_lo
    assert g.n_online > cap
    lower, upper = type_optimum_bounds(desc, inst.draws)
    assert lower < upper
    inst.draws[:] = 0  # all copy arrivals: no gadget pressure at all
    lower, upper = type_optimum_bounds(desc, inst.draws)
    assert lower == upper
    _, hdesc = gen_h_graph(2, 1)
    with pytest.raises(ValueError):
        type_optimum_bounds(hdesc, inst.draws)


def test_iid_trials_whose_gadget_overflows_take_hopcroft_karps_optimum(monkeypatch):
    params = {"L": 2, "N": 2, "K": 1}
    g, desc = gen_min_degree_hard(*params.values())
    draws = np.full(g.n_online, g.n_online - 1)  # every arrival in the last gadget
    lower, upper = type_optimum_bounds(desc, draws)
    opt = matching_size(maximum_matching(materialize_instance(g, iid.InstanceSample(draws))))
    assert lower < opt == upper  # the gadget's overflow spills into the copy
    monkeypatch.setattr(experiments, "sample_instance",
                        lambda g, seed: iid.InstanceSample(draws.copy()))
    rows = run_experiment(ExperimentSpec("mindegreehard", params, "mindegree", trials=3))
    assert [o for _, _, o in rows] == [opt] * 3


def test_hard_family_sampled_optimum_floor_with_gadget_capacity():
    # when no gadget gets more arrivals than its capacity, every gadget
    # arrival is matched inside its gadget, and copy online block j sees
    # only offline blocks j..N of its copy; by Hall's theorem the sampled
    # optimum is then exactly n - sum over copies of
    # D = max over m >= 0 of (arrivals in the copy's last m blocks - mL)
    L, N, K = 10, 10, 20
    tg, desc = gen_min_degree_hard(L, N, K)
    samples = 100
    checked = 0
    for t in range(samples):
        inst = sample_instance(tg, derive_seed(SEED, 3000 + t))
        lower, upper = type_optimum_bounds(desc, inst.draws)
        if lower < upper:  # a gadget overflows
            continue
        size = matching_size(maximum_matching(materialize_instance(tg, inst)))
        assert size == lower, (
            f"sample {t}: sampled optimum {size}, but the copies' Hall "
            f"deficiencies leave {lower}")
        checked += 1
    assert checked >= samples - 1, (
        f"gadgets overflowed in {samples - checked} of {samples} samples")
