"""Property-based checks of the CSR graph, the arrival-pass kernel and
the min-degree loop, the kernels against chooser and full-scan references,
category advice against ranking under a refined priority list, bulk
`Draws` against scalar `rng.integers` calls, and the consistency checker
against enumeration of every arrival sequence.

Examples are derandomized and few, so every run draws the same graphs.
"""

import itertools
import json
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchlab import online, priority
from matchlab.cli import graph_document
from matchlab.families import gen_min_degree_hard
from matchlab.graphs import (BRUTE_FORCE_MAX_ONLINE, BipartiteGraph,
                             brute_force_maximum_matching,
                             graph_from_dict, matching_size, maximum_matching,
                             verify_matching)
from matchlab.iid import (InstanceSample, check_consistency, materialize_instance,
                          run_greedy_iid, run_min_degree, sample_instance)
from matchlab.online import (TIE_BREAKS, arrival_pass, run_category_advice,
                             run_greedy, run_ranking, tie_rule)
from matchlab.priority import run_min_greedy, run_min_ranking, run_min_ranking_fixed
from matchlab.rng import Draws, make_rng

from conftest import (is_maximal, neighbor_lists, offline_neighbors,
                      parity_control_chooser, size_parity_chooser)

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)


@st.composite
def shuffled_rows(draw, max_online=7):
    """(n_online, n_offline, rows): each row distinct ids in any order."""
    n_online = draw(st.integers(0, max_online))
    n_offline = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.integers(0, n_offline - 1), unique=True,
                          max_size=n_offline)) for _ in range(n_online)]
    return n_online, n_offline, rows


@SETTINGS
@given(shuffled_rows())
def test_from_rows_sorts_shuffled_rows(case):
    n_online, n_offline, rows = case
    g = BipartiteGraph.from_rows(n_online, n_offline, rows)
    assert g == BipartiteGraph.from_rows(n_online, n_offline, map(sorted, rows))
    assert neighbor_lists(g) == [sorted(r) for r in rows]


@st.composite
def row_runs(draw, max_online=6):
    """(n_online, n_offline, runs): per row, ascending disjoint (start, stop)
    runs, which may be empty or touch."""
    n_online = draw(st.integers(0, max_online))
    n_offline = draw(st.integers(0, 9))
    runs = []
    for _ in range(n_online):
        cuts = sorted(draw(st.lists(st.integers(0, n_offline), max_size=8)))
        runs.append(list(zip(cuts[0::2], cuts[1::2])))
    return n_online, n_offline, runs


def _flat_runs(runs):
    """All runs as one (rows, start, stop) block, in row order."""
    return ([r for r, row in enumerate(runs) for _ in row],
            [a for row in runs for a, _ in row], [b for row in runs for _, b in row])


def _shuffled_blocks(runs, rnd):
    """The same runs shuffled, then split into one block per stop value,
    each with its stop given as a scalar that broadcasts."""
    flat = [(r, a, b) for r, row in enumerate(runs) for a, b in row]
    rnd.shuffle(flat)
    return [([r for r, _, t in flat if t == b], [a for _, a, t in flat if t == b], b)
            for b in dict.fromkeys(b for _, _, b in flat)]


@SETTINGS
@given(row_runs(), st.randoms(use_true_random=False))
@example((0, 3, []), random.Random(0))
@example((2, 0, [[], [(0, 0)]]), random.Random(0))
@example((3, 7, [[], [(2, 4), (4, 6)], [(1, 1), (3, 7)]]), random.Random(0))
def test_from_ranges_equals_from_rows_of_the_expanded_runs(case, rnd):
    n_online, n_offline, runs = case
    rows = [[v for a, b in row for v in range(a, b)] for row in runs]
    g = BipartiteGraph.from_ranges(n_online, n_offline, _flat_runs(runs))
    assert g == BipartiteGraph.from_rows(n_online, n_offline, rows)
    assert neighbor_lists(g) == rows
    # runs in any order, across blocks, build the same graph
    assert BipartiteGraph.from_ranges(n_online, n_offline, *_shuffled_blocks(runs, rnd)) == g


@SETTINGS
@given(row_runs(), st.data())
def test_from_ranges_refuses_overlapping_runs(case, data):
    n_online, n_offline, runs = case
    if n_offline == 0:
        n_offline, runs = 1, [[]] * n_online
    a = data.draw(st.integers(0, n_offline - 1))
    b = data.draw(st.integers(a + 1, n_offline))
    c = data.draw(st.integers(0, b - 1))  # the second run starts before b
    d = data.draw(st.integers(max(a, c) + 1, n_offline))  # and ends after a
    r = data.draw(st.integers(0, n_online))
    runs = runs[:r] + [[(a, b), (c, d)]] + runs[r:]
    with pytest.raises(ValueError, match="rows must be sorted"):
        BipartiteGraph.from_ranges(n_online + 1, n_offline, _flat_runs(runs))


@SETTINGS
@given(shuffled_rows())
@example((0, 3, []))                  # no online vertex, no edge
@example((3, 4, [[], [2], []]))       # empty rows, isolated offline vertices
def test_csc_arrays_are_the_transpose(case):
    n_online, n_offline, rows = case
    g = BipartiteGraph.from_rows(n_online, n_offline, rows)
    # the oracle and the arrival pass read only CSR, so CSC is still unbuilt
    maximum_matching(g)
    run_ranking(g, np.arange(n_online), np.arange(n_offline))
    assert "indices_offline" not in vars(g)
    for v in range(n_offline):
        naive = [u for u in range(n_online) if v in rows[u]]
        assert offline_neighbors(g, v).tolist() == naive
        assert g.offline_degrees[v] == len(naive)
    row_of = np.repeat(np.arange(n_online), g.online_degrees)
    assert np.array_equal(g.indices_offline, row_of[np.argsort(g.indices, kind="stable")])
    assert g.indices_offline.dtype == np.int64
    for a in (g.indptr, g.indices, g.online_degrees, g.offline_degrees,
              g.indptr_offline, g.indices_offline):
        assert not a.flags.writeable


@SETTINGS
@given(shuffled_rows())
@example((0, 3, []))
@example((3, 4, [[], [2], []]))
def test_json_round_trip(case):
    g = BipartiteGraph.from_rows(*case)
    rest = {"descriptor": {"family": "x", "blocks": [[0, 1]]}}
    text = "".join(graph_document(g, rest))
    # the streamed rows are laid out as json renders the same lists
    assert text == json.dumps({"schema": 1, "n_online": g.n_online,
                               "n_offline": g.n_offline,
                               "adj": neighbor_lists(g), **rest}, indent=2) + "\n"
    assert graph_from_dict(json.loads(text)) == g


@SETTINGS
@given(shuffled_rows(), st.randoms(use_true_random=False), st.integers(0, 2 ** 32))
def test_every_chooser_yields_a_maximal_matching(case, random, seed):
    g = BipartiteGraph.from_rows(*case)
    arrival = _shuffled(random, g.n_online)
    runs = [run_ranking(g, arrival, _shuffled(random, g.n_offline))]
    runs += [run_greedy(g, arrival, tie, seed) for tie in TIE_BREAKS]
    for m in runs:
        assert verify_matching(g, m) and is_maximal(g, m)
    if g.n_online:  # known-IID rules, scored on the materialized instance
        inst = sample_instance(g, seed)
        gi = materialize_instance(g, inst)
        for tie in TIE_BREAKS:
            for degree in (None, g.offline_degrees):
                p = arrival_pass(g, inst.draws,
                                 *tie_rule(g.n_offline, tie, seed, degree))
                assert verify_matching(gi, p) and is_maximal(gi, p)


@SETTINGS
@given(shuffled_rows(max_online=16).filter(lambda case: case[0]), st.integers(0, 2 ** 32))
@example((3, 2, [[1, 0], [1], []]), 0)
def test_the_instance_optimum_ignores_arrival_order(case, seed):
    # trial runners score the optimum on the drawn multiset in type order
    g = BipartiteGraph.from_rows(*case)
    inst = sample_instance(g, seed)
    arrived = materialize_instance(g, inst)
    in_type_order = materialize_instance(g, replace(inst, draws=np.sort(inst.draws)))
    size = matching_size(maximum_matching(arrived))
    assert matching_size(maximum_matching(in_type_order)) == size
    if g.n_online <= BRUTE_FORCE_MAX_ONLINE:
        for h in (arrived, in_type_order):
            assert matching_size(brute_force_maximum_matching(h)) == size


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)), st.data())
def test_min_degree_is_greedy_on_the_padded_family_under_max_index_ties(shape, data):
    # the paper's reduction, per instance: every copy offline vertex has
    # static degree (N+1)L, every gadget vertex L, and gadget ids sit above
    # copy ids, so the least degree and the highest index pick the same one
    g, _ = gen_min_degree_hard(*shape)
    draws = data.draw(st.lists(st.integers(0, g.n_online - 1), max_size=2 * g.n_online))
    inst = InstanceSample(np.array(draws, dtype=np.int64))
    assert np.array_equal(run_min_degree(g, inst, tie_break="max-index"),
                          run_greedy_iid(g, inst, tie_break="max-index"))


@SETTINGS
@given(shuffled_rows(), st.randoms(use_true_random=False), st.integers(0, 2 ** 32))
def test_every_runner_returns_a_valid_partner_array(case, random, seed):
    g = BipartiteGraph.from_rows(*case)
    arrival, rank = _shuffled(random, g.n_online), _shuffled(random, g.n_offline)
    results = [(g, run_greedy(g, arrival, "random", seed)),
               (g, run_ranking(g, arrival, rank)),
               (g, run_category_advice(g, arrival, 3)[0]),
               (g, run_min_greedy(g, seed)), (g, run_min_ranking(g, seed)),
               (g, run_min_ranking_fixed(g, rank)),
               (g, maximum_matching(g)), (g, brute_force_maximum_matching(g))]
    if g.n_online:  # IID partners are indexed by arrival position
        inst = sample_instance(g, seed)
        gi = materialize_instance(g, inst)
        results += [(gi, run_min_degree(g, inst, "random", seed)),
                    (gi, run_greedy_iid(g, inst, "max-index"))]
    for h, p in results:
        assert p.dtype == np.int64 and p.shape == (h.n_online,)
        assert verify_matching(h, p)


def _loop_verify_matching(g, partner):
    """verify_matching with a Python loop over the matched edges: the reference."""
    if partner.shape != (g.n_online,) or partner.dtype.kind not in "iu":
        return False
    us = np.flatnonzero(partner != -1)
    vs = partner[us]
    if np.any((vs < 0) | (vs >= g.n_offline)) or np.unique(vs).size != vs.size:
        return False
    return all(v in g.neighbors(u) for u, v in zip(us.tolist(), vs.tolist()))


@SETTINGS
@given(shuffled_rows(), st.data())
def test_verify_matching_agrees_with_the_loop_reference(case, data):
    # a maximum matching, then edits that may give it an id out of range,
    # a repeated partner or a non-edge, a wrong shape or a wrong dtype
    g = BipartiteGraph.from_rows(*case)
    partner = brute_force_maximum_matching(g)
    for _ in range(data.draw(st.integers(0, 2)) if g.n_online else 0):
        partner[data.draw(st.integers(0, g.n_online - 1))] = data.draw(
            st.integers(-2, g.n_offline))
    shape = data.draw(st.sampled_from(["1-D", "short", "long", "2-D"]))
    partner = {"1-D": partner, "short": partner[:-1], "long": np.append(partner, -1),
               "2-D": partner[None]}[shape]
    partner = partner.astype(data.draw(st.sampled_from([np.int64, np.int8, np.float64])))
    assert verify_matching(g, partner) == _loop_verify_matching(g, partner)


def _shuffled(random, n):
    """A uniform order of 0..n-1 drawn from a hypothesis `random`."""
    return np.array(random.sample(range(n), n), dtype=np.int64)


def _chooser_pass(g, rows, choose):
    """Reference arrival pass: filters the free neighbours, asks a chooser."""
    free = np.ones(g.n_offline, dtype=bool)
    partner = np.full(len(rows), -1, dtype=np.int64)
    for pos, r in enumerate(rows):
        nb = g.neighbors(r)
        avail = nb[free[nb]]
        if avail.size:
            v = choose(r, avail, pos)
            partner[pos] = v
            free[v] = False
    return partner


def _least_rank(rank):
    return lambda r, avail, pos: avail[np.argmin(rank[avail])]


def _least_degree(degree, end):
    """Reference index-tie min-degree chooser: first or last of least degree."""
    def choose(r, avail, pos):
        d = degree[avail]
        return avail[d == d.min()][end]
    return choose


@SETTINGS
@given(shuffled_rows(), st.integers(0, 2 ** 32))
@example((0, 3, []), 5)
@example((4, 3, [[], [2, 0], [], [1]]), 6)
def test_rank_pass_matches_the_chooser_reference(case, seed):
    g = BipartiteGraph.from_rows(*case)
    rng = make_rng(seed)
    arrival = rng.permutation(g.n_online)
    rank = np.argsort(rng.permutation(g.n_offline))
    ref = np.full(g.n_online, -1, dtype=np.int64)
    ref[arrival] = _chooser_pass(g, arrival.tolist(), _least_rank(rank))
    assert np.array_equal(run_ranking(g, arrival, rank), ref)
    for tie, end in (("lowest-index", 0), ("max-index", -1)):
        ref[arrival] = _chooser_pass(g, arrival.tolist(),
                                     lambda r, avail, pos: avail[end])
        assert np.array_equal(run_greedy(g, arrival, tie), ref)
        if g.n_online:
            inst = sample_instance(g, seed)
            rows = inst.draws.tolist()
            for run, degree in ((run_greedy_iid, np.zeros(g.n_offline, np.int64)),
                                (run_min_degree, g.offline_degrees)):
                want = _chooser_pass(g, rows, _least_degree(degree, end))
                assert np.array_equal(run(g, inst, tie), want)
    for k in (1, 2, 3):
        _, sizes = run_category_advice(g, arrival, k)
        with mock.patch.object(online, "arrival_pass", lambda g, rows, key, draws:
                               _chooser_pass(g, rows, _least_rank(key))):
            assert run_category_advice(g, arrival, k)[1] == sizes


def refine_sigma(rank, categories):
    """Reference rank array of a category-advice pass.

    Ranks v1 before v2 iff categories[v1] < categories[v2], or the
    categories tie and rank[v1] < rank[v2]: a stable sort of the offline
    side by category.
    """
    return np.argsort(np.lexsort((rank, np.asarray(categories, np.int64))))


def _refined_sigma_advice(g, arrival, k):
    """Reference k-pass category advice: pass i is ranking under the
    identity refined by the categories of the passes before it."""
    cat = np.full(g.n_offline, online.CATEGORY_NEG_INF, dtype=np.int64)
    sizes = []
    for i in range(1, k + 1):
        p = run_ranking(g, arrival, refine_sigma(np.arange(g.n_offline), cat))
        sizes.append(matching_size(p))
        taken = np.zeros(g.n_offline, dtype=bool)
        taken[p[p >= 0]] = True
        cat[(cat == online.CATEGORY_NEG_INF) & taken] = -i
    return p, sizes


@SETTINGS
@given(shuffled_rows(), st.integers(0, 2 ** 32))
@example((5, 5, [[0, 1, 3, 4], [0, 1, 3], [0, 1, 2], [0], [1]]), 3)  # fibonacci k=2
def test_category_advice_matches_ranking_under_refined_sigma(case, seed):
    g = BipartiteGraph.from_rows(*case)
    for arrival in (None, make_rng(seed).permutation(g.n_online)):
        for k in range(1, 5):
            p, sizes = run_category_advice(g, arrival, k)
            ref_p, ref_sizes = _refined_sigma_advice(g, arrival, k)
            assert np.array_equal(p, ref_p) and sizes == ref_sizes


def _full_scan_min_degree_loop(g, rng, rank, on_step=None):
    """Reference min-degree loop: scans every degree at every step."""
    curdeg = g.online_degrees.astype(np.int64).copy()
    alive_v = np.ones(g.n_offline, dtype=bool)
    partner = np.full(g.n_online, -1, dtype=np.int64)
    for _ in range(g.n_online):
        if on_step is not None:
            on_step(curdeg, alive_v)
        d = curdeg.min()
        if rng is None:
            u = int(np.argmin(curdeg))
        else:
            cands = np.flatnonzero(curdeg == d)
            u = int(cands[rng.integers(cands.size)])
        if d == 0:
            curdeg[u] = priority._DEAD
            continue
        nb = g.neighbors(u)
        f = nb[alive_v[nb]]
        assert f.size == d
        v = int(f[rng.integers(f.size)] if rank is None else f[np.argmin(rank[f])])
        partner[u] = v
        alive_v[v] = False
        curdeg[u] = priority._DEAD
        curdeg[offline_neighbors(g, v)] -= 1
    return partner


def _traced_min_degree_run(run, loop):
    """(partners, curdeg snapshots, final generator states) of run(on_step)."""
    rngs, snapshots = [], []

    def recording_make_rng(seed):
        rngs.append(make_rng(seed))
        return rngs[-1]

    with mock.patch.object(priority, "_min_degree_loop", loop), \
            mock.patch.object(priority, "make_rng", recording_make_rng):
        p = run(lambda curdeg, alive: snapshots.append(curdeg.copy()))
    return p, snapshots, [r.bit_generator.state for r in rngs]


@SETTINGS
@given(shuffled_rows(), st.randoms(use_true_random=False), st.integers(0, 2 ** 32))
def test_min_degree_loop_matches_the_full_scan_reference(case, random, seed):
    g = BipartiteGraph.from_rows(*case)
    rank = _shuffled(random, g.n_offline)
    for run in (lambda step: run_min_greedy(g, seed, step),
                lambda step: run_min_ranking(g, seed, step),
                lambda step: run_min_ranking_fixed(g, rank, step)):
        p, snaps, states = _traced_min_degree_run(run, priority._min_degree_loop)
        ref_p, ref_snaps, ref_states = _traced_min_degree_run(
            run, _full_scan_min_degree_loop)
        assert np.array_equal(p, ref_p) and verify_matching(g, p)
        assert len(snaps) == len(ref_snaps) == g.n_online
        assert all(np.array_equal(a, b) for a, b in zip(snaps, ref_snaps))
        assert states == ref_states


# bounds that take no word (1), reject rarely (small n, powers of two) or
# often (just above 2**31, where almost half of all words are redrawn)
DRAW_BOUNDS = st.one_of(st.just(1), st.integers(2, 40),
                        st.sampled_from([2 ** k for k in range(1, 33)]),
                        st.integers(2 ** 31 - 8, 2 ** 31 + 8),
                        st.integers(3 * 2 ** 30, 3 * 2 ** 30 + 8),
                        st.integers(2 ** 32 - 8, 2 ** 32), st.integers(1, 2 ** 32))


@SETTINGS
@given(st.lists(DRAW_BOUNDS, max_size=700), st.integers(0, 2 ** 32),
       st.integers(0, 2), st.integers(0, 9))
@example(list(range(1, 9001)), 3, 1, 0)  # past the largest chunk
def test_draws_equal_scalar_integers_and_leave_the_same_state(bounds, seed,
                                                              scalars, perm):
    """Same integers, same final state and same next draws as scalar calls,
    also from a generator holding a buffered half-word."""
    ref, rng = make_rng(seed), make_rng(seed)
    for r in (ref, rng):
        r.integers(5, size=scalars)
        r.permutation(perm)
    draws = Draws(rng)
    assert [draws.below(n) for n in bounds] == [int(ref.integers(n)) for n in bounds]
    draws.close()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(1000, size=5).tolist() == ref.integers(1000, size=5).tolist()
    # after close() the same object continues from the synced state
    assert [draws.below(n) for n in bounds[:50]] == [int(ref.integers(n))
                                                      for n in bounds[:50]]
    draws.close()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_draws_refuse_bounds_outside_one_to_two_to_the_32():
    ref, rng = make_rng(1), make_rng(1)
    for r in (ref, rng):
        r.integers(5)
    assert rng.bit_generator.state["has_uint32"] == 1  # buffered half-word
    draws = Draws(rng)
    for n in (0, -1, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            draws.below(n)
    with pytest.raises(TypeError):
        draws.below(2.5)
    assert draws.below(2 ** 32) == ref.integers(2 ** 32)


def _scalar_random_rule(n_offline, seed, degree=None):
    """Reference random chooser: one scalar `rng.integers` per decision."""
    rng = make_rng(seed)

    def choose(r, avail, pos):
        if degree is not None:
            d = degree[avail]
            avail = avail[d == d.min()]
        return avail[rng.integers(avail.size)]
    return choose


@SETTINGS
@given(shuffled_rows(), st.integers(0, 2 ** 32))
@example((60, 60, [list(range(i, 60)) for i in range(60)]), 7)  # kvv n=60
@example((40, 8, [list(range(8))] * 40), 11)                    # biclique
def test_random_tie_rules_match_the_scalar_draw_reference(case, seed):
    g = BipartiteGraph.from_rows(*case)
    arrival = make_rng(seed).permutation(g.n_online)
    want = np.full(g.n_online, -1, dtype=np.int64)
    want[arrival] = _chooser_pass(g, arrival.tolist(),
                                  _scalar_random_rule(g.n_offline, seed))
    assert np.array_equal(run_greedy(g, arrival, "random", seed), want)
    if g.n_online:
        inst = sample_instance(g, seed)
        for run, degree in ((run_greedy_iid, None), (run_min_degree, g.offline_degrees)):
            ref = _chooser_pass(g, inst.draws.tolist(),
                                _scalar_random_rule(g.n_offline, seed, degree))
            assert np.array_equal(run(g, inst, "random", seed), ref)


def _enumerated_consistency(g, rule):
    """Reference consistency check: runs all |U|^|U| arrival sequences.

    Keeps each type's first choice per available set and returns (ok,
    contexts) under `check_consistency`'s same-context and subset rules.
    """
    seen: dict[int, dict[frozenset, int]] = {}
    ok = True

    def record(t, avail, pos):
        nonlocal ok
        v = int(avail[rule[avail].argmin()] if isinstance(rule, np.ndarray)
                else rule(t, avail, pos))
        ok &= seen.setdefault(t, {}).setdefault(frozenset(avail.tolist()), v) == v
        return v

    n = g.n_online
    for seq in itertools.product(range(n), repeat=n):
        _chooser_pass(g, seq, record)
    for ctx in seen.values():
        for big, small in itertools.permutations(ctx, 2):
            ok &= not (small < big and ctx[big] in small and ctx[small] != ctx[big])
    return ok, sum(map(len, seen.values()))


@SETTINGS
@given(shuffled_rows(max_online=5), st.integers(0, 2 ** 32))
@example((2, 2, [[], [0, 1]]), 0)  # a type with no neighbors: parity flagged
def test_consistency_check_matches_the_enumerating_reference(case, seed):
    g = BipartiteGraph.from_rows(*case)
    for rule in (tie_rule(g.n_offline, "lowest-index", degree=g.offline_degrees)[0],
                 tie_rule(g.n_offline, "max-index", degree=g.offline_degrees)[0],
                 np.argsort(make_rng(seed).permutation(g.n_offline)),
                 parity_control_chooser, size_parity_chooser):
        report = check_consistency(g, rule)
        assert (report.ok, report.contexts_checked) == _enumerated_consistency(g, rule)
