"""Property-based checks of the CSR graph and the arrival-pass kernel.

Examples are derandomized and few, so every run draws the same graphs.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab.graphs import (BipartiteGraph, Permutation, graph_from_dict,
                             graph_to_dict, verify_matching)
from matchlab.iid import (TypeGraph, make_min_degree_rule,
                          materialize_instance, run_rule, sample_instance)
from matchlab.online import TIE_BREAKS, run_greedy, run_ranking, tie_chooser

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)


@st.composite
def shuffled_rows(draw):
    """(n_online, n_offline, rows): each row distinct ids in any order."""
    n_online = draw(st.integers(0, 7))
    n_offline = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.integers(0, n_offline - 1), unique=True,
                          max_size=n_offline)) for _ in range(n_online)]
    return n_online, n_offline, rows


def _is_maximal(g, m):
    return all(m.partner_of_online[u] >= 0
               or np.all(m.partner_of_offline[g.neighbors(u)] >= 0)
               for u in range(g.n_online))


@SETTINGS
@given(shuffled_rows())
def test_from_rows_sorts_shuffled_rows(case):
    n_online, n_offline, rows = case
    g = BipartiteGraph.from_rows(n_online, n_offline, rows)
    assert g == BipartiteGraph.from_rows(n_online, n_offline, map(sorted, rows))
    assert g.adjacency() == [sorted(r) for r in rows]


@SETTINGS
@given(shuffled_rows())
def test_csc_arrays_are_the_transpose(case):
    n_online, n_offline, rows = case
    g = BipartiteGraph.from_rows(n_online, n_offline, rows)
    for v in range(n_offline):
        naive = [u for u in range(n_online) if v in rows[u]]
        assert g.offline_neighbors(v).tolist() == naive
        assert g.offline_degrees[v] == len(naive)


@SETTINGS
@given(shuffled_rows())
def test_json_round_trip(case):
    g = BipartiteGraph.from_rows(*case)
    assert graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))) == g


@SETTINGS
@given(shuffled_rows(), st.randoms(use_true_random=False), st.integers(0, 2 ** 32))
def test_every_chooser_yields_a_maximal_matching(case, random, seed):
    g = BipartiteGraph.from_rows(*case)
    arrival = Permutation(random.sample(range(g.n_online), g.n_online))
    sigma = Permutation(random.sample(range(g.n_offline), g.n_offline))
    runs = [run_ranking(g, arrival, sigma)]
    runs += [run_greedy(g, arrival, tie, seed) for tie in TIE_BREAKS]
    for m in runs:
        assert verify_matching(g, m) and _is_maximal(g, m)
    if g.n_online:  # known-IID rules, scored on the materialized instance
        tg = TypeGraph.from_graph(g)
        inst = sample_instance(tg, seed)
        gi = materialize_instance(tg, inst)
        for tie in TIE_BREAKS:
            for choose in (tie_chooser(tie, seed), make_min_degree_rule(tg, tie, seed)):
                m = run_rule(tg, inst.draws, choose)
                assert verify_matching(gi, m) and _is_maximal(gi, m)
