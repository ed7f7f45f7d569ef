"""Single-pass and multipass online matching on a fixed arrival order.

Arrivals are processed once each; an arrival is matched immediately to a
free neighbor picked by a chooser, or left unmatched forever.  Every
one-pass algorithm in the package (greedy, ranking, each pass of category
advice, and the known-IID rules) is `arrival_pass` with its own chooser.
The multipass variant reruns the same arrival order while refining the
offline priority list from the categories collected in earlier passes.
"""

from __future__ import annotations

import numpy as np

from matchlab.graphs import BipartiteGraph, Matching, Permutation
from matchlab.rng import make_rng

# Category value meaning "never matched so far"; strictly below every
# finite category, which are -1, -2, ... down to -(number of passes).
CATEGORY_NEG_INF = -(2 ** 62)

TIE_BREAKS = ("lowest-index", "max-index", "random")


def arrival_pass(g: BipartiteGraph, rows, choose) -> np.ndarray:
    """Partner taken by each arrival of one pass (-1: lost).

    rows[p] is the graph row arriving at position p.  Each arrival's free
    neighbors `avail` (sorted, non-empty) go to choose(row, avail, p),
    which returns one of them; arrivals with no free neighbor are lost.
    """
    ptr = g.indptr.tolist()
    indices = g.indices
    free = np.ones(g.n_offline, dtype=bool)
    rows = np.asarray(rows, dtype=np.int64).tolist()
    partner = np.full(len(rows), -1, dtype=np.int64)
    for pos, r in enumerate(rows):
        nb = indices[ptr[r]:ptr[r + 1]]
        avail = nb[free[nb]]
        if avail.size:
            v = choose(r, avail, pos)
            partner[pos] = v
            free[v] = False
    return partner


def tie_chooser(tie_break: str = "lowest-index", seed: int | None = None):
    """Chooser taking the first, the last or a uniform free neighbor.

    "random" draws one integer per decision from a generator seeded once.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}; "
                         f"choose from {list(TIE_BREAKS)}")
    if tie_break != "random":
        end = 0 if tie_break == "lowest-index" else -1
        return lambda r, avail, pos: avail[end]
    if seed is None:
        raise ValueError("random tie break needs a seed")
    rng = make_rng(seed)
    return lambda r, avail, pos: avail[rng.integers(avail.size)]


def _online_pass(g: BipartiteGraph, arrival: Permutation | None, choose) -> Matching:
    if arrival is None:
        arrival = Permutation.identity(g.n_online)
    elif len(arrival) != g.n_online:
        raise ValueError("arrival order size must equal n_online")
    partner = np.empty(g.n_online, dtype=np.int64)
    partner[arrival.order] = arrival_pass(g, arrival.order, choose)
    return Matching.from_partners(partner, g.n_offline)


def run_greedy(g: BipartiteGraph, arrival: Permutation | None = None,
               tie_break: str = "lowest-index", seed: int | None = None) -> Matching:
    """One greedy pass: match each arrival to a free neighbor if any.

    tie_break picks among free neighbors (see TIE_BREAKS); "random" is
    uniform per decision and needs a seed.
    """
    return _online_pass(g, arrival, tie_chooser(tie_break, seed))


def run_ranking(g: BipartiteGraph, arrival: Permutation | None,
                sigma: Permutation) -> Matching:
    """Greedy pass matching each arrival to its best-ranked free neighbor.

    sigma ranks the offline side; lower rank wins.
    """
    if len(sigma) != g.n_offline:
        raise ValueError("sigma size must equal n_offline")
    rank = sigma.rank
    return _online_pass(g, arrival, lambda r, avail, pos: avail[np.argmin(rank[avail])])


def refine_sigma(sigma: Permutation, categories) -> Permutation:
    """Reorder sigma with categories as the primary key.

    The result ranks v1 before v2 iff categories[v1] < categories[v2], or
    the categories tie and sigma ranks v1 before v2.  Equivalent to a
    stable sort of the offline side by category.
    """
    cat = np.asarray(categories, dtype=np.int64)
    if cat.size != len(sigma):
        raise ValueError("categories must cover every offline vertex")
    order = np.lexsort((sigma.rank, cat))
    return Permutation(order)


def run_category_advice(g: BipartiteGraph, arrival: Permutation | None = None,
                        k: int = 1) -> tuple[Matching, list[int]]:
    """k-pass matching with category advice; returns (last pass, sizes).

    Pass i runs run_ranking with the current refined priority list, then
    marks every vertex matched for the first time with category -i.
    Unmatched vertices keep the sentinel and therefore outrank everything
    in later passes; among matched vertices, later first-match wins.
    The arrival order is identical in every pass.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base = Permutation.identity(g.n_offline)
    cat = np.full(g.n_offline, CATEGORY_NEG_INF, dtype=np.int64)
    sizes: list[int] = []
    for i in range(1, k + 1):
        sigma_c = refine_sigma(base, cat)
        m = run_ranking(g, arrival, sigma_c)
        sizes.append(m.size)
        newly = (cat == CATEGORY_NEG_INF) & m.matched_offline_mask()
        cat[newly] = -i
    return m, sizes
