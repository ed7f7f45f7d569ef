"""Single-pass and multipass online matching on a fixed arrival order.

Arrivals are processed once each; an arrival is matched immediately to
its free neighbor of least key under a fixed offline priority, or left
unmatched forever.  A priority is an int64 key array over the offline
side: the least key wins, and among equal keys the lowest index wins,
or with a `Draws` stream a uniform draw does.  A tie rule is that data,
a (key, draws) pair from `tie_rule`.  Every one-pass algorithm in the
package (greedy, ranking, each pass of category advice, and the
known-IID rules) is `arrival_pass` with its own priority.  The multipass
variant reruns the same arrival order with the categories collected in
earlier passes as the key.
"""

from __future__ import annotations

import numpy as np

from matchlab.graphs import BipartiteGraph, check_permutation, matching_size
from matchlab.rng import Draws, make_rng

# Category value meaning "never matched so far"; strictly below every
# finite category, which are -1, -2, ... down to -(number of passes).
CATEGORY_NEG_INF = -(2 ** 62)

TIE_BREAKS = ("lowest-index", "max-index", "random")

# key of a taken offline vertex in the key pass; above every priority key
_TAKEN = np.iinfo(np.int64).max


def arrival_pass(g: BipartiteGraph, rows, key, draws: Draws | None = None) -> np.ndarray:
    """Partner taken by each arrival of one pass (-1: lost).

    rows[p] is the graph row arriving at position p.  `key` is a
    priority, an int64 key array over the offline side: each arrival
    takes its free neighbor of least key.  Without `draws`, equal keys go
    to the lowest index.  With `draws`, each arrival draws one integer,
    uniform over its free neighbors of least key (all of them when `key`
    is None).  Arrivals with no free neighbor are lost.
    """
    ptr = g.indptr.tolist()
    indices = g.indices
    rows = np.asarray(rows, dtype=np.int64).tolist()
    partner = np.full(len(rows), -1, dtype=np.int64)
    if draws is not None:
        free = np.ones(g.n_offline, dtype=bool)
        for pos, r in enumerate(rows):
            nb = indices[ptr[r]:ptr[r + 1]]
            avail = nb[free[nb]]
            if avail.size:
                if key is not None:
                    kk = key[avail]
                    avail = avail[kk == kk.min()]
                partner[pos] = v = avail[draws.below(avail.size)]
                free[v] = False
        return partner
    key = np.array(key, dtype=np.int64)
    for pos, r in enumerate(rows):
        a, b = ptr[r], ptr[r + 1]
        if a < b:
            nb = indices[a:b]
            kk = key[nb]
            i = kk.argmin()
            if kk[i] != _TAKEN:
                partner[pos] = v = nb[i]
                key[v] = _TAKEN
    return partner


def tie_rule(n_offline: int, tie_break: str = "lowest-index",
             seed: int | None = None, degree: np.ndarray | None = None
             ) -> tuple[np.ndarray | None, Draws | None]:
    """(key, draws) of a tie rule, the arguments of `arrival_pass`.

    Vertices of lower `degree` come first (no degree: all tie).  The index
    rules break the remaining ties by lowest or highest index: a rank
    array and no draws.  "random" keeps `degree` as the key and draws one
    integer per decision, uniform over the free neighbors of least degree,
    through `Draws` from a generator seeded once.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}; "
                         f"choose from {list(TIE_BREAKS)}")
    if tie_break != "random":
        index = np.arange(n_offline) * (1 if tie_break == "lowest-index" else -1)
        keys = (index,) if degree is None else (index, degree)
        return np.argsort(np.lexsort(keys)), None
    if seed is None:
        raise ValueError("random tie break needs a seed")
    return degree, Draws(make_rng(seed))


def _online_pass(g: BipartiteGraph, arrival: np.ndarray | None, key,
                 draws: Draws | None = None) -> np.ndarray:
    """Partner of each online vertex after one pass in `arrival` order."""
    if arrival is None:
        return arrival_pass(g, np.arange(g.n_online), key, draws)
    arrival = check_permutation(arrival, g.n_online, "arrival order")
    return arrival_pass(g, arrival, key, draws)[np.argsort(arrival)]


def run_greedy(g: BipartiteGraph, arrival: np.ndarray | None = None,
               tie_break: str = "lowest-index", seed: int | None = None) -> np.ndarray:
    """One greedy pass: match each arrival to a free neighbor if any.

    tie_break picks among free neighbors (see TIE_BREAKS); "random" is
    uniform per decision and needs a seed.
    """
    return _online_pass(g, arrival, *tie_rule(g.n_offline, tie_break, seed))


def run_ranking(g: BipartiteGraph, arrival: np.ndarray | None,
                rank: np.ndarray) -> np.ndarray:
    """Greedy pass matching each arrival to its free neighbor of least rank.

    rank[v] is offline vertex v's key; Ranking draws it as the positions
    of a uniform permutation, np.argsort(rng.permutation(n_offline)).
    arrival[p] is the online vertex arriving at position p (None: 0, 1, ...).
    """
    if len(rank) != g.n_offline:
        raise ValueError("rank size must equal n_offline")
    return _online_pass(g, arrival, rank)


def run_category_advice(g: BipartiteGraph, arrival: np.ndarray | None = None,
                        k: int = 1) -> tuple[np.ndarray, list[int]]:
    """k-pass matching with category advice; returns (last partners, sizes).

    Each pass is one arrival pass whose priority key is the category
    array: CATEGORY_NEG_INF for a vertex never matched, -i for one first
    matched in pass i.  Unmatched vertices therefore outrank everything
    in later passes, among matched vertices later first-match wins, and
    equal categories go to the lowest index.  The arrival order is
    identical in every pass.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cat = np.full(g.n_offline, CATEGORY_NEG_INF, dtype=np.int64)
    sizes: list[int] = []
    for i in range(1, k + 1):
        p = _online_pass(g, arrival, cat)
        sizes.append(matching_size(p))
        matched = p[p >= 0]
        cat[matched[cat[matched] == CATEGORY_NEG_INF]] = -i
    return p, sizes
