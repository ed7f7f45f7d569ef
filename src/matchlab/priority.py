"""Offline algorithms driven by current vertex degrees.

The two main algorithms repeatedly select a uniformly random online vertex
of minimum current degree (degree among still-free offline neighbors) and
match it: one to a uniformly random free neighbor, the other to the free
neighbor ranked best by a priority list drawn once up front.  A right-hand
-side variant consumes the offline vertices of hub-pendant graphs in a
given order; it is the analysis-friendly twin of the priority-list variant.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from matchlab.families import FamilyDescriptor
from matchlab.graphs import BipartiteGraph, check_permutation
from matchlab.rng import Draws, make_rng

_DEAD = 1 << 40  # sentinel degree for processed online vertices


def _min_degree_loop(g: BipartiteGraph, rng: np.random.Generator | None,
                     rank: np.ndarray | None, on_step=None) -> np.ndarray:
    """Shared loop; the partner is the free neighbor of least `rank`.

    rank=None takes a uniform free neighbor instead, one rng draw each.
    rng=None selects the lowest-index minimum-degree vertex instead of a
    uniform one (the deterministic variant used by equivalence tests).
    Isolated vertices are deleted unmatched, consuming one iteration.
    Draws and the final rng state equal scalar `rng.integers` calls.
    on_step(curdeg, alive_offline) sees the live arrays before each
    selection; near-_DEAD degrees mark processed vertices.

    cands (sorted alive vertices of minimum degree d) follows the degrees
    each match lowers; all degrees are rescanned only when it runs empty.
    An array replaces it whole; it is listed only to remove a selection.
    """
    if rng is None and rank is None:
        raise ValueError("the min-degree loop needs an rng or a rank")
    draws = None if rng is None else Draws(rng)
    ptr, optr = g.indptr.tolist(), g.indptr_offline.tolist()
    curdeg = g.online_degrees.astype(np.int64)
    alive_v = np.ones(g.n_offline, dtype=bool)
    partner = np.full(g.n_online, -1, dtype=np.int64)
    d, cands = 0, []
    for _ in range(g.n_online):
        if on_step is not None:
            on_step(curdeg, alive_v)
        if not len(cands):
            d = int(curdeg.min())
            cands = np.flatnonzero(curdeg == d)
        i = 0 if draws is None else draws.below(len(cands))
        u = int(cands[i])
        curdeg[u] = _DEAD
        if d:
            nb = g.indices[ptr[u]:ptr[u + 1]]
            f = nb[alive_v[nb]]
            assert f.size == d
            v = int(f[draws.below(f.size)] if rank is None else f[rank[f].argmin()])
            partner[u] = v
            alive_v[v] = False
            ws = g.indices_offline[optr[v]:optr[v + 1]]
            nd = curdeg[ws]
            nd -= 1
            curdeg[ws] = nd
            low = ws[nd < d]  # alive vertices that were in cands, now at d - 1
            if low.size:
                d, cands = d - 1, low
                continue
        cands = cands if isinstance(cands, list) else cands.tolist()
        del cands[i]
        if d:
            for w in ws[nd == d].tolist():
                insort(cands, w)
    if draws is not None:
        draws.close()
    return partner


def run_min_greedy(g: BipartiteGraph, seed: int, on_step=None) -> np.ndarray:
    """Min-degree selection, uniformly random free partner."""
    return _min_degree_loop(g, make_rng(seed), None, on_step)


def run_min_ranking(g: BipartiteGraph, seed: int, on_step=None) -> np.ndarray:
    """Min-degree selection, partner minimizing a random priority list.

    The offline priority list is drawn once before the loop; only the
    selection among tied minimum-degree vertices stays random afterwards.
    """
    rng = make_rng(seed)
    rank = np.argsort(rng.permutation(g.n_offline))
    return _min_degree_loop(g, rng, rank, on_step)


def run_min_ranking_fixed(g: BipartiteGraph, rank: np.ndarray, on_step=None) -> np.ndarray:
    """Deterministic variant: given rank (key) array, lowest-index selection.

    Lets tests compare against the offline-order twin run for run; on
    graphs where tied vertices are interchangeable the tie rule is
    immaterial, which is exactly what the equivalence tests exercise.
    """
    if len(rank) != g.n_offline:
        raise ValueError("rank size must equal n_offline")
    return _min_degree_loop(g, None, np.asarray(rank), on_step)


def run_rhs_greedy(g: BipartiteGraph, desc: FamilyDescriptor,
                   offline_order: np.ndarray) -> tuple[np.ndarray, int]:
    """Offline-side pass over a hub-pendant graph.

    Receives the offline vertices in the given order and matches each to
    the lowest-index free online vertex among its neighbors (hubs see all
    of U, pendants only their partner).  Returns the partner array and
    the number of pendant edges used.
    """
    if desc.family != "hgraph":
        raise ValueError("run_rhs_greedy needs hub-pendant shape metadata")
    n, k = desc.params["n"], desc.params["k"]
    if g.n_online != n or g.n_offline != n + k:
        raise ValueError("graph does not match its descriptor")
    offline_order = check_permutation(offline_order, n + k, "offline order")
    taken = [False] * (n + 1)  # n: a sentinel that stays free
    low = 0  # every online vertex below low is taken
    partner = np.full(n, -1, dtype=np.int64)
    pendant_used = 0
    for v in offline_order.tolist():
        if v < k:
            while taken[low]:
                low += 1
            if low < n:
                partner[low] = v
                taken[low] = True
        else:
            u = v - k
            if not taken[u]:
                partner[u] = v
                taken[u] = True
                pendant_used += 1
    return partner, pendant_used
