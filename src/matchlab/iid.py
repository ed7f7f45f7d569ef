"""Matching under known-IID arrivals from a type graph.

An instance draws |U| online arrivals IID uniformly from the type set U;
each arrival inherits the neighbours of its type and is matched (or lost)
immediately.  The type graph is a plain BipartiteGraph whose online side
is the type set U.  Decision rules see the arrival's type and the
still-active offline candidates.  The degree used by the minimum-degree
rule is the type graph's `offline_degrees`, fixed before any arrival: it
never shrinks as offline vertices are consumed.

Decision rules are offline priorities for `online.arrival_pass`: the
(key, draws) pair of `online.tie_rule`, a rank array under index ties
and the degree key with a draw stream under random ties.  The kernel
runs them over the type rows and `families.type_optimum_bounds` scores the
optimum; only a sample that overflows a gadget is materialized as a graph.
Partners are indexed by arrival position; arrivals with no active neighbor are lost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from matchlab.graphs import BipartiteGraph
from matchlab.online import arrival_pass, tie_rule
from matchlab.rng import make_rng

CONSISTENCY_MAX_STATES = 50_000  # (free set, position) states a check may reach
CONSISTENCY_MAX_VIOLATIONS = 16  # violations a consistency report keeps


@dataclass
class InstanceSample:
    """IID arrival sequence: draws[p] is the type arriving at position p."""

    draws: np.ndarray


def sample_instance(g: BipartiteGraph, seed: int) -> InstanceSample:
    """Draw |U| types IID uniformly from the type set U (g's online side)."""
    if g.n_online < 1:
        raise ValueError("type graph has no online types")
    rng = make_rng(seed)
    draws = rng.integers(0, g.n_online, size=g.n_online, dtype=np.int64)
    return InstanceSample(draws=draws)


def materialize_instance(g: BipartiteGraph, inst: InstanceSample) -> BipartiteGraph:
    """Instance as a concrete graph; one online vertex per arrival."""
    ptr, draws = g.indptr, inst.draws
    starts = ptr[draws]
    degs = ptr[draws + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(degs)))
    # edge e of arrival p sits at starts[p] + (e - indptr[p]) in the type CSR
    gather = np.repeat(starts - indptr[:-1], degs) + np.arange(indptr[-1])
    return BipartiteGraph(draws.size, g.n_offline, indptr, g.indices[gather])


def run_min_degree(g: BipartiteGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> np.ndarray:
    """Match each arrival to an active neighbor of minimum static degree.

    Ties are broken by index ("max-index" realizes the adversarial
    largest-block rule under the generators' ascending block layout) or
    uniformly at random.
    """
    return arrival_pass(g, inst.draws,
                        *tie_rule(g.n_offline, tie_break, seed, g.offline_degrees))


def run_greedy_iid(g: BipartiteGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> np.ndarray:
    """Match each arrival to any active neighbor per the tie policy."""
    return arrival_pass(g, inst.draws, *tie_rule(g.n_offline, tie_break, seed))


@dataclass
class ConsistencyReport:
    """Result of checking a decision rule for consistency."""

    states_checked: int
    contexts_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(g: BipartiteGraph, rule) -> ConsistencyReport:
    """Test a decision rule for arrival-order consistency.

    Lets every type arrive in every (free offline set, arrival position)
    state that arrival sequences of length |U| reach, breadth first; that
    meets the (type, available set, position) triples of all |U|^|U|
    sequences.  A state's witness is the first prefix reaching it, types
    in ascending order.  A rule is consistent when the choice is a function
    of (type, available set) alone and shrinking the available set around
    a kept choice does not change it; both are checked over all context
    pairs.  `rule` is a priority (an int64 key array), which takes the
    available vertex of least key, lowest index first, or a chooser: a
    stateless callable rule(type, avail, pos) returning one vertex of
    `avail`, the sorted non-empty available set.  A fixed priority is
    consistent by construction, so only choosers can be the inconsistent
    controls.  Refused past CONSISTENCY_MAX_STATES states.
    """
    n = g.n_online
    ptr = g.indptr.tolist()
    nbrs = [frozenset(g.indices[ptr[t]:ptr[t + 1]].tolist()) for t in range(n)]
    seen: dict[int, dict[frozenset, tuple[int, tuple]]] = {}
    violations: list[dict] = []
    level = {frozenset(range(g.n_offline)): ()}  # free set -> witness prefix
    states = len(level)
    for pos in range(n):
        nxt: dict[frozenset, tuple] = {}
        for free, prefix in level.items():
            for t in range(n):
                seq, key, after = prefix + (t,), free & nbrs[t], free
                if key:
                    avail = np.array(sorted(key), dtype=np.int64)
                    v = int(avail[rule[avail].argmin()] if isinstance(rule, np.ndarray)
                            else rule(t, avail, pos))
                    prev = seen.setdefault(t, {}).setdefault(key, (v, seq))
                    if prev[0] != v and len(violations) < CONSISTENCY_MAX_VIOLATIONS:
                        violations.append({
                            "kind": "same-context", "type": t, "avail": sorted(key),
                            "matches": (prev[0], v), "witness": (prev[1], seq)})
                    after = free - {v}
                if pos + 1 < n and after not in nxt:
                    states += 1
                    if states > CONSISTENCY_MAX_STATES:
                        raise ValueError("consistency check reaches more than "
                                         f"{CONSISTENCY_MAX_STATES} states")
                    nxt[after] = seq
        level = nxt
    for t, ctx in seen.items():
        for big, small in itertools.permutations(ctx, 2):
            (vb, wb), (vs, ws) = ctx[big], ctx[small]
            if (small < big and vb in small and vs != vb
                    and len(violations) < CONSISTENCY_MAX_VIOLATIONS):
                violations.append({
                    "kind": "subset", "type": t,
                    "avail": sorted(big), "sub_avail": sorted(small),
                    "matches": (vb, vs), "witness": (wb, ws)})
    return ConsistencyReport(states_checked=states,
                             contexts_checked=sum(map(len, seen.values())),
                             violations=violations)
