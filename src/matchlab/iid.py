"""Matching under known-IID arrivals from a type graph.

An instance draws |U| online arrivals IID uniformly from the type set U;
each arrival inherits the adjacency of its type and is matched (or lost)
immediately.  The type graph is a plain BipartiteGraph whose online side
is the type set U.  Decision rules see the arrival's type and the
still-active offline candidates.  The degree used by the minimum-degree
rule is the type graph's `offline_degrees`, fixed before any arrival: it
never shrinks as offline vertices are consumed.

Decision rules are offline priorities for `online.arrival_pass`: a rank
array under index ties, a chooser under random ties.  The kernel runs
them over the type rows without materializing the instance; only the
offline optimum needs the instance as a graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from matchlab.families import FamilyDescriptor
from matchlab.graphs import BipartiteGraph, Matching
from matchlab.online import arrival_pass, tie_rule
from matchlab.rng import make_rng

CONSISTENCY_MAX_ONLINE = 6
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


def make_min_degree_rule(g: BipartiteGraph, tie_break: str = "lowest-index",
                         seed: int | None = None):
    """Decision rule: active neighbor of minimum static degree.

    Ties are broken by index ("max-index" realizes the adversarial
    largest-block rule under the generators' ascending block layout),
    which makes the rule a rank array, or uniformly at random.
    """
    return tie_rule(g.n_offline, tie_break, seed, g.offline_degrees)


def run_rule(g: BipartiteGraph, draws, rule) -> Matching:
    """Run a decision rule (rank array or chooser) over an arrival sequence.

    The matching's online side is indexed by arrival position.  Arrivals
    whose active neighborhood is empty are lost.
    """
    return Matching.from_partners(arrival_pass(g, draws, rule), g.n_offline)


def run_min_degree(g: BipartiteGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> Matching:
    """Match each arrival to an active neighbor of minimum static degree."""
    return run_rule(g, inst.draws, make_min_degree_rule(g, tie_break, seed))


def run_greedy_iid(g: BipartiteGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> Matching:
    """Match each arrival to any active neighbor per the tie policy."""
    return run_rule(g, inst.draws, tie_rule(g.n_offline, tie_break, seed))


@dataclass
class ConsistencyReport:
    """Result of exhaustively checking a decision rule for consistency."""

    sequences_checked: int
    contexts_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(g: BipartiteGraph, rule) -> ConsistencyReport:
    """Exhaustively test a decision rule for arrival-order consistency.

    Enumerates every arrival sequence of length |U| over the types and
    records, per type, the choice made in each availability context.  A
    rule is consistent when the choice is a function of (type, available
    set) alone and shrinking the available set around a kept choice does
    not change it; both requirements are checked over all context pairs.
    `rule` is a rank array or a chooser, reused for every sequence, so a
    chooser must keep no state between calls; a rank array is recorded as
    the chooser of its least-ranked available vertex.
    Guarded to |U| <= 6.
    """
    n = g.n_online
    if n > CONSISTENCY_MAX_ONLINE:
        raise ValueError(f"consistency check limited to |U| <= {CONSISTENCY_MAX_ONLINE}")
    seen: dict[int, dict[frozenset, tuple[int, tuple, int]]] = {}
    violations: list[dict] = []

    def record(t, avail, pos):
        v = int(rule(t, avail, pos) if callable(rule)
                else avail[rule[avail].argmin()])
        key = frozenset(avail.tolist())
        prev = seen.setdefault(t, {}).get(key)
        if prev is None:
            seen[t][key] = (v, seq, pos)
        elif prev[0] != v and len(violations) < CONSISTENCY_MAX_VIOLATIONS:
            violations.append({
                "kind": "same-context", "type": t, "avail": sorted(key),
                "matches": (prev[0], v),
                "witness": (prev[1], prev[2], seq, pos)})
        return v

    sequences = 0
    for seq in itertools.product(range(n), repeat=n):
        sequences += 1
        arrival_pass(g, seq, record)
    contexts = 0
    for t, ctx in seen.items():
        keys = list(ctx)
        contexts += len(keys)
        for big, small in itertools.permutations(keys, 2):
            if small < big and ctx[big][0] in small and ctx[small][0] != ctx[big][0]:
                if len(violations) < CONSISTENCY_MAX_VIOLATIONS:
                    violations.append({
                        "kind": "subset", "type": t,
                        "avail": sorted(big), "sub_avail": sorted(small),
                        "matches": (ctx[big][0], ctx[small][0]),
                        "witness": (ctx[big][1], ctx[big][2],
                                    ctx[small][1], ctx[small][2])})
    return ConsistencyReport(sequences_checked=sequences,
                             contexts_checked=contexts,
                             violations=violations)


def gadget_overflow_count(desc: FamilyDescriptor, inst: InstanceSample) -> int:
    """Number of gadgets whose arrivals exceed their offline capacity."""
    ranges = desc.extra.get("gadget_online")
    cap = desc.extra.get("gadget_capacity")
    if ranges is None or cap is None:
        raise ValueError("descriptor lacks gadget layout metadata")
    draws = inst.draws
    return sum(int(((draws >= lo) & (draws < hi)).sum()) > cap for lo, hi in ranges)
