"""Matching under known-IID arrivals from a type graph.

An instance draws |U| online arrivals IID uniformly from the type set U;
each arrival inherits the adjacency of its type and is matched (or lost)
immediately.  Decision rules see the arrival's type and the still-active
offline candidates.  The degree used by the minimum-degree rule is the
static type-graph degree, frozen before any arrival: it never shrinks as
offline vertices are consumed.

Decision rules are choosers for `online.arrival_pass`, which runs them
over the type rows without materializing the instance; only the offline
optimum needs the instance as a graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from matchlab.families import FamilyDescriptor
from matchlab.graphs import BipartiteGraph, Matching
from matchlab.online import arrival_pass, tie_chooser
from matchlab.rng import make_rng

CONSISTENCY_MAX_ONLINE = 6


@dataclass
class TypeGraph:
    """Type graph plus the frozen offline degree table."""

    base: BipartiteGraph
    static_degree: np.ndarray

    @classmethod
    def from_graph(cls, base: BipartiteGraph) -> "TypeGraph":
        return cls(base=base, static_degree=base.offline_degrees)  # read-only

    @property
    def n_types(self) -> int:
        return self.base.n_online

    @property
    def n_offline(self) -> int:
        return self.base.n_offline


@dataclass
class InstanceSample:
    """IID arrival sequence: draws[p] is the type arriving at position p."""

    draws: np.ndarray
    seed: int


def sample_instance(tg: TypeGraph, seed: int) -> InstanceSample:
    """Draw |U| types IID uniformly from U."""
    if tg.n_types < 1:
        raise ValueError("type graph has no online types")
    rng = make_rng(seed)
    draws = rng.integers(0, tg.n_types, size=tg.n_types, dtype=np.int64)
    return InstanceSample(draws=draws, seed=seed)


def materialize_instance(tg: TypeGraph, inst: InstanceSample) -> BipartiteGraph:
    """Instance as a concrete graph; one online vertex per arrival."""
    ptr, draws = tg.base.indptr, inst.draws
    starts = ptr[draws]
    degs = ptr[draws + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(degs)))
    # edge e of arrival p sits at starts[p] + (e - indptr[p]) in the type CSR
    gather = np.repeat(starts - indptr[:-1], degs) + np.arange(indptr[-1])
    return BipartiteGraph(draws.size, tg.n_offline, indptr, tg.base.indices[gather])


def make_min_degree_rule(tg: TypeGraph, tie_break: str = "lowest-index",
                         seed: int | None = None):
    """Decision rule: active neighbor of minimum static degree.

    Ties are broken by index ("max-index" realizes the adversarial
    largest-block rule under the generators' ascending block layout) or
    uniformly at random.
    """
    inner = tie_chooser(tie_break, seed)
    sd = tg.static_degree

    def choose(t: int, avail: np.ndarray, pos: int) -> int:
        degs = sd[avail]
        return inner(t, avail[degs == degs.min()], pos)
    return choose


def parity_control_chooser():
    """Deliberately inconsistent rule for negative tests.

    Picks the lowest-index candidate at even arrival positions and the
    highest at odd ones, so the choice depends on when the arrival
    happens, not only on what is available.
    """
    def choose(t: int, avail: np.ndarray, pos: int) -> int:
        return int(avail[0]) if pos % 2 == 0 else int(avail[-1])
    return choose


def run_rule(tg: TypeGraph, draws, choose) -> Matching:
    """Run a decision rule over an arrival sequence.

    The matching's online side is indexed by arrival position.  Arrivals
    whose active neighborhood is empty are lost.
    """
    return Matching.from_partners(arrival_pass(tg.base, draws, choose), tg.n_offline)


def run_min_degree(tg: TypeGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> Matching:
    """Match each arrival to an active neighbor of minimum static degree."""
    return run_rule(tg, inst.draws, make_min_degree_rule(tg, tie_break, seed))


def run_greedy_iid(tg: TypeGraph, inst: InstanceSample,
                   tie_break: str = "lowest-index",
                   seed: int | None = None) -> Matching:
    """Match each arrival to any active neighbor per the tie policy."""
    return run_rule(tg, inst.draws, tie_chooser(tie_break, seed))


@dataclass
class ConsistencyReport:
    """Result of exhaustively checking a decision rule for consistency."""

    sequences_checked: int
    contexts_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(tg: TypeGraph, rule_factory,
                      max_violations: int = 16) -> ConsistencyReport:
    """Exhaustively test a decision rule for arrival-order consistency.

    Enumerates every arrival sequence of length |U| over the types and
    records, per type, the choice made in each availability context.  A
    rule is consistent when the choice is a function of (type, available
    set) alone and shrinking the available set around a kept choice does
    not change it; both requirements are checked over all context pairs.
    rule_factory must build a fresh rule per run (rules may be stateful).
    Guarded to |U| <= 6.
    """
    n = tg.n_types
    if n > CONSISTENCY_MAX_ONLINE:
        raise ValueError(f"consistency check limited to |U| <= {CONSISTENCY_MAX_ONLINE}")
    seen: dict[int, dict[frozenset, tuple[int, tuple, int]]] = {}
    violations: list[dict] = []
    sequences = 0
    for seq in itertools.product(range(n), repeat=n):
        sequences += 1
        choose = rule_factory()

        def record(t, avail, pos):
            v = int(choose(t, avail, pos))
            key = frozenset(avail.tolist())
            prev = seen.setdefault(t, {}).get(key)
            if prev is None:
                seen[t][key] = (v, seq, pos)
            elif prev[0] != v and len(violations) < max_violations:
                violations.append({
                    "kind": "same-context", "type": t, "avail": sorted(key),
                    "matches": (prev[0], v),
                    "witness": (prev[1], prev[2], seq, pos)})
            return v
        arrival_pass(tg.base, seq, record)
    contexts = 0
    for t, ctx in seen.items():
        keys = list(ctx)
        contexts += len(keys)
        for big, small in itertools.permutations(keys, 2):
            if small < big and ctx[big][0] in small and ctx[small][0] != ctx[big][0]:
                if len(violations) < max_violations:
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
