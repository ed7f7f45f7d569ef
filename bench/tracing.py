"""Span tracing by rebinding matchlab's public names, from outside the package.

`Tracer.install()` replaces each name listed in `HOOKS` with a wrapper that
records a span (name, start, end, parent) and a few counts taken from the
call's arguments and result; `Tracer.restore()` puts every original object
back.  Only the names that calling modules look up are rebound, so matchlab
itself is never edited.  Spans stay in memory until the caller writes them.

Work done inside process-pool workers is not seen: a forked worker inherits
the wrappers but its spans die with it.  The parent still records the pool
call itself as an `experiments.run_experiment` span with `workers > 1`.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


def _n_online(args, kwargs, result):
    return {"arrivals": args[0].n_online}


def _category_advice(args, kwargs, result):
    # every pass processes the whole arrival order once
    return {"arrivals": args[0].n_online * kwargs.get("k", 1)}


def _min_degree(args, kwargs, result):
    return {"steps": args[0].n_online}


def _iid_rule(args, kwargs, result):
    return {"arrivals": len(args[1].draws)}


def _graph_init(args, kwargs, result):
    return {"edges": args[0].n_edges}


def _build_family(args, kwargs, result):
    return {"key": repr((args, kwargs))}


def _run_experiment(args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {"trials": len(result), "workers": workers}


def _trial_stats(args, kwargs, result):
    return {"values": result.count}


# (module, attribute path, span name, counts from (args, kwargs, result)).
# The attribute path names the binding a caller looks up, not where the
# function is defined: cli and experiments import names into their own
# namespace, so those copies are the ones rebound.
HOOKS = [
    ("matchlab.cli", "main", "cli.main", None),
    ("matchlab.cli", "run_experiment", "experiments.run_experiment",
     _run_experiment),
    ("matchlab.cli", "reproduce", "experiments.reproduce", None),
    ("matchlab.cli", "build_family", "families.build_family", _build_family),
    ("matchlab.cli", "graph_from_dict", "graphs.graph_from_dict", None),
    ("matchlab.cli", "maximum_matching", "graphs.maximum_matching", None),
    ("matchlab.experiments", "run_experiment", "experiments.run_experiment",
     _run_experiment),
    ("matchlab.experiments", "build_family", "families.build_family",
     _build_family),
    ("matchlab.experiments", "maximum_matching", "graphs.maximum_matching", None),
    ("matchlab.experiments", "trial_stats", "analysis.trial_stats", _trial_stats),
    ("matchlab.experiments", "run_ranking", "online.run_ranking", _n_online),
    ("matchlab.experiments", "run_greedy", "online.run_greedy", _n_online),
    ("matchlab.experiments", "run_category_advice", "online.run_category_advice",
     _category_advice),
    ("matchlab.experiments", "run_min_greedy", "priority.run_min_greedy",
     _min_degree),
    ("matchlab.experiments", "run_min_ranking", "priority.run_min_ranking",
     _min_degree),
    ("matchlab.experiments", "sample_instance", "iid.sample_instance", None),
    ("matchlab.experiments", "run_min_degree", "iid.run_min_degree", _iid_rule),
    ("matchlab.experiments", "run_greedy_iid", "iid.run_greedy_iid", _iid_rule),
    # experiments imports this one inside _run_block, so the module
    # attribute is what it finds
    ("matchlab.iid", "materialize_instance", "iid.materialize_instance", None),
    ("matchlab.graphs", "BipartiteGraph.__init__", "graphs.BipartiteGraph",
     _graph_init),
]


@dataclass(slots=True)
class Span:
    """One traced call; `root` is the id of the outermost span around it."""

    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float | None = None
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.id, self.parent, self.root, self.name, self.start,
                self.end, self.counts]


def _resolve(module: str, attr: str):
    """(object holding the last attribute, attribute name) for a hook."""
    obj = importlib.import_module(module)
    *owners, name = attr.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Records spans while installed; owns every rebinding it makes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.root if parent else len(self.spans), name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, name, count in HOOKS:
                owner, attr_name = _resolve(module, attr)
                original = getattr(owner, attr_name)
                self._saved.append((owner, attr_name, original))
                setattr(owner, attr_name, self._wrap(original, name, count))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr_name, original = self._saved.pop()
            setattr(owner, attr_name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass of a workload script.

    Times named `*_s` are inclusive span times, except `*.self_s`, which
    subtract child spans.  `experiments.run_s` and `experiments.self_s`
    cover single-process runs; `experiments.pool_s` covers runs with
    `--workers > 1`.
    """
    selfs = self_times(spans)
    m = {name: 0 for name in LAYER_METRICS}
    seen_builds: set[tuple[int, str]] = set()

    def dur(s):
        return s.end - s.start

    for s in spans:
        layer = s.name.partition(".")[0]
        c = s.counts
        if s.name == "cli.main":
            m["cli.self_s"] += selfs[s.id]
        elif s.name == "experiments.run_experiment":
            m["experiments.trials"] += c.get("trials", 0)
            if c.get("workers", 1) > 1:
                m["experiments.pool_s"] += dur(s)
            else:
                m["experiments.run_s"] += dur(s)
                m["experiments.self_s"] += selfs[s.id]
        elif s.name == "families.build_family":
            m["families.build_s"] += dur(s)
            m["families.build_calls"] += 1
            key = (s.root, c.get("key"))
            m["families.redundant_builds"] += key in seen_builds
            seen_builds.add(key)
        elif s.name == "graphs.BipartiteGraph":
            m["graphs.construct_s"] += dur(s)
            m["graphs.construct_calls"] += 1
            m["graphs.edges_built"] += c.get("edges", 0)
        elif s.name == "graphs.maximum_matching":
            m["graphs.oracle_s"] += dur(s)
            m["graphs.oracle_calls"] += 1
        elif s.name == "graphs.graph_from_dict":
            m["graphs.from_dict_s"] += dur(s)
        elif layer == "online":
            m["online.kernel_s"] += dur(s)
            m["online.kernel_calls"] += 1
            m["online.arrivals"] += c.get("arrivals", 0)
        elif layer == "priority":
            m["priority.kernel_s"] += dur(s)
            m["priority.kernel_calls"] += 1
            m["priority.steps"] += c.get("steps", 0)
        elif s.name == "iid.sample_instance":
            m["iid.sample_s"] += dur(s)
        elif s.name in ("iid.run_min_degree", "iid.run_greedy_iid"):
            m["iid.rule_s"] += dur(s)
            m["iid.arrivals"] += c.get("arrivals", 0)
        elif s.name == "iid.materialize_instance":
            m["iid.materialize_s"] += dur(s)
        elif s.name == "analysis.trial_stats":
            m["analysis.stats_s"] += dur(s)
            m["analysis.stats_values"] += c.get("values", 0)
    return m


# Every per-layer metric the traced run reports, with its unit.  The ones
# measured outside spans (cli.import_s, cli.bytes_out, trace.overhead_s)
# are filled in by the runner.
LAYER_METRICS = {
    "cli.self_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.pool_s": "s",
    "experiments.trials": "count",
    "families.build_s": "s",
    "families.build_calls": "count",
    "families.redundant_builds": "count",
    "graphs.construct_s": "s",
    "graphs.construct_calls": "count",
    "graphs.edges_built": "count",
    "graphs.oracle_s": "s",
    "graphs.oracle_calls": "count",
    "graphs.from_dict_s": "s",
    "online.kernel_s": "s",
    "online.kernel_calls": "count",
    "online.arrivals": "count",
    "priority.kernel_s": "s",
    "priority.kernel_calls": "count",
    "priority.steps": "count",
    "iid.sample_s": "s",
    "iid.rule_s": "s",
    "iid.arrivals": "count",
    "iid.materialize_s": "s",
    "analysis.stats_s": "s",
    "analysis.stats_values": "count",
}
