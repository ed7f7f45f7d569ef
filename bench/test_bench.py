"""Tests for the benchmark's own code: span arithmetic, rebinding, counts."""

import json

import pytest

import run
from tracing import HOOKS, Span, Tracer, _resolve, layer_metrics, self_times
from workloads import DEFAULT_SEED, Op, WORKLOADS, check_op, digest


def _run_op(label, family, params, algorithm, trials, opt=None):
    argv = ("run", family, *params.split(), "--algorithm", algorithm,
            "--trials", str(trials), "--per-trial", "--seed", "{seed}")
    return Op(label, argv, trials=trials, opt=opt)


TINY = [
    _run_op("ranking", "kvv", "n=6", "ranking", 3, opt=6),
    _run_op("mingreedy", "bp", "b=2", "mingreedy", 2, opt=12),
    _run_op("mindegree", "mindegreehard", "L=2 N=2 K=2", "mindegree", 2),
]


def traced_pass(tmp_path):
    return run.run_pass(TINY, 7, {}, str(tmp_path), run.child_env(),
                        in_process=True, traced=True)


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "a.inner", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 6.5),
        Span(4, None, 4, "other", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, 0, "root", 0.0, 10.0),
             Span(1, 0, 0, "a", 1.0, 5.0),
             Span(2, 0, 0, "b", 3.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_traced_run_restores_every_rebound_name(tmp_path):
    before = [getattr(*_resolve(module, attr)) for module, attr, _, _ in HOOKS]
    p = traced_pass(tmp_path)
    after = [getattr(*_resolve(module, attr)) for module, attr, _, _ in HOOKS]
    assert all(a is b for a, b in zip(before, after))
    assert p.spans and not any(o.problems for o in p.ops)


def test_tracer_restores_names_when_the_traced_call_raises():
    from matchlab import cli
    original = cli.main
    with pytest.raises(SystemExit):
        with Tracer():
            cli.main(["--no-such-flag"])
    assert cli.main is original


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    counts = ("families.redundant_builds", "online.arrivals", "priority.steps",
              "graphs.edges_built", "experiments.trials", "iid.arrivals",
              "graphs.oracle_calls")
    first = layer_metrics(traced_pass(tmp_path).spans)
    second = layer_metrics(traced_pass(tmp_path).spans)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # each `run` validates its spec twice and builds once more per block
    assert first["families.redundant_builds"] == 2 * len(TINY)
    assert first["experiments.trials"] == 3 + 2 + 2
    assert first["online.arrivals"] == 3 * 6
    assert first["priority.steps"] == 2 * 12


def test_contract_metrics_are_all_reported(tmp_path):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    untraced = run.run_pass(TINY, 7, {}, str(tmp_path), run.child_env(),
                            in_process=True, traced=False)
    start_up = {"bare": [0.05], "import": [0.5], "help": [0.6]}
    e2e = run.end_to_end(TINY, [untraced], start_up)
    layers = run.per_layer([untraced], [traced_pass(tmp_path)], start_up)
    for m in contract["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"] and e2e[m["name"]][0] > 0
    for m in contract["per_layer"]:
        assert layers[m["name"]][1] == m["unit"]


def test_output_gate_flags_wrong_outputs():
    op = _run_op("ranking", "kvv", "n=6", "ranking", 1, opt=6)

    def out(alg, opt):
        return json.dumps({"rows": [{"algorithm": "ranking", "alg_size": alg,
                                     "opt_size": opt}]}).encode()

    good = out(5, 6)
    ref = {"exit": 0, "sha256": digest(good)}
    assert check_op(op, 0, good, DEFAULT_SEED, ref, {}) == []
    assert check_op(op, 0, out(6, 6), DEFAULT_SEED, ref, {})  # digest differs
    assert check_op(op, 0, out(6, 6), 5, ref, {}) == []  # seeded: no digest
    assert check_op(op, 0, out(7, 6), 5, ref, {})  # alg > opt
    assert check_op(op, 0, out(2, 6), 5, ref, {})  # below half: not maximal
    assert check_op(op, 0, out(5, 7), 5, ref, {})  # opt != descriptor
    assert check_op(op, 1, good, 5, ref, {})  # exit code


def test_every_operation_has_a_reference():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    for name, script in WORKLOADS.items():
        assert sorted(refs[name]) == sorted(op.label for op in script)
