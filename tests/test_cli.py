"""Command-line contract: formats, determinism, seeds, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from matchlab import cli, experiments, families, graphs
from matchlab.experiments import (REPRODUCTIONS, ExperimentSpec,
                                  ReproduceResult, run_experiment)

from test_graphs import MALFORMED_GRAPH_DOCS

HEADER = "family,params,algorithm,seed,trial,alg_size,opt_size,ratio"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop(cli.SEED_ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "matchlab.cli", *args],
                          capture_output=True, text=True, env=env)


def test_per_trial_csv_has_the_fixed_header_and_full_rows():
    res = run_cli("run", "kvv", "n=6", "--algorithm", "ranking",
                  "--trials", "4", "--seed", "9", "--format", "csv",
                  "--per-trial")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 5
    for t, line in enumerate(lines[1:]):
        family, params, algorithm, seed, trial, alg, opt, ratio = line.split(",")
        assert (family, params, algorithm) == ("kvv", "n=6", "ranking")
        assert seed == "9" and trial == str(t)
        assert int(opt) == 6 and 0 <= int(alg) <= 6
        assert abs(float(ratio) - int(alg) / 6) < 1e-15


def test_summary_csv_is_a_single_aggregate_row():
    res = run_cli("run", "kvv", "n=6", "--algorithm", "ranking",
                  "--trials", "4", "--seed", "9", "--format", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == HEADER and len(lines) == 2
    assert lines[1].split(",")[4] == "summary"


def test_json_output_is_versioned_and_carries_intervals():
    res = run_cli("run", "bp", "b=2", "--algorithm", "mingreedy",
                  "--trials", "6", "--seed", "4")
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1
    summary = doc["summary"]
    assert summary["seed"] == 4 and summary["trials"] == 6
    assert len(summary["alg_ci"]) == 2 and len(summary["opt_ci"]) == 2
    assert summary["alg_ci"][0] <= summary["alg_mean"] <= summary["alg_ci"][1]
    assert "rows" not in doc
    per = run_cli("run", "bp", "b=2", "--algorithm", "mingreedy",
                  "--trials", "6", "--seed", "4", "--per-trial")
    rows = json.loads(per.stdout)["rows"]
    assert [r["trial"] for r in rows] == list(range(6))
    assert all(r["seed"] == 4 and r["params"] == "b=2" for r in rows)


def test_reruns_and_worker_counts_are_byte_identical():
    args = ("run", "hgraph", "n=6", "k=3", "--algorithm", "minranking",
            "--trials", "8", "--seed", "11", "--format", "csv", "--per-trial")
    first = run_cli(*args)
    second = run_cli(*args)
    split = run_cli(*args, "--workers", "3")
    assert first.stdout == second.stdout == split.stdout


def test_generate_emits_graph_descriptor_and_type_metadata(tmp_path):
    res = run_cli("generate", "fibonacci", "k=3")
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1 and doc["n_online"] == 13
    assert doc["descriptor"]["expected_opt"] == 13
    assert "families" not in doc

    out = tmp_path / "tg.json"
    res = run_cli("generate", "goelmehta", "L=2", "N=3", "--out", str(out))
    assert res.returncode == 0 and res.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["families"] == {"family": "goelmehta", "params": {"L": 2, "N": 3}}


def test_oracle_prints_the_maximum_matching_size(tmp_path):
    out = tmp_path / "g.json"
    run_cli("generate", "bp", "b=2", "--out", str(out))
    res = run_cli("oracle", str(out))
    assert res.returncode == 0
    assert res.stdout.strip() == "12"  # 2b^2 + 2b at b=2


@pytest.mark.parametrize("doc", MALFORMED_GRAPH_DOCS)
def test_oracle_rejects_malformed_graphs_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["oracle", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("matchlab: error:") and err.count("\n") == 1


def test_oracle_refuses_deeply_nested_documents_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    assert cli.main(["oracle", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "nested too deeply" in err


def test_trial_counts_above_the_cap_are_refused_before_any_trial(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("no trial may run above the trial cap")
    monkeypatch.setattr(experiments, "_run_block", never)
    args = ["run", "kvv", "n=2", "--algorithm", "ranking", "--trials"]
    assert cli.main([*args, str(experiments.MAX_TRIALS + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"trials must lie in 1..{experiments.MAX_TRIALS}" in err


@pytest.mark.parametrize("args", [["-c", "import matchlab.cli"],
                                  ["-m", "matchlab.cli", "--help"]])
def test_import_and_help_leave_scipy_unimported(args):
    # -X importtime lists every module a fresh interpreter imports
    res = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True)
    assert res.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in res.stderr.splitlines() if line.startswith("import time:")]
    assert "matchlab.graphs" in imported
    assert not [m for m in imported if m.partition(".")[0] == "scipy"]


def test_workers_are_capped_at_trials_and_cpu_count(monkeypatch):
    asked = []

    class NoPool:  # records the pool size and starts nothing
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("pool not started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for trials in (100_000, 2):
        spec = ExperimentSpec("kvv", {"n": 2}, "ranking", trials=trials)
        with pytest.raises(RuntimeError):
            run_experiment(spec, workers=100_000)
    assert asked == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert len(run_experiment(spec, workers=100_000)) == 2  # no pool at all


def test_generate_refuses_families_above_the_edge_cap(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_EDGES", 200)
    assert cli.main(["generate", "kvv", "n=20"]) == 1  # 210 edges
    out, err = capsys.readouterr()
    assert out == "" and "210 edges, above the cap of 200" in err
    assert cli.main(["generate", "kvv", "n=19"]) == 0  # 190 edges
    capsys.readouterr()
    # the padded family's slack needs L as a float, which overflows here
    assert cli.main(["generate", "mindegreehard", f"L={10 ** 400}", "N=1", "K=1"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_generate_refuses_families_above_the_vertex_cap(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 20)
    built = []
    gen, *rest = families.FAMILIES["hgraph"]
    monkeypatch.setitem(families.FAMILIES, "hgraph",
                        (lambda *a: built.append(a) or gen(*a), *rest))
    assert cli.main(["generate", "hgraph", "n=11", "k=10"]) == 1  # 21 offline
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "11 online and 21 offline vertices, above the cap of 20 per side" in err
    assert built == []  # refused before the generator ran
    assert cli.main(["generate", "hgraph", "n=10", "k=10"]) == 0  # 20 offline
    assert built == [(10, 10)]


def test_environment_variable_supplies_the_default_seed():
    via_env = run_cli("run", "kvv", "n=5", "--algorithm", "ranking",
                      "--trials", "3", "--format", "csv", "--per-trial",
                      env_extra={cli.SEED_ENV_VAR: "123"})
    via_flag = run_cli("run", "kvv", "n=5", "--algorithm", "ranking",
                       "--trials", "3", "--seed", "123", "--format", "csv",
                       "--per-trial")
    assert via_env.stdout == via_flag.stdout
    bad = run_cli("run", "kvv", "n=5", "--algorithm", "ranking",
                  env_extra={cli.SEED_ENV_VAR: "ten"})
    assert bad.returncode == 1


def test_exact_multi_pass_runs_collapse_to_one_row():
    res = run_cli("run", "fibonacci", "k=4", "--algorithm", "category-advice",
                  "--k", "4", "--trials", "5", "--format", "csv", "--per-trial")
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[2] == "category-advice(k=4)"
    assert (row[5], row[6]) == ("21", "34")


def test_usage_errors_exit_one():
    assert run_cli("run", "kvv", "n=5", "--algorithm", "sorting").returncode == 1
    assert run_cli("run", "kvv", "n=0", "--algorithm", "ranking").returncode == 1
    assert run_cli("run", "kvv", "n=five", "--algorithm", "ranking").returncode == 1
    assert run_cli("run", "kvv", "b=5", "--algorithm", "ranking").returncode == 1
    twice = run_cli("run", "kvv", "n=3", "n=5", "--algorithm", "greedy")
    assert twice.returncode == 1 and not twice.stdout
    assert twice.stderr.count("\n") == 1 and "'n' given more than once" in twice.stderr
    assert run_cli("reproduce", "unknown-name").returncode == 1
    assert run_cli("generate", "mystery", "k=2").returncode == 1
    assert run_cli("run", "kvv", "n=4", "--algorithm", "mindegree").returncode == 1
    assert run_cli("run", "kvv", "n=4", "--algorithm", "ranking",
                   "--k", "2").returncode == 1
    zero_passes = run_cli("run", "fibonacci", "k=2", "--algorithm",
                          "category-advice", "--k", "0")
    assert zero_passes.returncode == 1 and not zero_passes.stdout
    assert len(zero_passes.stderr.strip().splitlines()) == 1
    assert run_cli("oracle", "/no/such/file.json").returncode == 1


def test_reproduce_wiring_reports_band_failures_with_exit_two(monkeypatch, capsys):
    def always_red(seed=0, workers=1):
        return ReproduceResult("always-red", False,
                               ["measured 0.10 outside [0.20, 0.30]"], {})

    monkeypatch.setitem(REPRODUCTIONS, "always-red", always_red)
    code = cli.main(["reproduce", "always-red"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL: always-red" in out and "outside" in out


def test_reproduce_passes_exit_zero():
    res = run_cli("reproduce", "fibonacci-ratios")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS: fibonacci-ratios")
