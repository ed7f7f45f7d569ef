"""Command-line contract: formats, determinism, seeds, exit codes."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import pytest

import matchlab
from matchlab import cli, experiments, families, graphs
from matchlab.experiments import REPRODUCTIONS, ExperimentSpec, run_experiment

from test_graphs import MALFORMED_GRAPH_DOCS

HEADER = "family,params,algorithm,seed,trial,alg_size,opt_size,ratio"


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """`cli.main` in this process, with MATCHLAB_SEED unset.

    Returns a CompletedProcess with the exit code, including argparse's
    SystemExit, and the captured stdout and stderr.
    """
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)
    return run


def run_python(*args):
    """A fresh interpreter that imports this matchlab, with MATCHLAB_SEED unset."""
    env = dict(os.environ)
    env.pop(cli.SEED_ENV_VAR, None)
    src = os.path.dirname(os.path.dirname(matchlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli_process(*args):
    """The `python -m matchlab.cli` entry point in a fresh interpreter."""
    return run_python("-m", "matchlab.cli", *args)


def test_per_trial_csv_has_the_fixed_header_and_full_rows(run_cli):
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


def test_summary_csv_is_a_single_aggregate_row(run_cli):
    res = run_cli("run", "kvv", "n=6", "--algorithm", "ranking",
                  "--trials", "4", "--seed", "9", "--format", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == HEADER and len(lines) == 2
    assert lines[1].split(",")[4] == "summary"


def test_json_output_is_versioned_and_carries_intervals(run_cli):
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


def test_reruns_and_worker_counts_are_byte_identical(run_cli):
    args = ("run", "hgraph", "n=6", "k=3", "--algorithm", "minranking",
            "--trials", "8", "--seed", "11", "--format", "csv", "--per-trial")
    first = run_cli(*args)
    second = run_cli(*args)
    split = run_cli_process(*args, "--workers", "3")
    assert split.returncode == 0
    assert first.stdout == second.stdout == split.stdout


def test_generate_emits_graph_descriptor_and_type_metadata(run_cli, tmp_path):
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


def test_generate_streams_without_a_python_int_per_edge(tmp_path):
    # bp b=40 has 323,280 edges; a list of Python ints for them, and the
    # json.dumps string built from it, peaked near 37 MiB
    out = tmp_path / "bp40.json"
    assert cli.main(["generate", "bp", "b=40", "--out", str(out)]) == 0  # caches the family
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["generate", "bp", "b=40", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert json.loads(out.read_text())["n_online"] == 3280


def test_oracle_prints_the_maximum_matching_size(run_cli, tmp_path):
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


def test_pass_counts_above_the_cap_are_refused_before_any_pass(monkeypatch, capsys):
    args = ["run", "fibonacci", "k=1", "--algorithm", "category-advice", "--k"]
    assert cli.main([*args, str(experiments.MAX_PASSES)]) == 0
    assert f"category-advice(k={experiments.MAX_PASSES})" in capsys.readouterr().out

    def never(*args, **kwargs):
        raise AssertionError("no pass may run above the pass cap")
    monkeypatch.setattr(experiments, "run_category_advice", never)
    assert cli.main([*args, str(experiments.MAX_PASSES + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"pass count must lie in 1..{experiments.MAX_PASSES}" in err


@pytest.mark.parametrize("args", [["-c", "import matchlab.cli"],
                                  ["-m", "matchlab.cli", "--help"]])
def test_import_and_help_leave_scipy_unimported(args):
    # -X importtime lists every module a fresh interpreter imports
    res = run_python("-X", "importtime", *args)
    assert res.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in res.stderr.splitlines() if line.startswith("import time:")]
    assert "matchlab.graphs" in imported
    assert not [m for m in imported if m.partition(".")[0] == "scipy"]
    assert "concurrent.futures.process" not in imported  # only a pool needs it


def test_runs_on_generated_families_leave_scipy_unimported(tmp_path):
    # a family's optimum comes from its own matching, not from Hopcroft-Karp;
    # `oracle` still needs it, and prints the exact size
    doc = tmp_path / "g.json"
    code = ("import sys; from matchlab.cli import main\n"
            "main(['run', 'kvv', 'n=50', '--algorithm', 'ranking', '--trials', '3'])\n"
            "main(['reproduce', 'fibonacci-ratios'])\n"
            "main(['generate', 'bp', 'b=2', '--out', sys.argv[1]])\n"
            "print('scipy' in sys.modules)\n"
            "main(['oracle', sys.argv[1]])\n")
    res = run_python("-c", code, str(doc))
    assert res.returncode == 0
    assert '"opt_mean": 50.0,' in res.stdout
    assert "PASS: fibonacci-ratios" in res.stdout
    assert res.stdout.splitlines()[-2:] == ["False", "12"]  # 2b^2 + 2b at b=2


def test_workers_are_capped_at_trials_and_cpu_count(monkeypatch):
    asked = []

    class NoPool:  # records the pool size and starts nothing
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("pool not started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
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


def _record_builds(monkeypatch, family):
    """Wrap `family`'s generator in FAMILIES; returns the list of its calls."""
    built = []
    gen, *rest = families.FAMILIES[family]
    monkeypatch.setitem(families.FAMILIES, family,
                        (lambda *a: built.append(a) or gen(*a), *rest))
    return built


def test_generate_refuses_families_above_the_vertex_cap(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 20)
    built = _record_builds(monkeypatch, "hgraph")
    assert cli.main(["generate", "hgraph", "n=11", "k=10"]) == 1  # 21 offline
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "11 online and 21 offline vertices, above the cap of 20 per side" in err
    assert built == []  # refused before the generator ran
    assert cli.main(["generate", "hgraph", "n=10", "k=10"]) == 0  # 20 offline
    assert built == [(10, 10)]


@pytest.mark.parametrize("args", [
    ("--algorithm", "mingreedy", "--trials", "0"),
    ("--algorithm", "mindegree"),
    ("--algorithm", "minranking", "--tie", "random"),
    ("--algorithm", "mingreedy", "--k", "2"),
    ("--algorithm", "category-advice", "--k", "0")])
def test_usage_errors_exit_before_the_family_is_generated(run_cli, monkeypatch, args):
    built = _record_builds(monkeypatch, "bp")
    res = run_cli("run", "bp", "b=100", *args)
    assert res.returncode == 1 and not res.stdout and res.stderr.count("\n") == 1
    assert built == []


RUN_ARGS = ("--algorithm", "ranking", "--trials", "3", "--seed", "5")


def test_a_run_generates_its_family_once(run_cli, monkeypatch):
    built = _record_builds(monkeypatch, "kvv")
    first = run_cli("run", "kvv", "n=7", *RUN_ARGS)
    assert first.returncode == 0 and built == [(7,)]
    # an identical run reuses the cached graph; other parameters rebuild
    assert run_cli("run", "kvv", "n=7", *RUN_ARGS).stdout == first.stdout
    assert built == [(7,)]
    assert run_cli("run", "kvv", "n=8", *RUN_ARGS).returncode == 0
    assert built == [(7,), (8,)]


def test_the_cached_family_is_dropped_before_another_is_generated(
        run_cli, monkeypatch):
    kvv, *kvv_rest = families.FAMILIES["kvv"]
    bp, *bp_rest = families.FAMILIES["bp"]
    refs, alive = [], []

    def watched_kvv(*args):
        pair = kvv(*args)
        refs.append(weakref.ref(pair[0]))
        return pair

    def checking_bp(*args):
        alive.append(refs[0]() is not None)
        return bp(*args)
    monkeypatch.setitem(families.FAMILIES, "kvv", (watched_kvv, *kvv_rest))
    monkeypatch.setitem(families.FAMILIES, "bp", (checking_bp, *bp_rest))
    assert run_cli("run", "kvv", "n=7", *RUN_ARGS).returncode == 0
    assert refs[0]() is not None  # held by the cache
    assert run_cli("run", "bp", "b=2", *RUN_ARGS).returncode == 0
    assert alive == [False]


def test_a_cached_family_is_still_size_checked(run_cli, monkeypatch):
    built = _record_builds(monkeypatch, "kvv")
    assert run_cli("run", "kvv", "n=20", *RUN_ARGS).returncode == 0
    monkeypatch.setattr(graphs, "MAX_EDGES", 200)
    res = run_cli("run", "kvv", "n=20", *RUN_ARGS)
    assert res.returncode == 1 and res.stdout == ""
    assert "210 edges, above the cap of 200" in res.stderr
    assert built == [(20,)]


def test_environment_variable_supplies_the_default_seed(run_cli, monkeypatch):
    args = ("run", "kvv", "n=5", "--algorithm", "ranking", "--trials", "3",
            "--format", "csv", "--per-trial")
    via_flag = run_cli(*args, "--seed", "123")
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    via_env = run_cli(*args)
    assert via_env.stdout == via_flag.stdout
    monkeypatch.setenv(cli.SEED_ENV_VAR, "ten")
    assert run_cli(*args).returncode == 1


def test_reproduce_defaults_to_seed_101_and_ignores_the_environment(
        run_cli, monkeypatch):
    seeds = []

    def stub(seed, workers):
        seeds.append(seed)
        return [], {}

    monkeypatch.setitem(REPRODUCTIONS, "ranking-kvv", stub)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
    assert run_cli("reproduce", "ranking-kvv").returncode == 0
    assert run_cli("reproduce", "ranking-kvv", "--seed", "7").returncode == 0
    assert seeds == [101, 7]


def test_exact_multi_pass_runs_collapse_to_one_row(run_cli):
    res = run_cli("run", "fibonacci", "k=4", "--algorithm", "category-advice",
                  "--k", "4", "--trials", "5", "--format", "csv", "--per-trial")
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[2] == "category-advice(k=4)"
    assert (row[5], row[6]) == ("21", "34")


def test_usage_errors_exit_one(run_cli):
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
    for args in (("run", "kvv", "n=5", "--algorithm", "ranking", "--workers", "-3"),
                 ("reproduce", "fibonacci-ratios", "--workers", "0")):
        no_workers = run_cli(*args)
        assert no_workers.returncode == 1 and not no_workers.stdout
        assert no_workers.stderr.count("\n") == 1 and "workers" in no_workers.stderr
    assert run_cli("oracle", "/no/such/file.json").returncode == 1


def test_reproduce_wiring_reports_band_failures_with_exit_two(monkeypatch, capsys):
    def one_red(seed=0, workers=1):
        return [(True, "measured 0.25 within [0.20, 0.30]"),
                (False, "measured 0.10 outside [0.20, 0.30]")], {}

    monkeypatch.setitem(REPRODUCTIONS, "one-red", one_red)
    code = cli.main(["reproduce", "one-red"])
    out = capsys.readouterr().out
    assert code == 2
    assert out == ("measured 0.25 within [0.20, 0.30]\n"
                   "measured 0.10 outside [0.20, 0.30]\n"
                   "FAIL: one-red\n")


def test_reproduce_passes_exit_zero(run_cli):
    res = run_cli("reproduce", "fibonacci-ratios")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS: fibonacci-ratios")


def test_a_stochastic_reproduction_reckons_each_size_once(monkeypatch):
    sizes, trial_stats = [], experiments.trial_stats

    def counted(values):
        sizes.append(len(values))
        return trial_stats(values)
    monkeypatch.setattr(experiments, "trial_stats", counted)
    result = experiments.reproduce("greedy-goelmehta")
    assert result.passed and sizes == [300, 300]  # algorithm, optimum
    assert result.values["trials"] == 300


# SHA-256 of stdout at seeds 101 and 7: every algorithm, both formats,
# per-trial and summary rows, random and max-index ties, and one
# reproduction.  Output is meant to stay byte-identical across refactors;
# a change that moves an RNG stream or a format re-records these and says
# which outputs moved and why.
GOLDEN_STDOUT = {
    "run kvv n=20 --algorithm greedy --trials 6 --tie random --per-trial":
        {"101": "3d47ba267576fcde8bf1238b134bdb108fad217c2b27c13fe0b8da4d1fc0daa4",
         "7": "1b63bb0a2f5a8404ded9cfa0a65e993dbf116a891c09b2845bc212fd6833e9c2"},
    "run kvv n=20 --algorithm greedy --trials 3 --tie max-index --format csv":
        {"101": "700760e66651bf422ab5350644066113d84a18e2a0371032ba4d1863eaac1699",
         "7": "a0cb8e51facc65c5fbfbf90f925b94558bc79869ce0774ab25e86c4b9f348e59"},
    "run kvv n=20 --algorithm ranking --trials 6 --format csv --per-trial":
        {"101": "6db696b98aafec40b070a40ee54de9b344caeb41167ab934f61f81670bd3092c",
         "7": "6cc6f8efd02ec705861ff50bbb2dd157667df85ef8955029c2d79b3d8c128271"},
    "run fibonacci k=4 --algorithm category-advice --k 2":
        {"101": "c61570b884ff9957cf318e24a7d1b883cbf507b6ed07bf9b0f992280a4ab8b14",
         "7": "d8d067048c4c7cd63904af2a6cac220b593fc777abafed047e96a6fe9cf6bd47"},
    "run bp b=4 --algorithm mingreedy --trials 5 --per-trial":
        {"101": "e7ed07c306d31fffb3e1f916fb88d1b57af71fedb7eb52fedf30482bb0684da5",
         "7": "02a5938fb74ca7cee5b52b81236ae69c895d580d4934b5437d5bcbc8f2cbf6f1"},
    "run bp b=4 --algorithm minranking --trials 5 --format csv --per-trial":
        {"101": "b9a83063212c1c5f2a19991324fe5451de571b37fd8ccfeda634ca286ea16249",
         "7": "ac4492cc86f2cf5ff2ac84617f5aaecc9d0236dffe7441777117c84813fa0bb9"},
    "run mindegreehard L=2 N=2 K=3 --algorithm mindegree --trials 5 --tie random":
        {"101": "67f6b8f134ae4230233c703d068f09cc9bf479d770d6313d43441d34623a94bc",
         "7": "0ba1810c8dca976de33cd0a6d0e9c98534b3abf44b20fdfef29bd60583299299"},
    "run goelmehta L=3 N=3 --algorithm greedy-iid --trials 5 --tie max-index "
    "--format csv --per-trial":
        {"101": "ec23b31a418d133348a15021d0062662dee06d28b4ea0181bb6e1e67548d3e6d",
         "7": "a1aed41d542c1911ec2036fd711499272f691efc7157f196f173b3866f3c0b34"},
    "run mindegreehard L=10 N=10 K=20 --algorithm mindegree --trials 3 --tie max-index "
    "--per-trial":
        {"101": "18895aaf09552e461f7859c6d44eaa29856beeb937b55b1c81c5c70dbd2a64de",
         "7": "6313987a7643d74d587c83f335bc7cc6ea0ca3a25abaeff55c0566f342840486"},
    "reproduce fibonacci-ratios":
        {"101": "191310c63e0f05b44f4389d8d17802f3ecb14829940d67238f99a001167befe6",
         "7": "191310c63e0f05b44f4389d8d17802f3ecb14829940d67238f99a001167befe6"},
}


@pytest.mark.parametrize("seed", ["101", "7"])
@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_stdout_matches_its_recorded_digest(run_cli, command, seed):
    res = run_cli(*command.split(), "--seed", seed)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT[command][seed]


# SHA-256 of stdout of seedless commands: `generate` for every family.
GOLDEN_SEEDLESS_STDOUT = {
    "generate fibonacci k=5":
        "6bbca9e50b54d042067f3681ff2ce5e1cf6bf5b3dbb0b8b1e8887b10fc1348af",
    "generate kvv n=30": "81e51975233fc47eb0fbd2907d747763b4b90ae4f108156f08686be316f528de",
    "generate bp b=3": "88fefb51dc64620f6fc236e4604279e7ed5db633aa937fd7854853ed9df02993",
    "generate hgraph n=6 k=3":
        "2c767ef0cf6b27df04d88692e4640fa2005269b12c8461ce8654a23c7474c9bb",
    "generate goelmehta L=3 N=4":
        "56e4592cd8284d70f354642828abb2638a3a66bbc26e489ac24e8e60b29d534c",
    "generate mindegreehard L=2 N=3 K=4":
        "f65c7dfbd5b1a6e238c84efe87c7239ffa871dcfe8cd8d0c48d148fbb2db6376",
}


@pytest.mark.parametrize("command", list(GOLDEN_SEEDLESS_STDOUT))
def test_seedless_stdout_matches_its_recorded_digest(run_cli, command):
    res = run_cli(*command.split())
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_SEEDLESS_STDOUT[command]
