"""The four benchmark workloads and the checks on every operation's output.

A workload is a fixed script of matchlab commands that one client runs in
a closed loop, a whole pass of the script at a time.  `{seed}` in an
argument list stands for the workload seed; `{tmp}` for a scratch file
inside the checkout.  Kernel workloads call `matchlab.cli.main` in the
benchmark's own process; `cli-short` starts `python -m matchlab.cli` per
command, so interpreter start-up and imports are part of each operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 101

# matchings whose every arrival takes a free neighbour if one exists are
# maximal, so they reach at least half the optimum
MAXIMAL = ("greedy", "ranking", "mingreedy", "minranking", "mindegree",
           "greedy-iid")

# F_18: k category-advice passes on the k=9 recursive family
FIB_K9_ADVICE = 2584


@dataclass(frozen=True)
class Op:
    """One command of a workload script.

    label       unique within the workload; keys the reference table
    argv        arguments after `matchlab`
    trials      trials the command completes (0 for non-`run` commands)
    expect      what the output must satisfy for any seed (see check_op)
    opt         optimum size the family descriptor promises, if fixed
    exact       matching size every row must reach, if fixed
    """

    label: str
    argv: tuple[str, ...]
    trials: int = 0
    expect: str = "rows"
    opt: int | None = None
    exact: int | None = None

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def args(self, seed: int, tmp: str = "") -> list[str]:
        return [a.format(seed=seed, tmp=tmp) for a in self.argv]


def _run(label, family, params, algorithm, trials, *extra, opt=None,
         exact=None):
    argv = ("run", family, *params.split(), "--algorithm", algorithm,
            "--trials", str(trials), *extra, "--per-trial", "--seed", "{seed}")
    return Op(label, argv, trials=1 if algorithm == "category-advice" else trials,
              opt=opt, exact=exact)


WORKLOADS: dict[str, list[Op]] = {
    # 1-25 ms per trial: per-trial overhead and the Python arrival and
    # min-degree step loops dominate; kvv and bp specs take about half each
    "small-instances": [
        _run("ranking-kvv200", "kvv", "n=200", "ranking", 550, opt=200),
        _run("greedy-kvv200", "kvv", "n=200", "greedy", 600, "--tie", "random",
             opt=200),
        _run("mingreedy-bp25", "bp", "b=25", "mingreedy", 20, opt=1300),
        _run("minranking-bp25", "bp", "b=25", "minranking", 18, opt=1300),
    ],
    # few trials on multi-million-edge graphs: O(n) work per min-degree
    # step and the family builds dominate
    "large-instances": [
        _run("mingreedy-bp100", "bp", "b=100", "mingreedy", 6, opt=20200),
        _run("minranking-bp100", "bp", "b=100", "minranking", 6, opt=20200),
        _run("ranking-kvv2000", "kvv", "n=2000", "ranking", 40, opt=2000),
        _run("advice-fib9", "fibonacci", "k=9", "category-advice", 1,
             "--k", "9", opt=4181, exact=FIB_K9_ADVICE),
    ],
    # every trial samples, materializes and solves a fresh instance
    "iid": [
        _run("mindegree-hard", "mindegreehard", "L=10 N=10 K=20", "mindegree",
             10, "--tie", "max-index"),
        _run("greedy-iid-goelmehta", "goelmehta", "L=20 N=20", "greedy-iid",
             60, "--tie", "max-index"),
    ],
    # one process per command: start-up and imports dominate
    "cli-short": [
        Op("help", ("--help",), expect="help"),
        Op("generate-kvv50", ("generate", "kvv", "n=50"), expect="graph"),
        Op("generate-out", ("generate", "mindegreehard", "L=2", "N=2", "K=2",
                            "--out", "{tmp}"), expect="empty"),
        Op("oracle", ("oracle", "{tmp}"), expect="oracle", opt=12),
        Op("run-json", ("run", "kvv", "n=50", "--algorithm", "ranking",
                        "--trials", "20", "--per-trial", "--seed", "{seed}"),
           trials=20, opt=50),
        Op("run-csv", ("run", "kvv", "n=50", "--algorithm", "ranking",
                       "--trials", "20", "--per-trial", "--format", "csv",
                       "--seed", "{seed}"), trials=20, expect="csv", opt=50),
        Op("run-workers2", ("run", "kvv", "n=50", "--algorithm", "ranking",
                            "--trials", "20", "--per-trial", "--workers", "2",
                            "--seed", "{seed}"), trials=20, expect="same:run-json",
           opt=50),
        Op("reproduce", ("reproduce", "fibonacci-ratios", "--seed", "{seed}"),
           expect="pass"),
        Op("usage-error", ("run", "kvv", "n=50", "--algorithm", "ranking",
                           "--trials", "0", "--seed", "{seed}"), expect="usage"),
    ],
}

# warm-up script for in-process workloads: the same code paths on tiny
# inputs, so lazy imports and first-call set-up finish before timing
WARMUP = [
    _run("w-ranking", "kvv", "n=8", "ranking", 2),
    _run("w-greedy", "kvv", "n=8", "greedy", 2, "--tie", "random"),
    _run("w-mingreedy", "bp", "b=2", "mingreedy", 2),
    _run("w-minranking", "bp", "b=2", "minranking", 2),
    _run("w-advice", "fibonacci", "k=2", "category-advice", 1, "--k", "2"),
    _run("w-mindegree", "mindegreehard", "L=2 N=2 K=2", "mindegree", 2,
         "--tie", "max-index"),
    _run("w-greedy-iid", "goelmehta", "L=2 N=2", "greedy-iid", 2,
         "--tie", "max-index"),
]

IN_PROCESS = frozenset({"small-instances", "large-instances", "iid"})


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _row_problems(op: Op, rows: list[tuple[str, float, float]]) -> list[str]:
    """Invariants of per-trial rows (algorithm, alg_size, opt_size)."""
    bad = []
    if len(rows) != op.trials:
        bad.append(f"{len(rows)} rows, want {op.trials}")
    for alg, a, o in rows:
        name = alg.split("(")[0]
        if a > o:
            bad.append(f"alg_size {a} > opt_size {o}")
        if op.opt is not None and o != op.opt:
            bad.append(f"opt_size {o}, descriptor says {op.opt}")
        if name in MAXIMAL and 2 * a < o:
            bad.append(f"{name}: 2*{a} < {o} for a maximal matching")
        if op.exact is not None and a != op.exact:
            bad.append(f"{name} gave {a}, want exactly {op.exact}")
    return bad[:3]


def check_op(op: Op, code: int, out: bytes, seed: int, ref: dict | None,
             earlier: dict[str, bytes]) -> list[str]:
    """Problems with one operation's exit code and stdout; empty if none.

    `ref` holds the reference exit code and stdout digest, recorded at the
    default seed; it applies at that seed, and at any seed to commands
    that take no seed.  The invariants apply at every seed.
    `earlier` maps labels of this pass's finished operations to stdout.
    """
    bad = []
    if ref is not None and (seed == DEFAULT_SEED or not op.seeded):
        if code != ref["exit"]:
            bad.append(f"exit {code}, reference {ref['exit']}")
        if digest(out) != ref["sha256"]:
            bad.append("stdout differs from the reference digest")
    want_code = 1 if op.expect == "usage" else 0
    if code != want_code:
        return bad + [f"exit {code}, want {want_code}"]
    text = out.decode("utf-8", "replace")
    try:
        if op.expect == "rows":
            doc = json.loads(text)
            rows = [(r["algorithm"], r["alg_size"], r["opt_size"])
                    for r in doc["rows"]]
            bad += _row_problems(op, rows)
        elif op.expect == "csv":
            lines = text.splitlines()[1:]
            rows = [(f[2], float(f[5]), float(f[6]))
                    for f in (ln.split(",") for ln in lines)]
            bad += _row_problems(op, rows)
        elif op.expect.startswith("same:"):
            if out != earlier.get(op.expect[5:]):
                bad.append(f"output differs from {op.expect[5:]}")
        elif op.expect == "help":
            if not text.startswith("usage: matchlab"):
                bad.append("no usage text")
        elif op.expect == "graph":
            doc = json.loads(text)
            n_edges = sum(len(r) for r in doc["adj"])
            if doc["descriptor"]["expected_opt"] != 50 or n_edges != 50 * 51 // 2:
                bad.append("kvv n=50 graph has the wrong shape")
        elif op.expect == "oracle":
            if text.strip() != str(op.opt):
                bad.append(f"oracle printed {text.strip()!r}, want {op.opt}")
        elif op.expect == "pass":
            if not text.rstrip().endswith("PASS: fibonacci-ratios"):
                bad.append("reproduction did not pass")
        elif op.expect in ("empty", "usage"):
            if out:
                bad.append("unexpected stdout")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad.append(f"unreadable output: {exc!r}")
    return bad
