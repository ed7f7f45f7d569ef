"""matchlab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; matchlab is imported from `src/`.
The run repeats whole passes of the workload's script until at least
`--seconds` of pass time have elapsed, and between passes times
fresh interpreters (bare, `import matchlab.cli`, `python -m matchlab.cli
--help`).  Every operation's exit code and stdout are checked (see
workloads.check_op).  With `--trace 1` each pass is run twice, untraced
then traced; the traced passes give the per-layer metrics, and the
difference between the two is the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json names.
A result file with the machine manifest is written to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import LAYER_METRICS, Span, Tracer, layer_metrics, span_table
from workloads import DEFAULT_SEED, IN_PROCESS, WARMUP, WORKLOADS, check_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
REFERENCES = BENCH_DIR / "references.json"

# rounds of fresh interpreters per run, spread evenly over the timed loop so
# they sample the machine at the same moments as the operations do
START_ROUNDS = 3
START_KINDS = {"bare": ["-c", "pass"],
               "import": ["-c", "import matchlab.cli"],
               "help": ["-m", "matchlab.cli", "--help"]}
OP_TIMEOUT_S = 150


@dataclass
class OpRun:
    label: str
    code: int
    out: bytes
    wall: float
    problems: list[str]


@dataclass
class Pass:
    ops: list[OpRun] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.ops)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MATCHLAB_SEED", None)
    return env


def timed_process(argv: list[str], env: dict) -> tuple[int, bytes, float]:
    t0 = time.perf_counter()
    res = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                         timeout=OP_TIMEOUT_S)
    return res.returncode, res.stdout, time.perf_counter() - t0


def time_start_up(env: dict, walls: dict[str, list[float]]) -> None:
    """Append the wall seconds of one fresh interpreter of each kind."""
    for kind, args in START_KINDS.items():
        code, _, wall = timed_process([sys.executable, *args], env)
        if code != 0:
            raise RuntimeError(f"`python {' '.join(args)}` exited {code}")
        walls.setdefault(kind, []).append(wall)


def call_in_process(args: list[str]) -> tuple[int, bytes, float]:
    from matchlab import cli  # looked up per call so a tracer's rebinding applies
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, as in a real process
        traceback.print_exc()
        code = 1
    return code, buf.getvalue().encode("utf-8"), time.perf_counter() - t0


def run_pass(script, seed: int, refs: dict, scratch: str, env: dict,
             in_process: bool, traced: bool) -> Pass:
    result = Pass()
    earlier: dict[str, bytes] = {}
    tmp = os.path.join(scratch, "graph.json")
    tracer = Tracer() if traced and in_process else None
    with tracer or contextlib.nullcontext():
        for op in script:
            args = op.args(seed, tmp)
            if in_process:
                code, out, wall = call_in_process(args)
            elif traced:
                spans_file = os.path.join(scratch, "spans.json")
                code, out, wall = timed_process(
                    [sys.executable, str(BENCH_DIR / "traced_cli.py"), spans_file,
                     *args], env)
                base = len(result.spans)
                with contextlib.suppress(FileNotFoundError):  # child died early
                    with open(spans_file, encoding="utf-8") as fh:
                        rows = json.load(fh)
                    os.remove(spans_file)
                    for row in rows:
                        s = Span(*row)
                        s.id += base
                        s.root += base
                        s.parent = None if s.parent is None else s.parent + base
                        result.spans.append(s)
            else:
                code, out, wall = timed_process(
                    [sys.executable, "-m", "matchlab.cli", *args], env)
            problems = check_op(op, code, out, seed, refs.get(op.label), earlier)
            earlier[op.label] = out
            result.ops.append(OpRun(op.label, code, out, wall, problems))
    if tracer is not None:
        result.spans = tracer.spans
    return result


def end_to_end(script, passes: list[Pass], start_up: dict) -> dict:
    script = {op.label: op for op in script}
    ops = [o for p in passes for o in p.ops]
    trials = sum(script[o.label].trials for o in ops)
    walls_ms = [o.wall * 1e3 for o in ops]
    helps_ms = [w * 1e3 for w in start_up["help"]]
    helps_ms += [o.wall * 1e3 for o in ops if o.label == "help"]
    _, p50, p75 = statistics.quantiles(walls_ms, n=4)  # every script has 2+ ops
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(start_up["import"]), "s"),
        "trials_per_s": (trials / sum(o.wall for o in ops), "1/s"),
        "invocation_ms.p50": (p50, "ms"),
        "invocation_ms.p75": (p75, "ms"),
        "cold_start_ms": (statistics.median(helps_ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], start_up: dict) -> dict:
    per_pass = []
    for u, t in zip(untraced, traced):
        m = layer_metrics(t.spans)
        m["cli.bytes_out"] = sum(len(o.out) for o in t.ops)
        m["trace.overhead_s"] = t.wall - u.wall
        per_pass.append(m)
    # median over traced passes; counts repeat exactly
    m = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    m["cli.import_s"] = (statistics.median(start_up["import"])
                         - statistics.median(start_up["bare"]))
    units = {**LAYER_METRICS, "cli.bytes_out": "bytes", "trace.overhead_s": "s",
             "cli.import_s": "s"}
    return {k: (m[k], units[k]) for k in sorted(m)}


def manifest(seed: int) -> dict:
    def version(dist):  # read from metadata, so numpy is not imported here
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if res.returncode == 0:
            commit = res.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "matchlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "platform": platform.platform(), "seed": seed}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, refs: dict, env: dict):
    """Warm up, then run passes and start-up rounds; returns the samples."""
    script = WORKLOADS[args.workload]
    in_process = args.workload in IN_PROCESS
    start_up: dict[str, list[float]] = {}
    untraced: list[Pass] = []
    traced: list[Pass] = []
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as scratch:
        if in_process:
            for op in WARMUP:
                code, _, _ = call_in_process(op.args(args.seed))
                if code != 0:
                    raise RuntimeError(f"warm-up {op.label} exited {code}")
        elapsed = 0.0  # seconds spent in passes
        while True:
            done = len(start_up.get("help", ()))
            if done < START_ROUNDS and elapsed >= done * args.seconds / START_ROUNDS:
                time_start_up(env, start_up)
            t0 = time.perf_counter()
            untraced.append(run_pass(script, args.seed, refs, scratch, env,
                                     in_process, traced=False))
            if args.trace:
                traced.append(run_pass(script, args.seed, refs, scratch, env,
                                       in_process, traced=True))
            elapsed += time.perf_counter() - t0
            if elapsed >= args.seconds:
                break
        while len(start_up["help"]) < START_ROUNDS:
            time_start_up(env, start_up)
    return start_up, untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "matchlab" / "cli.py").is_file():
        print(f"bench: no matchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)[args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    script = WORKLOADS[args.workload]
    start_up, untraced, traced = measure(args, refs, child_env())

    ops = [o for p in untraced + traced for o in p.ops]
    failed = sum(bool(o.problems) for o in ops)
    failures = [f"{o.label}: {msg}" for o in ops for msg in o.problems]
    e2e = end_to_end(script, untraced, start_up)
    e2e["failed_frac"] = (failed / len(ops), "1")
    layers = per_layer(untraced, traced, start_up) if args.trace else {}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)}  operations {len(ops)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value:14.4f} {unit}")
    if args.trace:
        u, t = (sum(p.wall for p in ps) for ps in (untraced, traced))
        print(f"  tracing overhead: traced {t:.3f} s - untraced {u:.3f} s over "
              f"{len(traced)} pass(es) = {(t - u) / u:+.1%}")
        for name, (value, unit) in layers.items():
            print(f"  {name:<28} {value:14.4f} {unit}")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "manifest": manifest(args.seed),
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
              "op_wall_s": {op.label: [o.wall for p in untraced for o in p.ops
                                       if o.label == op.label] for op in script},
              "start_up_s": start_up, "failures": failures}
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["spans_by_name"] = span_table([s for p in traced for s in p.spans])
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([[s.to_list() for s in p.spans] for p in traced], fh)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": values[m["name"]][1]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
