"""Command-line front end: generate, run, reproduce, oracle.

Output is machine-readable and replayable: every row carries the family,
full parameters, algorithm, and seed.  CSV uses the fixed column set
family,params,algorithm,seed,trial,alg_size,opt_size,ratio; JSON output
is versioned with a "schema" field and additionally carries confidence
intervals in the summary.  Exit codes: 0 success, 1 usage error,
2 reproduction outside its pinned tolerance band.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from matchlab.experiments import (DEFAULT_SEED, ALGORITHMS, REPRODUCTIONS,
                                  ExperimentSpec, reproduce, run_experiment,
                                  summarize_rows)
from matchlab.families import FAMILIES, TYPE_FAMILIES, build_family, params_label
from matchlab.graphs import graph_from_dict, graph_to_dict, maximum_matching
from matchlab.online import TIE_BREAKS

CSV_HEADER = "family,params,algorithm,seed,trial,alg_size,opt_size,ratio"

SEED_ENV_VAR = "MATCHLAB_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"expected NAME=VALUE, got {item!r}")
        if name in params:
            raise ValueError(f"parameter {name!r} given more than once")
        try:
            params[name] = int(value)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer, "
                             f"got {value!r}") from None
    return params


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _num(x: float) -> str:
    """Shortest round-trip rendering; integers stay integral."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def cmd_generate(args) -> int:
    params = _parse_params(args.params)
    g, desc = build_family(args.family, params)
    doc = {"schema": 1, **graph_to_dict(g), "descriptor": desc.to_dict()}
    if args.family in TYPE_FAMILIES:
        doc["families"] = {"family": args.family, "params": params}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = ExperimentSpec(family=args.family,
                          family_params=_parse_params(args.params),
                          algorithm=args.algorithm, trials=args.trials,
                          seed=seed, tie_break=args.tie, passes=args.k)
    spec.validate()
    rows = run_experiment(spec, workers=args.workers)
    summary = summarize_rows(rows)
    head = {"family": spec.family,
            "params": params_label(spec.family, spec.family_params),
            "algorithm": spec.algorithm_label(), "seed": seed}
    if args.format == "csv":
        label = ",".join(str(v) for v in head.values())
        if args.per_trial:
            lines = [f"{label},{r.trial},{_num(r.alg_size)},"
                     f"{_num(r.opt_size)},{_num(r.ratio)}" for r in rows]
        else:
            lines = [f"{label},summary,{_num(summary['alg_mean'])},"
                     f"{_num(summary['opt_mean'])},{_num(summary['ratio'])}"]
        _emit("\n".join([CSV_HEADER, *lines]) + "\n", args.out)
        return 0
    doc = {"schema": 1, "spec": spec.to_dict(),
           "summary": {**head, "trial": "summary", **summary}}
    if args.per_trial:
        doc["rows"] = [{**head, "trial": r.trial, "alg_size": r.alg_size,
                        "opt_size": r.opt_size, "ratio": r.ratio}
                       for r in rows]
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_reproduce(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    result = reproduce(args.name, seed=seed, workers=args.workers)
    for line in result.lines:
        print(line)
    print(f"{'PASS' if result.passed else 'FAIL'}: {result.name}")
    return 0 if result.passed else 2


def cmd_oracle(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.file}: JSON nested too deeply") from None
    g = graph_from_dict(doc)
    print(maximum_matching(g).size)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="matchlab",
                     description="Bipartite matching experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="emit a family instance as JSON")
    p_gen.add_argument("family", choices=sorted(FAMILIES))
    p_gen.add_argument("params", nargs="*", metavar="NAME=VALUE",
                       help="family parameters, e.g. k=3")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run an algorithm over trials")
    p_run.add_argument("family", choices=sorted(FAMILIES))
    p_run.add_argument("params", nargs="*", metavar="NAME=VALUE")
    p_run.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p_run.add_argument("--tie", default=None, choices=list(TIE_BREAKS),
                       help="tie-breaking rule where the algorithm takes one")
    p_run.add_argument("--k", type=int, default=None,
                       help="pass count for category-advice")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel trial workers; output is identical "
                            "for any worker count")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--per-trial", action="store_true",
                       help="emit one row per trial instead of the summary")
    p_run.add_argument("--out", help="output path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce",
                           help="run a named pinned experiment and check "
                                "its tolerance band")
    p_rep.add_argument("name", choices=sorted(REPRODUCTIONS))
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.set_defaults(func=cmd_reproduce)

    p_orc = sub.add_parser("oracle",
                           help="print the maximum matching size of a "
                                "JSON graph file")
    p_orc.add_argument("file")
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"matchlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
