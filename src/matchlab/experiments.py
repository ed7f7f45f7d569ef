"""Named experiments with frozen parameters, plus the trial runner.

Every headline measurement lives here with its family, algorithm, trial
count, seed and tolerance band pinned in one place, so the command-line
``reproduce`` verb and the acceptance tests score exactly the same runs.
The five stochastic reproductions are rows of one table, each held to
the exact finite-size expectation that ``matchlab.analysis`` reckons.
Trial loops derive one seed per trial index, which keeps results
identical no matter how trials are partitioned across workers.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from matchlab.analysis import (FiniteSizeExpectation, TrialStats,
                               expected_bp_sizes, expected_kvv_sizes,
                               expected_padded_sizes, expected_staircase_sizes,
                               expected_y_exact, ode_root, simulate_chain,
                               simulate_rhs_empirical, trial_stats)
from matchlab.families import (TYPE_FAMILIES, build_family, fibonacci,
                               params_label, type_optimum_bounds)
from matchlab.graphs import matching_size, maximum_matching
from matchlab.iid import run_greedy_iid, run_min_degree, sample_instance
from matchlab.online import (TIE_BREAKS, run_category_advice, run_greedy,
                             run_ranking)
from matchlab.priority import run_min_greedy, run_min_ranking
from matchlab.rng import derive_seed, make_rng

DEFAULT_SEED = 101

# Most trials one experiment runs: 200 times the 5,000 of ranking-kvv, the
# largest pinned count.  A trial held for per-trial JSON output costs about
# 2.5 KB, so larger counts are refused before any trial runs.
MAX_TRIALS = 1_000_000

# Most category-advice passes: 100 times the 10 that fibonacci-ratios runs.
# Each pass is a full arrival pass, so larger counts are refused first.
MAX_PASSES = 1_000

ALGORITHMS = ("greedy", "ranking", "category-advice",
              "mingreedy", "minranking", "mindegree", "greedy-iid")

IID_ALGORITHMS = frozenset({"mindegree", "greedy-iid"})


@dataclass
class ExperimentSpec:
    """One runnable experiment: a family, an algorithm, and trial plan."""

    family: str
    family_params: dict
    algorithm: str
    trials: int = 1
    seed: int = DEFAULT_SEED
    tie_break: str | None = None
    passes: int | None = None  # category-advice pass count

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {list(ALGORITHMS)}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in 1..{MAX_TRIALS}")
        if self.algorithm in IID_ALGORITHMS and self.family not in TYPE_FAMILIES:
            raise ValueError(f"{self.algorithm} needs a type-graph family "
                             f"({sorted(TYPE_FAMILIES)})")
        if self.tie_break is not None:
            if self.algorithm not in IID_ALGORITHMS and self.algorithm != "greedy":
                raise ValueError(f"{self.algorithm} takes no tie-breaking rule")
            if self.tie_break not in TIE_BREAKS:
                raise ValueError(f"unknown tie_break {self.tie_break!r}; "
                                 f"choose from {sorted(TIE_BREAKS)}")
        if self.passes is not None and self.algorithm != "category-advice":
            raise ValueError("pass count applies to category-advice only")
        if self.passes is not None and not 1 <= self.passes <= MAX_PASSES:
            raise ValueError(f"pass count must lie in 1..{MAX_PASSES}")
        # last, as it may generate the family, which stays cached for _run_block
        build_family(self.family, self.family_params)

    def algorithm_label(self) -> str:
        if self.algorithm == "category-advice":
            return f"category-advice(k={self.passes or 1})"
        if self.tie_break is not None:
            return f"{self.algorithm}(tie={self.tie_break})"
        return self.algorithm

    def to_dict(self) -> dict:
        return {"family": self.family,
                "family_params": {k: int(v) for k, v in self.family_params.items()},
                "algorithm": self.algorithm, "trials": self.trials,
                "seed": self.seed, "tie_break": self.tie_break,
                "passes": self.passes}


def _run_block(spec: ExperimentSpec, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Trials [lo, hi) of an experiment; returns (trial, alg, opt) triples.

    Top-level so process pools can ship it.  The family comes from
    build_family's one-entry cache, which validate filled; pool workers
    started by fork inherit it, and any other worker builds it once.
    A family's optimum is its online side, as build_family verified the
    perfect matching it came with; a sampled IID instance's is its
    `type_optimum_bounds`, or Hopcroft-Karp's when the two differ.
    """
    g, desc = build_family(spec.family, spec.family_params)
    alg, tie = spec.algorithm, spec.tie_break or "lowest-index"
    out: list[tuple[int, int, int]] = []
    for t in range(lo, hi):
        ts, opt = derive_seed(spec.seed, t), g.n_online
        if alg in IID_ALGORITHMS:
            inst = sample_instance(g, derive_seed(spec.seed, 2 * t))
            run = run_min_degree if alg == "mindegree" else run_greedy_iid
            p = run(g, inst, tie_break=tie, seed=derive_seed(spec.seed, 2 * t + 1))
            opt, upper = type_optimum_bounds(desc, inst.draws)
            if opt != upper:  # an overflow; Hopcroft-Karp is faster in type order
                from matchlab.iid import materialize_instance
                sorted_inst = replace(inst, draws=np.sort(inst.draws))
                opt = matching_size(maximum_matching(materialize_instance(g, sorted_inst)))
        elif alg == "ranking":
            p = run_ranking(g, None, np.argsort(make_rng(ts).permutation(g.n_offline)))
        elif alg == "greedy":
            p = run_greedy(g, tie_break=tie, seed=ts)
        elif alg == "mingreedy":
            p = run_min_greedy(g, ts)
        elif alg == "category-advice":
            p = run_category_advice(g, k=spec.passes or 1)[0]
        else:  # minranking
            p = run_min_ranking(g, ts)
        out.append((t, matching_size(p), opt))
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[tuple[int, int, int]]:
    """All (trial, alg size, opt size) rows of an experiment, in trial order.

    Results are a pure function of `spec`: per-trial seeds are derived
    from (seed, trial index), and worker outputs are merged by index, so
    any worker count produces the same rows.  Ranking trial t draws its
    ranks from derive_seed(seed, t); IID trial t samples its instance from
    derive_seed(seed, 2t) and seeds its rule with derive_seed(seed, 2t + 1).
    Workers, at least 1, are capped at the trial count and os.cpu_count().
    """
    spec.validate()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    trials = 1 if spec.algorithm == "category-advice" else spec.trials
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers == 1:
        triples = _run_block(spec, 0, trials)
    else:
        # imported only when a pool starts: it is a tenth of `import matchlab.cli`
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, spec, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            triples = [row for f in futures for row in f.result()]
    return sorted(triples)


def summarize_rows(rows: list[tuple[int, int, int]]) -> dict:
    """Aggregate trial rows: means, 95% CIs, and the ratio of means."""
    return _summary(trial_stats([a for _, a, _ in rows]),
                    trial_stats([o for _, _, o in rows]))


def _summary(alg: TrialStats, opt: TrialStats) -> dict:
    """`summarize_rows`'s dict from the statistics of both sizes."""
    return {"trials": alg.count,
            "alg_mean": alg.mean, "alg_ci": list(alg.ci),
            "opt_mean": opt.mean, "opt_ci": list(opt.ci),
            "ratio": alg.mean / opt.mean}


# --------------------------------------------------------------------------
# Named reproductions.  Each returns (checks, values): a check is the
# (ok, human-readable line) pair of _band_line or _exact_line, and
# reproduce() alone builds the ReproduceResult, passed when all are ok,
# that the CLI and the acceptance tests read.  The five stochastic
# reproductions are the rows of STOCHASTIC, which one helper runs: a mean
# passes when it lies within three standard errors of its exact
# expectation, reckoned in matchlab.analysis at the pinned size, and the
# pinned band is applied to the exact ratio at a large size.

Checks = list[tuple[bool, str]]


@dataclass
class ReproduceResult:
    name: str
    passed: bool
    lines: list[str]
    values: dict


def _band_line(label: str, value: float, lo: float, hi: float) -> tuple[bool, str]:
    ok = lo - 1e-12 <= value <= hi + 1e-12
    word = "within" if ok else "OUTSIDE"
    return ok, f"{label}: {value:.4f} {word} [{lo:.4f}, {hi:.4f}]"


def _exact_line(label: str, mean: float, stderr: float, exact: float,
                error: float = 0.0) -> tuple[bool, str]:
    """Three-standard-error check of a sample mean against its exact value.

    `error` bounds how far the reckoned value may sit from the true
    expectation and widens the allowance by that much.
    """
    ok = abs(mean - exact) <= 3.0 * stderr + error
    return ok, (f"{label}: mean {mean:.3f} vs exact {exact:.3f} "
                f"({'ok' if ok else 'OFF'}, 3se = {3 * stderr:.3f})")


def reproduce_fibonacci_ratios(seed: int = DEFAULT_SEED,
                               workers: int = 1) -> tuple[Checks, dict]:
    """Exact pass counts on the recursive worst-case family, k = 1..8.

    k passes must land exactly on F_{2k}; one or two extra passes gain
    exactly one more edge; the optimum is the full side F_{2k+1}.
    """
    checks, values = [], {}
    for k in range(1, 9):
        g, _ = build_family("fibonacci", {"k": k})
        want = fibonacci(2 * k)
        opt = g.n_online
        # pass i depends only on the passes before it, so one (k+2)-pass
        # run holds the k-, (k+1)- and (k+2)-pass sizes
        got, got_p1, got_p2 = run_category_advice(g, k=k + 2)[1][k - 1:]
        ok = (got == want and got_p1 == want + 1 and got_p2 == want + 1
              and opt == fibonacci(2 * k + 1))
        values[k] = {"passes": got, "plus1": got_p1, "plus2": got_p2, "opt": opt}
        checks.append((ok, f"k={k}: {k} passes -> {got} (want {want}), "
                           f"+1/+2 passes -> {got_p1}/{got_p2} (want {want + 1}), "
                           f"opt {opt} (want {fibonacci(2 * k + 1)})"
                           f" [{'ok' if ok else 'MISMATCH'}]"))
    return checks, values


@dataclass(frozen=True)
class StochasticReproduction:
    """A pinned spec held to its exact finite-size expectation.

    At the spec's parameters, `reckon(**params)` gives the exact sizes:
    the mean size, and with `sampled_opt` the mean sampled optimum (then
    the ratio's yardstick), must lie within 3 se of them plus `error`.
    The exact ratio at `large` must lie in `band`; with no `large`, the
    paper's bound is printed instead.  `extra` adds a check and values.
    """

    spec: ExperimentSpec
    reckon: Callable[..., FiniteSizeExpectation]
    large: dict | None
    band: tuple[float, float] | None
    limit: str
    sampled_opt: bool
    extra: Callable[[ExperimentSpec], tuple[tuple[bool, str], dict]] | None


def _gadget_overflow(spec: ExperimentSpec) -> tuple[tuple[bool, str], dict]:
    """Trials whose sampled instance overflows a gadget: under 1% pass."""
    g, desc = build_family(spec.family, spec.family_params)
    bounds = (type_optimum_bounds(desc, sample_instance(g, derive_seed(spec.seed, 2 * t)).draws)
              for t in range(spec.trials))
    overflowing = sum(lower < upper for lower, upper in bounds)
    frac = overflowing / spec.trials
    ok = frac < 0.01
    line = (f"overflow trials: {overflowing}/{spec.trials} "
            f"({'ok' if ok else 'TOO MANY'}, need < 1%)")
    return (ok, line), {"overflow_fraction": frac}


_E, _HALF_E = 1.0 - 1.0 / math.e, 0.5 + 0.5 / math.e
STOCHASTIC = {
    "ranking-kvv": StochasticReproduction(
        ExperimentSpec("kvv", {"n": 200}, "ranking", trials=5000), expected_kvv_sizes,
        {"n": 2000}, (_E - 0.02, _E + 0.02), f"1 - 1/e = {_E:.4f}", False, None),
    "mingreedy-bp": StochasticReproduction(
        ExperimentSpec("bp", {"b": 25}, "mingreedy", trials=500),
        partial(expected_bp_sizes, algorithm="mingreedy"), {"b": 2000},
        (0.50, 0.56), "1/2 = 0.5000", False, None),
    "minranking-bp": StochasticReproduction(
        ExperimentSpec("bp", {"b": 25}, "minranking", trials=500),
        partial(expected_bp_sizes, algorithm="minranking"), {"b": 2000},
        (_HALF_E - 0.03, _HALF_E + 0.03), f"1/2 + 1/(2e) = {_HALF_E:.4f}", False, None),
    "mindegree-iid": StochasticReproduction(
        ExperimentSpec("mindegreehard", {"L": 10, "N": 10, "K": 20}, "mindegree",
                       trials=200, tie_break="max-index"),
        expected_padded_sizes, None, None, f"1 - 1/e = {_E:.4f}", True,
        _gadget_overflow),
    "greedy-goelmehta": StochasticReproduction(
        ExperimentSpec("goelmehta", {"L": 20, "N": 20}, "greedy-iid", trials=300,
                       tie_break="max-index"),
        expected_staircase_sizes, {"L": 100, "N": 100}, (_E - 0.03, _E + 0.03),
        f"1 - 1/e = {_E:.4f}", False, None),
}


def _reproduce_stochastic(name: str, seed: int, workers: int) -> tuple[Checks, dict]:
    """Run one STOCHASTIC row at `seed` and check it."""
    row = STOCHASTIC[name]
    spec = replace(row.spec, seed=seed)
    rows = run_experiment(spec, workers)
    alg = trial_stats([a for _, a, _ in rows])
    opt = trial_stats([o for _, _, o in rows])
    exact = row.reckon(**spec.family_params)
    yardstick = opt.mean if row.sampled_opt else exact.opt
    ratio = alg.mean / yardstick
    values = {**_summary(alg, opt), "ratio": ratio, "alg_stderr": alg.stderr,
              "opt_stderr": opt.stderr, "exact_alg": exact.alg,
              "exact_opt": exact.opt, "exact_ratio": exact.ratio}
    at = partial(params_label, spec.family)
    label = "alg size" if row.sampled_opt else f"size at {at(spec.family_params)}"
    checks = [_exact_line(label, alg.mean, alg.stderr, exact.alg, exact.error)]
    if row.sampled_opt:
        checks.append(_exact_line("sampled optimum", opt.mean, opt.stderr,
                                  exact.opt, exact.error))
    head = f"ratio of means {ratio:.4f} vs exact {exact.ratio:.4f}"
    if row.large is None:
        checks.append((True, f"{head} (paper's bound {row.limit})"))
    else:
        large = row.reckon(**row.large)
        values["limit_ratio"] = large.ratio
        ok, line = _band_line(f"exact ratio at {at(row.large)}", large.ratio, *row.band)
        checks += [(True, f"{head} over {len(rows)} trials (opt {yardstick:.0f})"),
                   (ok, f"{line} (paper's limit {row.limit})")]
    if row.extra is not None:
        check, more = row.extra(spec)
        checks.append(check)
        values.update(more)
    return checks, values


def reproduce_markov_ne(seed: int = DEFAULT_SEED,
                        workers: int = 1) -> tuple[Checks, dict]:
    """Pendant-count chain against 1/e, plus sampler cross-checks.

    Anchors: the exact expectation at n=2000 lands within 0.01 of 1/e;
    both samplers at n=200 agree with the exact value within three
    standard errors; the root of the solved rate equation at n=1000 sits
    in [0.33, 0.37] after scaling.
    """
    target = 1.0 / math.e
    v2000 = expected_y_exact(2000) / 2000.0
    ok, line = _band_line("E[Y]/n at n=2000", v2000, target - 0.01, target + 0.01)
    exact200 = expected_y_exact(200)
    chain = simulate_chain(200, 10_000, derive_seed(seed, 0))
    rhs = simulate_rhs_empirical(200, 10_000, derive_seed(seed, 1))
    root = ode_root(1000) / 1000.0
    checks = [(ok, f"{line} (1/e = {target:.5f})"),
              _exact_line("chain sampler n=200", chain.mean, chain.stderr, exact200),
              _exact_line("graph sampler n=200", rhs.mean, rhs.stderr, exact200),
              _band_line("rate-equation root / n at n=1000", root, 0.33, 0.37)]
    return checks, {"y2000_over_n": v2000, "exact200": exact200,
                    "chain_mean": chain.mean, "rhs_mean": rhs.mean,
                    "root_over_n": root}


REPRODUCTIONS = {
    "fibonacci-ratios": reproduce_fibonacci_ratios,
    **{name: partial(_reproduce_stochastic, name) for name in STOCHASTIC},
    "markov-ne": reproduce_markov_ne,
}


def reproduce(name: str, seed: int = DEFAULT_SEED,
              workers: int = 1) -> ReproduceResult:
    """Run one named reproduction with its pinned parameters."""
    if name not in REPRODUCTIONS:
        raise ValueError(f"unknown reproduction {name!r}; "
                         f"choose from {sorted(REPRODUCTIONS)}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    checks, values = REPRODUCTIONS[name](seed=seed, workers=workers)
    return ReproduceResult(name, all(ok for ok, _ in checks),
                           [line for _, line in checks], values)
