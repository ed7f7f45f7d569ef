"""Named experiments with frozen parameters, plus the trial runner.

Every headline measurement lives here with its family, algorithm, trial
count, seed and tolerance band pinned in one place, so the command-line
``reproduce`` verb and the acceptance tests score exactly the same runs.
Trial loops derive one seed per trial index, which keeps results
identical no matter how trials are partitioned across workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from matchlab.analysis import (expected_bp_sizes, expected_padded_sizes,
                               expected_y_exact, ode_root, simulate_chain,
                               simulate_rhs_empirical, trial_stats)
from matchlab.families import TYPE_FAMILIES, build_family, fibonacci
from matchlab.graphs import Permutation, maximum_matching
from matchlab.iid import (gadget_overflow_count, run_greedy_iid,
                          run_min_degree, sample_instance)
from matchlab.online import (TIE_BREAKS, run_category_advice, run_greedy,
                             run_ranking)
from matchlab.priority import run_min_greedy, run_min_ranking
from matchlab.rng import derive_seed, make_rng

DEFAULT_SEED = 101

# Most trials one experiment runs: 200 times the 5,000 of ranking-kvv, the
# largest pinned count.  A trial held for per-trial JSON output costs about
# 2.5 KB, so larger counts are refused before any trial runs.
MAX_TRIALS = 1_000_000

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
        build_family(self.family, self.family_params)  # raises on bad family
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
        if self.passes is not None and self.passes < 1:
            raise ValueError("pass count must be at least 1")

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


@dataclass
class TrialRow:
    """One trial's algorithm and optimum sizes; the CLI adds the labels."""

    trial: int
    alg_size: float
    opt_size: float

    @property
    def ratio(self) -> float:
        return self.alg_size / self.opt_size


def _run_block(spec_dict: dict, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Trials [lo, hi) of an experiment; returns (trial, alg, opt) triples.

    Top-level so process pools can ship it; rebuilding the family per
    block is cheap and keeps workers free of shared state.
    """
    spec = ExperimentSpec(**spec_dict)
    g, _ = build_family(spec.family, spec.family_params)
    alg, tie = spec.algorithm, spec.tie_break or "lowest-index"
    out: list[tuple[int, int, int]] = []
    if alg in IID_ALGORITHMS:
        run = run_min_degree if alg == "mindegree" else run_greedy_iid
        from matchlab.iid import materialize_instance
        for t in range(lo, hi):
            inst = sample_instance(g, derive_seed(spec.seed, 2 * t))
            m = run(g, inst, tie_break=tie, seed=derive_seed(spec.seed, 2 * t + 1))
            opt = maximum_matching(materialize_instance(g, inst)).size
            out.append((t, m.size, opt))
        return out
    opt = maximum_matching(g).size
    if alg == "category-advice":
        m, _ = run_category_advice(g, k=spec.passes or 1)
        return [(t, m.size, opt) for t in range(lo, hi)]
    for t in range(lo, hi):
        ts = derive_seed(spec.seed, t)
        if alg == "ranking":
            m = run_ranking(g, None, Permutation.random(g.n_offline, make_rng(ts)))
        elif alg == "greedy":
            m = run_greedy(g, tie_break=tie, seed=ts)
        elif alg == "mingreedy":
            m = run_min_greedy(g, ts)
        else:  # minranking
            m = run_min_ranking(g, ts)
        out.append((t, m.size, opt))
    return out


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[TrialRow]:
    """All trial rows of an experiment, in trial order.

    Results are a pure function of `spec`: per-trial seeds are derived
    from (seed, trial index), and worker outputs are merged by index, so
    any worker count produces the same rows.  Ranking trial t draws its
    sigma from derive_seed(seed, t); IID trial t samples its instance from
    derive_seed(seed, 2t) and seeds its rule with derive_seed(seed, 2t + 1).
    Workers are capped at the trial count and at os.cpu_count().
    """
    spec.validate()
    trials = 1 if spec.algorithm == "category-advice" else spec.trials
    d = spec.to_dict()
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers <= 1:
        triples = _run_block(d, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, d, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:])]
            triples = [row for f in futures for row in f.result()]
    return [TrialRow(*triple) for triple in sorted(triples)]


def summarize_rows(rows: list[TrialRow]) -> dict:
    """Aggregate trial rows: means, 95% CIs, and the ratio of means."""
    alg = trial_stats([r.alg_size for r in rows])
    opt = trial_stats([r.opt_size for r in rows])
    return {"trials": len(rows),
            "alg_mean": alg.mean, "alg_ci": list(alg.ci),
            "opt_mean": opt.mean, "opt_ci": list(opt.ci),
            "ratio": alg.mean / opt.mean}


# --------------------------------------------------------------------------
# Named reproductions.  Each returns a ReproduceResult whose `lines` are
# human-readable measurements and whose `passed` flag applies the pinned
# tolerance band.  The acceptance tests assert on these same objects.
# A stochastic mean passes when it lies within three standard errors of
# its exact expectation, reckoned in matchlab.analysis at the pinned size.

@dataclass
class ReproduceResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


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
                               workers: int = 1) -> ReproduceResult:
    """Exact pass counts on the recursive worst-case family, k = 1..8.

    k passes must land exactly on F_{2k}; one or two extra passes gain
    exactly one more edge; the optimum is the full side F_{2k+1}.
    """
    lines, values = [], {}
    passed = True
    for k in range(1, 9):
        g, desc = build_family("fibonacci", {"k": k})
        want = fibonacci(2 * k)
        opt = maximum_matching(g).size
        # pass i depends only on the passes before it, so one (k+2)-pass
        # run holds the k-, (k+1)- and (k+2)-pass sizes
        got, got_p1, got_p2 = run_category_advice(g, k=k + 2)[1][k - 1:]
        ok = (got == want and got_p1 == want + 1 and got_p2 == want + 1
              and opt == fibonacci(2 * k + 1) == desc.expected_opt)
        passed &= ok
        values[k] = {"passes": got, "plus1": got_p1, "plus2": got_p2, "opt": opt}
        lines.append(f"k={k}: {k} passes -> {got} (want {want}), "
                     f"+1/+2 passes -> {got_p1}/{got_p2} (want {want + 1}), "
                     f"opt {opt} (want {fibonacci(2 * k + 1)})"
                     f" [{'ok' if ok else 'MISMATCH'}]")
    return ReproduceResult("fibonacci-ratios", passed, lines, values)


def reproduce_ranking_kvv(seed: int = DEFAULT_SEED,
                          workers: int = 1) -> ReproduceResult:
    """Random-priority matching on the triangular graph, n=200, 5000 trials."""
    spec = ExperimentSpec("kvv", {"n": 200}, "ranking", trials=5000, seed=seed)
    rows = run_experiment(spec, workers)
    summary = summarize_rows(rows)
    mean_ratio = summary["ratio"]
    target = 1.0 - 1.0 / math.e
    ok, line = _band_line("mean ratio", mean_ratio, target - 0.02, target + 0.02)
    return ReproduceResult("ranking-kvv", ok,
                           [line, f"target 1-1/e = {target:.4f}"],
                           {"mean_ratio": mean_ratio, **summary})


# b at which the two-sided family's exact ratio stands in for its limit
BP_LIMIT_B = 2000


def _bp_reproduction(name: str, algorithm: str, limit: str, lo: float,
                     hi: float, seed: int, workers: int) -> ReproduceResult:
    b = 25
    spec = ExperimentSpec("bp", {"b": b}, algorithm, trials=500, seed=seed)
    rows = run_experiment(spec, workers)
    summary = summarize_rows(rows)
    alg = trial_stats([r.alg_size for r in rows])
    exact = expected_bp_sizes(b, algorithm)
    large = expected_bp_sizes(BP_LIMIT_B, algorithm)
    ok_mean, mean_line = _exact_line(f"size at b={b}", alg.mean, alg.stderr,
                                     exact.alg, exact.error)
    ok_band, band_line = _band_line(f"exact ratio at b={BP_LIMIT_B}",
                                    large.ratio, lo, hi)
    lines = [mean_line,
             f"ratio of means {summary['ratio']:.4f} vs exact {exact.ratio:.4f} "
             f"over {summary['trials']} trials (opt {summary['opt_mean']:.0f})",
             f"{band_line} (paper's limit {limit})"]
    return ReproduceResult(name, ok_mean and ok_band, lines,
                           {**summary, "alg_stderr": alg.stderr,
                            "exact_alg": exact.alg, "exact_ratio": exact.ratio,
                            "limit_ratio": large.ratio})


def reproduce_mingreedy_bp(seed: int = DEFAULT_SEED,
                           workers: int = 1) -> ReproduceResult:
    """Min-degree greedy on the two-sided hard instance, b=25, 500 trials.

    The mean size must match its exact expectation at b=25, and the exact
    ratio at b=2000 must lie in the band [0.50, 0.56] around the limit 1/2.
    """
    return _bp_reproduction("mingreedy-bp", "mingreedy", "1/2 = 0.5000",
                            0.50, 0.56, seed, workers)


def reproduce_minranking_bp(seed: int = DEFAULT_SEED,
                            workers: int = 1) -> ReproduceResult:
    """Min-degree + priority-list matching on the same instance.

    As for mingreedy-bp, with the band 1/2 + 1/(2e) +/- 0.03 around the
    limit 1/2 + 1/(2e).
    """
    center = 0.5 + 0.5 / math.e
    return _bp_reproduction("minranking-bp", "minranking",
                            f"1/2 + 1/(2e) = {center:.4f}",
                            center - 0.03, center + 0.03, seed, workers)


def reproduce_greedy_goelmehta(seed: int = DEFAULT_SEED,
                               workers: int = 1) -> ReproduceResult:
    """Adversarial-tie greedy on the staircase type graph, L=N=20.

    The yardstick is the type-graph optimum LN, not the per-instance
    optimum, matching how the staircase bound is stated.
    """
    L = N = 20
    spec = ExperimentSpec("goelmehta", {"L": L, "N": N}, "greedy-iid",
                          trials=300, seed=seed, tie_break="max-index")
    rows = run_experiment(spec, workers)
    mean_size = trial_stats([r.alg_size for r in rows]).mean
    frac = mean_size / (L * N)
    target = 1.0 - 1.0 / math.e
    ok, line = _band_line("mean size / LN", frac, target - 0.03, target + 0.03)
    return ReproduceResult("greedy-goelmehta", ok,
                           [line, f"mean size {mean_size:.1f} of LN = {L * N}"],
                           {"fraction": frac, "mean_size": mean_size})


def reproduce_mindegree_iid(seed: int = DEFAULT_SEED,
                            workers: int = 1) -> ReproduceResult:
    """Static-min-degree rule on the copies-plus-gadgets family.

    L=10, N=10, K=20, adversarial max-block ties, 200 trials.  The mean
    algorithm size and the mean sampled optimum must each match their
    exact expectations; their ratio is printed beside the paper's bound
    1 - 1/e.  Gadget overflow events must stay under 1% of trials.
    """
    params = {"L": 10, "N": 10, "K": 20}
    trials = 200
    spec = ExperimentSpec("mindegreehard", params, "mindegree",
                          trials=trials, seed=seed, tie_break="max-index")
    rows = run_experiment(spec, workers)
    summary = summarize_rows(rows)
    alg = trial_stats([r.alg_size for r in rows])
    opt = trial_stats([r.opt_size for r in rows])
    exact = expected_padded_sizes(**params)
    g, desc = build_family("mindegreehard", params)
    overflowing = sum(
        1 for t in range(trials)
        if gadget_overflow_count(desc, sample_instance(g, derive_seed(seed, 2 * t))) > 0)
    overflow_frac = overflowing / trials
    ok_alg, alg_line = _exact_line("alg size", alg.mean, alg.stderr,
                                   exact.alg, exact.error)
    ok_opt, opt_line = _exact_line("sampled optimum", opt.mean, opt.stderr,
                                   exact.opt, exact.error)
    ok_overflow = overflow_frac < 0.01
    lines = [alg_line, opt_line,
             f"ratio of means {summary['ratio']:.4f} vs exact {exact.ratio:.4f} "
             f"(paper's bound 1 - 1/e = {1.0 - 1.0 / math.e:.4f})",
             f"overflow trials: {overflowing}/{trials} "
             f"({'ok' if ok_overflow else 'TOO MANY'}, need < 1%)"]
    return ReproduceResult("mindegree-iid", ok_alg and ok_opt and ok_overflow,
                           lines,
                           {**summary, "overflow_fraction": overflow_frac,
                            "alg_stderr": alg.stderr, "opt_stderr": opt.stderr,
                            "exact_alg": exact.alg, "exact_opt": exact.opt,
                            "exact_ratio": exact.ratio})


def reproduce_markov_ne(seed: int = DEFAULT_SEED,
                        workers: int = 1) -> ReproduceResult:
    """Pendant-count chain against 1/e, plus sampler cross-checks.

    Anchors: the exact expectation at n=2000 lands within 0.01 of 1/e;
    both samplers at n=200 agree with the exact value within three
    standard errors; the root of the solved rate equation at n=1000 sits
    in [0.33, 0.37] after scaling.
    """
    lines, values = [], {}
    target = 1.0 / math.e
    v2000 = expected_y_exact(2000) / 2000.0
    ok1, line = _band_line("E[Y]/n at n=2000", v2000, target - 0.01, target + 0.01)
    lines.append(line + f" (1/e = {target:.5f})")

    exact200 = expected_y_exact(200)
    chain = simulate_chain(200, 10_000, derive_seed(seed, 0))
    rhs = simulate_rhs_empirical(200, 10_000, derive_seed(seed, 1))
    ok2, line = _exact_line("chain sampler n=200", chain.mean, chain.stderr,
                            exact200)
    lines.append(line)
    ok3, line = _exact_line("graph sampler n=200", rhs.mean, rhs.stderr,
                            exact200)
    lines.append(line)

    root = ode_root(1000) / 1000.0
    ok4, line = _band_line("rate-equation root / n at n=1000", root, 0.33, 0.37)
    lines.append(line)
    values.update({"y2000_over_n": v2000, "exact200": exact200,
                   "chain_mean": chain.mean, "rhs_mean": rhs.mean,
                   "root_over_n": root})
    return ReproduceResult("markov-ne", ok1 and ok2 and ok3 and ok4,
                           lines, values)


REPRODUCTIONS = {
    "fibonacci-ratios": reproduce_fibonacci_ratios,
    "ranking-kvv": reproduce_ranking_kvv,
    "mingreedy-bp": reproduce_mingreedy_bp,
    "minranking-bp": reproduce_minranking_bp,
    "mindegree-iid": reproduce_mindegree_iid,
    "greedy-goelmehta": reproduce_greedy_goelmehta,
    "markov-ne": reproduce_markov_ne,
}


def reproduce(name: str, seed: int = DEFAULT_SEED,
              workers: int = 1) -> ReproduceResult:
    """Run one named reproduction with its pinned parameters."""
    if name not in REPRODUCTIONS:
        raise ValueError(f"unknown reproduction {name!r}; "
                         f"choose from {sorted(REPRODUCTIONS)}")
    return REPRODUCTIONS[name](seed=seed, workers=workers)
