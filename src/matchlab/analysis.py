"""Exact and Monte Carlo analysis of the hub-pendant matching chain.

The offline-side pass over a hub-pendant graph with n online vertices and
n hubs reduces to a two-counter chain: with x online vertices still
unmatched and y pendants already used, the next effective arrival uses a
pendant with probability x / (2x + y) and a hub otherwise, and x always
drops by one.  This module computes the pendant count distribution both
exactly (dynamic program over y) and by simulation, simulates the real
graph process for cross-checking, and locates the root of the continuous
approximation whose value pins the pendant fraction near 1/e.

It also reckons the exact finite-size expectations of the five
stochastic reproductions in `matchlab.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from matchlab.rng import derive_seed, make_rng


@dataclass
class TrialStats:
    """Summary of one batch of trial values."""

    mean: float
    variance: float
    count: int

    @property
    def ci(self) -> tuple[float, float]:
        """Normal 95% interval, mean -/+ 1.96 standard errors."""
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.count)


def trial_stats(values) -> TrialStats:
    """Mean, sample variance and normal 95% CI of the trial values."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 1:
        raise ValueError("need at least one value")
    mean = math.fsum(arr) / n
    if n > 1:
        variance = math.fsum((x - mean) ** 2 for x in arr) / (n - 1)
    else:
        variance = 0.0
    return TrialStats(mean=mean, variance=variance, count=n)


def expected_y_exact(n: int) -> float:
    """Expected pendant count after the full n-step chain from (n, 0).

    Vectorized dynamic program over the y-distribution, with compensated
    summation of the final expectation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dist = _count_chain(n, PENDANT_STEP["minranking"])
    return math.fsum(y * p for y, p in enumerate(dist))


# Probability that the next selected online vertex of a hub-pendant
# sub-block takes its pendant, given x unprocessed online vertices and y
# pendants taken so far.  Under min-degree ranking this is the chain
# above.  Under min-degree greedy the x + y hubs still free and the
# vertex's own pendant are equally likely.
PENDANT_STEP = {
    "minranking": lambda x, y: x / (2.0 * x + y),
    "mingreedy": lambda x, y: 1.0 / (x + y + 1.0),
}


def _count_chain(n: int, step) -> np.ndarray:
    """Distribution of y after n steps from y = 0.

    At step t (x = n - t steps left, counting this one) y grows by one
    with probability step(x, y) and stays put otherwise.
    """
    dist = np.zeros(n + 1, dtype=np.float64)
    dist[0] = 1.0
    for t in range(n):
        x = float(n - t)
        y = np.arange(t + 1, dtype=np.float64)
        p_inc = step(x, y)
        inc = dist[:t + 1] * p_inc
        dist[:t + 1] *= 1.0 - p_inc
        dist[1:t + 2] += inc
    return dist


def simulate_chain(n: int, trials: int, seed: int) -> TrialStats:
    """Monte Carlo pendant counts of the chain, vectorized over trials."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    rng = make_rng(seed)
    y = np.zeros(trials, dtype=np.float64)
    for t in range(n):
        x = float(n - t)
        y += rng.random(trials) < PENDANT_STEP["minranking"](x, y)
    return trial_stats(y)


def simulate_rhs_empirical(n: int, trials: int, seed: int) -> TrialStats:
    """Pendant counts of the real offline-side pass on the (n, n) graph.

    Runs the actual graph algorithm over uniformly random offline orders;
    agreement with simulate_chain and the exact DP validates the chain
    reduction end to end.
    """
    from matchlab.families import gen_h_graph
    from matchlab.priority import run_rhs_greedy

    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    g, desc = gen_h_graph(n, n)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        order = make_rng(derive_seed(seed, t)).permutation(2 * n)
        counts[t] = run_rhs_greedy(g, desc, order)[1]
    return trial_stats(counts)


def ode_root(n: int, tol: float = 1e-9) -> float:
    """Root of ln(1+z) - 1/(1+z) + 1 - ln(n) on (0, n), by bisection.

    The function is strictly increasing for z > 0, negative at 0 and
    positive at n, so the root exists and is unique; it sits just below
    n / e, which is the content of the 1/e pendant-fraction limit.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def f(z: float) -> float:
        return math.log1p(z) - 1.0 / (1.0 + z) + 1.0 - math.log(n)

    lo, hi = 0.0, float(n)
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FiniteSizeExpectation:
    """Exact expected algorithm size and optimum of one pinned experiment.

    `error` bounds how far each of the true expectations E[alg] and
    E[opt] can sit from `alg` and `opt` when the reduction behind them
    can fail; it is zero when the reduction always holds.
    """

    alg: float
    opt: float
    error: float

    @property
    def ratio(self) -> float:
        return self.alg / self.opt


def _sum_below(dist: np.ndarray, copies: int, limit: int) -> float:
    """P(sum of `copies` IID draws from dist < limit), by squaring."""
    total = np.zeros(limit, dtype=np.float64)
    total[0] = 1.0
    base = dist[:limit]
    while copies:
        if copies & 1:
            total = np.convolve(total, base)[:limit]
        copies >>= 1
        if copies:
            base = np.convolve(base, base)[:limit]
    return math.fsum(total)


def expected_bp_sizes(b: int, algorithm: str) -> FiniteSizeExpectation:
    """Exact E[size] of min-degree greedy or ranking on the two-sided family.

    The S2 online vertices have the smallest degree, b + 1, so they go
    first, and each S2 sub-block, with its b offline vertices as hubs
    and its S1 partners as pendants, is a hub-pendant graph on its own.
    Let P_i count the pendants sub-block i takes (PENDANT_STEP gives the
    chain for each algorithm).  While sum P_i <= b^2 - 2b the rest of the
    run is forced: the b^2 - sum P_i S1 vertices whose partner is gone
    use up S3's 2b offline vertices, the sum P_i others take their
    partners, and S3's 2b online vertices take free S1 vertices, so the
    size is b^2 + 4b + sum P_i and E[size] = b^2 + 4b + b E[P_1].

    That holds exactly when sum P_i <= b^2 - 2b.  `error` is the exact
    probability of the opposite event times the optimum 2b^2 + 2b,
    which bounds the error because both sizes lie in [0, optimum]; the
    ratio is off by at most that probability.  It is below 1e-4 from
    b = 6 and below 1e-20 from b = 10.  Costs O(b^2) time.
    """
    if b < 2:
        raise ValueError("b must be at least 2")
    if algorithm not in PENDANT_STEP:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"choose from {sorted(PENDANT_STEP)}")
    dist = _count_chain(b, PENDANT_STEP[algorithm])
    opt = 2 * b * b + 2 * b
    mean_p = math.fsum(y * p for y, p in enumerate(dist))
    # sum P_i > b^2 - 2b exactly when the hub counts b - P_i sum below 2b
    fail = _sum_below(dist[::-1], b, 2 * b)
    return FiniteSizeExpectation(alg=b * b + 4 * b + b * mean_p,
                                 opt=float(opt), error=min(fail, 1.0) * opt)


def expected_kvv_sizes(n: int) -> FiniteSizeExpectation:
    """Exact E[size] of ranking on the triangular family, O(n^2) time.

    Online vertex i sees v_i..v_{n-1}, which holds every later
    neighbourhood, so under a uniform priority its free part is a uniform
    subset of its size f.  While f > 0 the arrival is matched, and then
    v_i leaves, free with probability (f - 1)/(n - i).  With y counting
    the vertices that left free and x = n - i, f = x - y: y grows with
    probability max(x - y - 1, 0)/x, and size = n - y at the end.  The
    ratio tends to 1 - 1/e (Karp, Vazirani and Vazirani 1990).
    """
    if n < 1:
        raise ValueError("n must be positive")
    dist = _count_chain(n, lambda x, y: np.maximum(x - y - 1.0, 0.0) / x)
    unmatched = math.fsum(y * p for y, p in enumerate(dist))
    return FiniteSizeExpectation(alg=n - unmatched, opt=float(n), error=0.0)


def _fill_from_top(L: int, N: int, arrivals: int) -> float:
    """E[matched] of one L x N staircase copy under max-index ties.

    Online block j sees offline blocks j..N, so the copy fills from the
    top: with k matched, an arrival to it is matched with probability
    ceil((LN - k)/L)/N.  Each arrival lands in it w.p. LN/arrivals.
    """
    ln = L * N
    dist = _count_chain(arrivals, lambda x, k: ln / arrivals * np.maximum(
        np.ceil((ln - k) / L), 0.0) / N)
    return math.fsum(k * p for k, p in enumerate(dist))


def expected_staircase_sizes(L: int, N: int) -> FiniteSizeExpectation:
    """Exact E[size] of max-index greedy on goelmehta(L, N), O((LN)^2).

    opt is the type-graph optimum LN, as the staircase bound is stated;
    the fraction tends to 1 - 1/e (Goel and Mehta 2008).
    """
    if L < 1 or N < 1:
        raise ValueError("L and N must be positive")
    return FiniteSizeExpectation(alg=_fill_from_top(L, N, L * N),
                                 opt=float(L * N), error=0.0)


def _binom_pmf(trials, p: float, k, log_fact: np.ndarray) -> np.ndarray:
    """Binomial(trials, p) pmf at k, elementwise; zero outside 0..trials."""
    trials = np.asarray(trials)
    k = np.asarray(k)
    inside = (k >= 0) & (k <= trials)
    kk = np.where(inside, k, 0)
    rest = np.where(inside, trials - k, 0)
    log_pmf = (log_fact[kk + rest] - log_fact[kk] - log_fact[rest]
               + kk * math.log(p) + rest * math.log1p(-p))
    return np.where(inside, np.exp(log_pmf), 0.0)


def expected_padded_sizes(L: int, N: int, K: int) -> FiniteSizeExpectation:
    """Exact E[alg] and E[opt] of the padded hard family under IID arrivals.

    The family is gen_min_degree_hard(L, N, K) with n = LNK + NL types,
    sampled n times; alg is the static-degree rule with max-index ties
    and opt is the maximum matching of the sampled instance.  Gadget
    offline vertices have static degree L and copy offline vertices
    (N+1)L, so while a gadget has room its arrivals stay inside it and
    every gadget arrival is matched: NL of them in expectation.

    alg: a copy's offline vertices all tie, so max-index ties fill each
    copy from the top (`_fill_from_top`), and each of the n arrivals is
    a copy arrival with probability LN/n.

    opt: copy online block j sees copy offline blocks j..N, so by Hall's
    theorem a copy leaves D = max over m >= 0 of (arrivals in its last m
    blocks - mL) arrivals unmatched and opt = n - sum D over the copies.
    E[D] sums P(D >= d) over d, each from a dynamic program over the
    multinomial block counts that removes the paths crossing mL + d.

    Both hold exactly when no gadget gets more than L + gadget_slack(L)
    arrivals.  Removing each arrival beyond that moves either size by at
    most one (for alg: the rule is greedy under one fixed offline
    priority), so `error` is the expected number of such arrivals, plus
    a bound on the truncation of the opt program (below 1e-12).  Costs
    O(N U^3) time with U about LN + 9 sqrt(LN).
    """
    from matchlab.families import gadget_slack

    if L < 1 or N < 1 or K < 1:
        raise ValueError("L, N, K must be positive")
    ln = L * N
    n = ln * K + N * L
    cap = L + gadget_slack(L)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    counts = np.arange(n + 1)

    p_copy = _binom_pmf(n, ln / n, counts, log_fact)

    # opt: state[u, d-1] = P(no crossing of mL + d yet, u arrivals so far),
    # truncated at the U beyond which the copy's arrival count has a tail
    # below 1e-16; the truncation moves E[D] by at most n P(count > U)
    above = np.cumsum(p_copy[::-1])[::-1]  # above[u] = P(count >= u)
    small = np.flatnonzero(above < 1e-16)
    U = int(small[0]) if small.size else n
    truncation = n * float(above[U + 1]) if U < n else 0.0
    u = np.arange(U + 1)
    d = np.arange(1, U + 1)
    state = np.zeros((U + 1, U))
    state[0] = 1.0
    p_block = L / n
    for m in range(1, N + 1):
        q = p_block / (1.0 - (m - 1) * p_block)
        step = _binom_pmf(n - u[None, :], q, u[:, None] - u[None, :], log_fact)
        state = step @ state
        state[u[:, None] - m * L >= d[None, :]] = 0.0
    mean_d = math.fsum(1.0 - state.sum(axis=0))

    p_gadget = _binom_pmf(n, L / n, counts, log_fact)
    excess = N * math.fsum(np.maximum(counts - cap, 0) * p_gadget)
    return FiniteSizeExpectation(alg=K * _fill_from_top(L, N, n) + N * L,
                                 opt=n - K * mean_d,
                                 error=excess + K * truncation)
