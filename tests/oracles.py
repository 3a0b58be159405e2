"""Independent reference computations for the test suite.

Everything here is written against the plainest possible formulation of the
problem (high-precision arithmetic, literal enumeration, pure-Python
recursions, no shared code with the package) so that agreement between the
package and these functions is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

# ---------------------------------------------------------------------------
# High-precision Poisson and logistic references.


def mp_poisson_pmf(k: int, lam) -> mp.mpf:
    with mp.workdps(50):
        lam = mp.mpf(lam)
        if lam == 0:
            return mp.mpf(1) if k == 0 else mp.mpf(0)
        return mp.e ** (-lam) * lam**k / mp.factorial(k)


def mp_poisson_tail(k: int, lam) -> mp.mpf:
    """P(Pois(lam) >= k) via the regularized incomplete gamma identity."""
    with mp.workdps(50):
        lam = mp.mpf(lam)
        if k <= 0:
            return mp.mpf(1)
        if lam == 0:
            return mp.mpf(0)
        return mp.gammainc(k, 0, lam) / mp.gamma(k)


def mp_logistic_probability(price, scale_s, bias_b, mass_m) -> mp.mpf:
    """exp(c/s - b) / (exp(c/s - b) + M) at 50 digits."""
    with mp.workdps(50):
        u = mp.e ** (mp.mpf(price) / mp.mpf(scale_s) - mp.mpf(bias_b))
        return u / (u + mp.mpf(mass_m))


def numpy_aggregates(cost, remaining, completion, workers=None) -> dict:
    """The simulation report's aggregates from np.mean and np.std(ddof=1)
    on a float64 copy of each column (the completion column without its
    NaNs): the reference the in-place reductions must match bit for bit."""

    def mean_se(values):
        values = np.asarray(values).astype(np.float64)
        se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        return float(np.mean(values)), se

    done = completion[~np.isnan(completion)]
    out = {}
    out["mean_cost"], out["se_cost"] = mean_se(cost)
    out["mean_remaining"], out["se_remaining"] = mean_se(remaining)
    out["completion_rate"] = len(done) / len(cost)
    out["mean_completion_seconds"], out["se_completion_seconds"] = (
        mean_se(done) if len(done) else (None, None))
    out["mean_workers"], out["se_workers"] = (
        (None, None) if workers is None else mean_se(workers))
    return out


def full_width_poisson_tables(mus, n: int, floor: float = 1e-18):
    """Poisson tables as one full-width array: every row evaluated out to
    past n and past the support end of the largest mean, then cut to n pmf
    and n + 1 tail columns.  The block-wise package version must match it
    bit for bit."""
    mus = np.asarray(mus, dtype=np.float64).reshape(-1)
    big_l = -math.log(floor)
    lam = float(mus.max(initial=0.0))
    end = max(n + 1, math.ceil(lam + math.sqrt(2.0 * lam * big_l) + big_l) + 1)
    live = mus > 0.0
    pmf = np.arange(end) * np.log(np.where(live, mus, 1.0))[:, None]
    pmf -= mus[:, None]
    pmf[:, 1:] -= np.cumsum(np.log(np.arange(1, end)))
    np.exp(pmf, out=pmf)
    pmf[~live, 1:] = 0.0
    tails = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    tails[:, 0] = 1.0
    return pmf[:, :n], tails[:, : n + 1]


# ---------------------------------------------------------------------------
# Deadline problem: plain-Python backward induction (full support, no numpy)
# and, for tiny instances, literal enumeration of every deterministic policy.


def _pois_pmf(s: int, mu: float) -> float:
    if mu == 0.0:
        return 1.0 if s == 0 else 0.0
    return math.exp(-mu + s * math.log(mu) - math.lgamma(s + 1))


def brute_deadline_opt(
    n_tasks: int,
    rates: list[float],
    priced_probs: list[tuple[int, float]],
    penalty: float,
) -> list[list[float]]:
    """Full-support cost-to-go table computed with scalar arithmetic.

    Transition out of (n, t) at price c: s = 0..n-1 completions carry the
    Poisson pmf at rates[t] * p(c), every arrival count >= n is lumped at n
    (the batch finishes, paying c for each of the n completions).
    """
    horizon = len(rates)
    opt = [[0.0] * (horizon + 1) for _ in range(n_tasks + 1)]
    for n in range(1, n_tasks + 1):
        opt[n][horizon] = n * penalty
    for t in range(horizon - 1, -1, -1):
        for n in range(1, n_tasks + 1):
            best = math.inf
            for c, p in priced_probs:
                mu = rates[t] * p
                terms = []
                acc = 0.0
                for s in range(n):
                    pr = _pois_pmf(s, mu)
                    acc += pr
                    terms.append(pr * (c * s + opt[n - s][t + 1]))
                tail = 1.0 - acc
                if tail > 0.0:
                    terms.append(tail * c * n)
                q = math.fsum(terms)
                if q < best:
                    best = q
            opt[n][t] = best
    return opt


def enumerate_policies_opt(
    n_tasks: int,
    rates: list[float],
    priced_probs: list[tuple[int, float]],
    penalty: float,
) -> float:
    """Minimum expected cost over EVERY deterministic state->price mapping.

    Exponential in the state count; only call with a handful of states."""
    horizon = len(rates)
    states = [(n, t) for t in range(horizon) for n in range(1, n_tasks + 1)]
    n_choices = len(priced_probs)
    assert n_choices ** len(states) <= 200_000, "instance too large to enumerate"

    best = math.inf
    for assignment in itertools.product(range(n_choices), repeat=len(states)):
        pol = dict(zip(states, assignment))
        memo: dict[tuple[int, int], float] = {}

        def value(n: int, t: int) -> float:
            if n == 0:
                return 0.0
            if t == horizon:
                return n * penalty
            key = (n, t)
            got = memo.get(key)
            if got is not None:
                return got
            c, p = priced_probs[pol[(n, t)]]
            mu = rates[t] * p
            acc = 0.0
            v = 0.0
            for s in range(n):
                pr = _pois_pmf(s, mu)
                acc += pr
                v += pr * (c * s + value(n - s, t + 1))
            v += (1.0 - acc) * c * n
            memo[key] = v
            return v

        best = min(best, value(n_tasks, 0))
    return best


def brute_policy_evaluation(
    n_tasks: int,
    rates: list[float],
    price_of,
    prob_of,
) -> tuple[float, float, float]:
    """(expected reward cost, expected remaining, Pr(any remaining)) of a
    fixed policy, by scalar forward propagation of the full state
    distribution.

    price_of(n, t) -> price, prob_of(price) -> acceptance probability."""
    horizon = len(rates)
    dist = {n_tasks: 1.0}
    cost = 0.0
    for t in range(horizon):
        nxt: dict[int, float] = {}
        for n, w in dist.items():
            if n == 0:
                nxt[0] = nxt.get(0, 0.0) + w
                continue
            c = price_of(n, t)
            mu = rates[t] * prob_of(c)
            acc = 0.0
            for s in range(n):
                pr = _pois_pmf(s, mu)
                acc += pr
                cost += w * pr * c * s
                nxt[n - s] = nxt.get(n - s, 0.0) + w * pr
            tail = 1.0 - acc
            cost += w * tail * c * n
            nxt[0] = nxt.get(0, 0.0) + w * tail
        dist = nxt
    remaining = sum(n * w for n, w in dist.items())
    pr_any = sum(w for n, w in dist.items() if n > 0)
    return cost, remaining, pr_any


# ---------------------------------------------------------------------------
# Budget problem: literal multiset enumeration.


def brute_budget_exact(
    n_tasks: int,
    budget: int,
    priced_probs: list[tuple[int, float]],
) -> tuple[float, tuple[int, ...]] | None:
    """Cheapest-E[W] price multiset of size n_tasks within the budget, by
    trying every multiset.  None when no multiset is affordable."""
    best = None
    for combo in itertools.combinations_with_replacement(
        sorted(priced_probs), n_tasks
    ):
        spend = sum(c for c, _ in combo)
        if spend > budget:
            continue
        ew = math.fsum(1.0 / p for _, p in combo)
        key = (ew, tuple(c for c, _ in combo))
        if best is None or key < best:
            best = key
    return best


def budget_dp_price_parents(
    n_tasks: int,
    budget: int,
    usable: list[tuple[int, float]],
) -> dict[int, int] | None:
    """The exact budget DP with each parent stored as its price in an int32
    matrix (-1 where unset): the same ascending-price scan and strict <
    tie rule as the package, for checking its parent storage.  `usable` is
    (price, 1/p) in ascending price.  Returns {price: count}, or None when
    no allocation fits the budget."""
    dp = np.zeros(budget + 1)
    parents = np.full((n_tasks + 1, budget + 1), -1, dtype=np.int32)
    for i in range(1, n_tasks + 1):
        new = np.full(budget + 1, np.inf)
        for c, w in usable:
            if c > budget:
                break
            cand = dp[: budget + 1 - c] + w
            better = cand < new[c:]
            new[c:][better] = cand[better]
            parents[i, c:][better] = c
        dp = new
    if not np.isfinite(dp[budget]):
        return None
    counts: dict[int, int] = {}
    b = budget
    for i in range(n_tasks, 0, -1):
        c = int(parents[i, b])
        counts[c] = counts.get(c, 0) + 1
        b -= c
    return counts


def brute_lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull vertices by the straddling-chord test (O(n^3)).

    A point is a vertex iff no chord through two other points passes on or
    below it; collinear interior points are excluded, matching a monotone
    chain that pops on cross <= 0."""
    pts = sorted(points)
    out = []
    for i, q in enumerate(pts):
        dominated = False
        for a, b in itertools.combinations(pts, 2):
            if a == q or b == q:
                continue
            if not (a[0] < q[0] < b[0]):
                continue
            cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if cross >= 0.0:
                dominated = True
                break
        if not dominated:
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# Choice-model regression: two-parameter logistic curve fitted in probability
# space by nested grid refinement (no gradient code to share bugs with).


def fit_logistic_curve(curve: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Least-squares fit of p(c) = 1 / (1 + exp(-(a + b*c))).

    Returns (a, b, r_squared) with r_squared measured on the probability
    scale over all points."""
    c = np.array([x for x, _ in curve], dtype=float)
    p = np.array([y for _, y in curve], dtype=float)

    def sse(a: float, b: float) -> float:
        f = 1.0 / (1.0 + np.exp(-(a + b * c)))
        r = p - f
        return float(r @ r)

    a_lo, a_hi, b_lo, b_hi = -30.0, 5.0, 1e-3, 0.6
    best = (math.inf, 0.0, 0.0)
    for _ in range(6):
        aa = np.linspace(a_lo, a_hi, 40)
        bb = np.linspace(b_lo, b_hi, 40)
        best = min((sse(a, b), a, b) for a in aa for b in bb)
        _, a0, b0 = best
        da, db = (a_hi - a_lo) / 10.0, (b_hi - b_lo) / 10.0
        a_lo, a_hi = a0 - da, a0 + da
        b_lo, b_hi = max(1e-6, b0 - db), b0 + db
    s, a, b = best
    sst = float(((p - p.mean()) ** 2).sum())
    return a, b, 1.0 - s / sst


# ---------------------------------------------------------------------------
# Arrival profile reference: one window at a time, in Python scalars.


def cumulative_arrivals(rates, bucket_seconds: int, periodic: bool, t) -> float:
    """Integral over [0, t) of the intensity that is rates[i] per bucket i,
    repeated when periodic: whole periods, then the buckets before t summed
    in order, then the covered fraction of t's bucket.  A non-periodic
    profile raises DataError past its span."""
    from crowdpricer import DataError

    if t <= 0:
        return 0.0
    prefix = [0.0]
    for r in rates:
        prefix.append(prefix[-1] + r)
    span = bucket_seconds * len(rates)
    whole = 0.0
    if periodic:
        periods = math.floor(t / span)
        whole = periods * prefix[-1]
        t -= periods * span
        if t >= span:
            whole += prefix[-1]
            t -= span
    elif t > span:
        raise DataError(
            f"profile exhausted: window reaches {t:.0f}s but the profile "
            f"spans {span}s and is not periodic"
        )
    k = min(int(t // bucket_seconds), len(rates) - 1)
    return whole + prefix[k] + rates[k] * ((t - k * bucket_seconds) / bucket_seconds)


def folded_rates(rate_lists, period: int) -> list[float]:
    """The rates of fit_periodic_profile by the per-rate loop: slot i of
    each list sums its entries at indices congruent to i, in index order,
    and divides by their count; np.mean then averages the folded lists."""
    folded = []
    for rates in rate_lists:
        sums = np.zeros(period)
        hits = np.zeros(period)
        for i, r in enumerate(rates):
            sums[i % period] += r
            hits[i % period] += 1
        folded.append(sums / hits)
    return np.mean(folded, axis=0).tolist()


def interval_arrivals(problem) -> list[float]:
    """Expected arrivals per interval of a DeadlineProblem, one window at a
    time, the end of each window evaluated first."""
    p, d, off = problem.profile, problem.interval_seconds, problem.start_offset_seconds
    out = []
    for t in range(problem.n_intervals):
        end = cumulative_arrivals(p.rates, p.bucket_seconds, p.periodic, off + (t + 1) * d)
        out.append(end - cumulative_arrivals(p.rates, p.bucket_seconds, p.periodic, off + t * d))
    return out


# ---------------------------------------------------------------------------
# Randomized instance builders shared across test modules.


def random_tabulated_entries(rng: np.random.Generator, max_price: int) -> dict[int, float]:
    """Acceptance table over prices 0..max_price, non-decreasing in (0, 1)."""
    raw = np.sort(rng.uniform(0.02, 0.95, max_price + 1))
    return {c: float(raw[c]) for c in range(max_price + 1)}


def random_deadline_instance(
    rng: np.random.Generator,
    n_max: int,
    t_max: int,
    c_max: int,
    epsilon: float = 0.0,
):
    """A DeadlineProblem plus the plain-data mirror the oracles consume."""
    import crowdpricer as cp

    n = int(rng.integers(1, n_max + 1))
    horizon = int(rng.integers(1, t_max + 1))
    cmax = int(rng.integers(1, c_max + 1))
    rates = [round(float(r), 3) for r in rng.uniform(0.2, 7.0, horizon)]
    entries = random_tabulated_entries(rng, cmax)
    penalty = round(float(rng.uniform(cmax, 10.0 * cmax)), 2)
    interval_seconds = 600
    problem = cp.DeadlineProblem(
        n_tasks=n,
        n_intervals=horizon,
        interval_seconds=interval_seconds,
        profile=cp.ArrivalProfile(bucket_seconds=interval_seconds, rates=tuple(rates)),
        model=cp.TabulatedAcceptance(entries),
        grid=cp.PriceGrid(min_price=0, max_price=cmax),
        penalty=penalty,
        epsilon=epsilon,
    )
    priced_probs = [(c, entries[c]) for c in range(cmax + 1)]
    return problem, rates, priced_probs, penalty


def mp_ols(design_rows: list[list[float]], targets: list[float]) -> list[float]:
    """Normal-equation least squares at 50 significant digits."""
    with mp.workdps(50):
        a = mp.matrix(design_rows)
        y = mp.matrix(targets)
        gram = a.T * a
        beta = mp.lu_solve(gram, a.T * y)
        return [float(b) for b in beta]
