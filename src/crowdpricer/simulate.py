"""Monte Carlo simulators, the fixed-price baseline, and validation helpers.

Determinism contract: the simulators split trials 0..trials-1 into blocks of
``_BLOCK`` consecutive trials (fewer when a budget allocation has so many
tasks that a block would hold more than ``_BLOCK_CELLS`` quota draws), and
block b draws from a Philox counter-based generator keyed by (seed, b) and
nothing else.  All trials of a block advance together through the same
vectorized steps, so results are a function of (seed, trials, inputs) only.
There is no process pool: ``SimulationConfig.parallel`` is recorded in the
report and runs the same code, so a parallel document differs from the
serial one only in that flag.  Aggregates are reductions of the per-trial
columns in trial order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .deadline import (
    DeadlinePolicy,
    DeadlineProblem,
    PolicyEvaluation,
    _check_shape,
    evaluate_policy_exact,  # noqa: F401  (re-exported)
    problem_digest,
)
from .errors import DataError, InfeasibleError
from .market import (
    AcceptanceModel,
    ArrivalProfile,
    TabulatedAcceptance,
    _require_int,
    poisson_tables,
)

SCHEMA_VERSION = 1

_BLOCK = 1024  # trials per block
_BLOCK_CELLS = 1 << 18  # bound on trials x tasks in one budget block


@dataclass(frozen=True)
class FixedPrice:
    """Post the same price every interval, whatever the state."""

    price: int

    def __post_init__(self) -> None:
        _require_int("price", self.price)
        if self.price < 0:
            raise ValueError("price must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    trials: int
    seed: int
    parallel: bool = False

    def __post_init__(self) -> None:
        _require_int("trials", self.trials)
        _require_int("seed", self.seed)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0 <= self.seed < 2**63):
            raise ValueError("seed must be in [0, 2**63)")


@dataclass(frozen=True)
class TrialOutcome:
    total_cost: int
    remaining_tasks: int
    completion_seconds: float | None
    workers: int | None = None  # arrivals observed; set by the budget simulator


@dataclass(frozen=True)
class Aggregates:
    mean_cost: float
    se_cost: float
    mean_remaining: float
    se_remaining: float
    completion_rate: float
    mean_completion_seconds: float | None
    se_completion_seconds: float | None
    mean_workers: float | None
    se_workers: float | None


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Per-trial columns in trial order: ``cost`` in cents and ``remaining``
    tasks (int64), ``completion`` seconds (NaN where the trial never
    finished), and ``workers``, the arrivals observed (None unless the
    budget simulator ran)."""

    strategy_descriptor: str
    config: SimulationConfig
    cost: np.ndarray
    remaining: np.ndarray
    completion: np.ndarray
    workers: np.ndarray | None = None

    def _rows(self):
        """(cost, remaining, completion seconds or None, workers or None)
        per trial, as Python values."""
        done = [None if math.isnan(t) else t for t in self.completion.tolist()]
        workers = [None] * len(done) if self.workers is None else self.workers.tolist()
        return zip(self.cost.tolist(), self.remaining.tolist(), done, workers)

    @property
    def per_trial(self) -> tuple[TrialOutcome, ...]:
        """One read-only row object per trial, built from the columns."""
        return tuple(TrialOutcome(*row) for row in self._rows())

    def aggregates(self) -> Aggregates:
        """Reductions of the per-trial columns, in trial order."""

        def mean_se(values: np.ndarray) -> tuple[float, float]:
            values = values.astype(np.float64)
            m = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
            return m, se

        done = self.completion[~np.isnan(self.completion)]
        mean_cost, se_cost = mean_se(self.cost)
        mean_rem, se_rem = mean_se(self.remaining)
        mean_done, se_done = mean_se(done) if len(done) else (None, None)
        mean_w, se_w = (None, None) if self.workers is None else mean_se(self.workers)
        return Aggregates(
            mean_cost=mean_cost,
            se_cost=se_cost,
            mean_remaining=mean_rem,
            se_remaining=se_rem,
            completion_rate=len(done) / len(self.cost),
            mean_completion_seconds=mean_done,
            se_completion_seconds=se_done,
            mean_workers=mean_w,
            se_workers=se_w,
        )


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def _blocks(config: SimulationConfig, size: int):
    """(generator, first trial, end) of each block, in trial order."""
    for b, lo in enumerate(range(0, config.trials, size)):
        yield _rng(config.seed, b), lo, min(lo + size, config.trials)


# ---------------------------------------------------------------------------
# Deadline simulation (interval-level).


def simulate_deadline(
    problem: DeadlineProblem,
    strategy: DeadlinePolicy | FixedPrice,
    config: SimulationConfig,
) -> SimulationReport:
    """Interval-level Monte Carlo: completions per interval are Poisson draws
    at lambda_t * p(price), capped at the remaining count; completion time is
    the end of the interval that finished the batch."""
    rates = problem.interval_rates()
    n_max = problem.n_tasks
    if isinstance(strategy, FixedPrice):
        price_of = np.full((n_max + 1, len(rates)), strategy.price, dtype=np.int64)
        descriptor = f"fixed-price:{strategy.price}"
    else:
        _check_shape(problem, strategy)
        price_of = strategy.price
        descriptor = f"policy:{strategy.problem_digest[:12]}"
    prices, price_index = np.unique(price_of, return_inverse=True)
    price_index = price_index.reshape(price_of.shape)
    accept = np.array([problem.model.probability(int(c)) for c in prices])

    cost = np.zeros(config.trials, dtype=np.int64)
    remaining = np.full(config.trials, n_max, dtype=np.int64)
    completion = np.full(config.trials, np.nan)
    for rng, lo, hi in _blocks(config, _BLOCK):
        n = remaining[lo:hi]  # a view: the block's state, updated in place
        for t, rate in enumerate(rates):
            c = price_index[n, t]
            s = np.minimum(rng.poisson(rate * accept[c]), n)
            cost[lo:hi] += s * prices[c]
            n -= s
            completion[lo:hi][(s > 0) & (n == 0)] = (t + 1) * problem.interval_seconds
            if not n.any():
                break
    return SimulationReport(descriptor, config, cost, remaining, completion)


# ---------------------------------------------------------------------------
# Budget simulation (event-level).


def _seconds_into(
    r: np.ndarray, rates: np.ndarray, ends: np.ndarray, bucket_seconds: int
) -> np.ndarray:
    """Seconds into the profile at which its cumulative intensity reaches r
    (0 <= r <= total): the NHPP time change read backwards.  A zero-rate
    bucket ends where it begins, so no time falls inside one."""
    k = np.minimum(np.searchsorted(ends, r, side="right"), np.flatnonzero(rates).max(initial=0))
    frac = np.clip((r - (ends[k] - rates[k])) / rates[k], 0.0, 1.0)
    return (k + frac) * bucket_seconds


def simulate_budget(
    entries: tuple[tuple[int, int], ...],
    profile: ArrivalProfile,
    model: AcceptanceModel,
    config: SimulationConfig,
) -> SimulationReport:
    """Event-level Monte Carlo of a static allocation.

    Workers arrive by an NHPP; each arrival faces the highest-priced
    remaining task and accepts with its probability, so each task consumes
    a Geometric(p) quota of arrivals, highest price first, and the batch
    finishes at arrival number `need`, the sum of the quotas.  Through the
    time change that arrival comes when the cumulative intensity reaches
    Gamma(need, 1), wrapping around a periodic profile.  A non-periodic
    profile instead draws the Poisson count of all its arrivals: if it
    covers `need`, the finishing arrival is the Beta(need, count - need + 1)
    order statistic of the profile's intensity; otherwise the trial is
    partial (remaining > 0, no completion time, workers = count)."""
    prices: list[int] = []
    for c, k in entries:
        if k < 1 or c < 0:
            raise ValueError(f"bad allocation entry ({c}, {k})")
        prices.extend([int(c)] * int(k))
    if not prices:
        raise ValueError("allocation is empty")
    prices_desc = np.array(sorted(prices, reverse=True), dtype=np.int64)
    probs_desc = np.array([model.probability(int(c)) for c in prices_desc])
    if np.any(probs_desc < 1e-12):
        dead = int(prices_desc[np.argmin(probs_desc)])
        raise DataError(f"price effectively dead: p({dead}) < 1e-12")
    rates = np.asarray(profile.rates)
    ends = np.cumsum(rates)
    total = float(ends[-1])
    if profile.periodic and total <= 0.0:
        raise DataError("profile exhausted: periodic profile with zero total rate")
    paid = np.concatenate(([0], np.cumsum(prices_desc)))  # cost of the first j tasks

    n_tasks = len(prices_desc)
    cost = np.full(config.trials, paid[-1], dtype=np.int64)
    remaining = np.zeros(config.trials, dtype=np.int64)
    completion = np.full(config.trials, np.nan)
    workers = np.empty(config.trials, dtype=np.int64)
    for rng, lo, hi in _blocks(config, max(1, min(_BLOCK, _BLOCK_CELLS // n_tasks))):
        quota = np.cumsum(rng.geometric(probs_desc, size=(hi - lo, n_tasks)), axis=1)
        need = quota[:, -1]
        workers[lo:hi] = need
        if profile.periodic:
            periods, r = np.divmod(rng.standard_gamma(need), total)
            completion[lo:hi] = periods * profile.span_seconds + _seconds_into(
                r, rates, ends, profile.bucket_seconds
            )
            continue
        count = rng.poisson(total, size=hi - lo)
        ok = count >= need
        at = total * rng.beta(need[ok], count[ok] - need[ok] + 1)
        completion[lo:hi][ok] = _seconds_into(at, rates, ends, profile.bucket_seconds)
        short = ~ok
        done = np.sum(quota[short] <= count[short, None], axis=1)
        cost[lo:hi][short] = paid[done]
        remaining[lo:hi][short] = n_tasks - done
        workers[lo:hi][short] = count[short]
    descriptor = "allocation:" + ",".join(
        f"{c}x{k}" for c, k in sorted(entries)
    )
    return SimulationReport(descriptor, config, cost, remaining, completion, workers)


# ---------------------------------------------------------------------------
# Fixed-price baseline and related scalar helpers.


def constant_price_policy(problem: DeadlineProblem, price: int) -> DeadlinePolicy:
    """The policy posting `price` in every state (opt matrix left zero)."""
    return DeadlinePolicy(
        price=np.full((problem.n_tasks + 1, problem.n_intervals), int(price), dtype=np.int64),
        opt=np.zeros((problem.n_tasks + 1, problem.n_intervals + 1)),
        problem_digest=problem_digest(problem),
    )


def evaluate_fixed_price(problem: DeadlineProblem, price: int) -> PolicyEvaluation:
    """Exact outcome of posting a constant price, in closed form.

    At one price the pickups over the whole horizon are Pois(mu), mu the
    total expected arrivals times p(price), and the batch completes
    min(pickups, N) tasks: what evaluate_policy_exact gives for
    constant_price_policy, from one Poisson row instead of a forward pass.
    Pr(any remaining) is summed over the lower tail, not taken as
    1 - Pr(Pois >= N), which leaves about 1e-11 where the answer is 0."""
    n_max = problem.n_tasks
    mu = float(np.sum(problem.interval_rates())) * problem.model.probability(int(price))
    pmf = poisson_tables(np.array([mu]), n_max)[0][0]  # Pr(k pickups), k < N
    remaining = float(np.dot(n_max - np.arange(n_max), pmf))
    return PolicyEvaluation(
        expected_cost=int(price) * (n_max - remaining),
        expected_remaining=remaining,
        pr_any_remaining=float(np.sum(pmf)),
    )


def completion_probability_fixed(problem: DeadlineProblem, price: int) -> float:
    return 1.0 - evaluate_fixed_price(problem, price).pr_any_remaining


def baseline_fixed_price(
    problem: DeadlineProblem, confidence: float
) -> tuple[int, float]:
    """Smallest grid price whose exact completion probability meets
    `confidence`.  Monotone in price, so bisection over the grid."""
    if not (0.0 <= confidence < 1.0):
        raise ValueError("confidence must be in [0, 1)")
    prices = list(problem.grid.prices())
    pr_hi = completion_probability_fixed(problem, prices[-1])
    if pr_hi < confidence:
        raise InfeasibleError(
            f"deadline infeasible at max price: completion probability "
            f"{pr_hi:.6g} < {confidence} at {prices[-1]}"
        )
    pr_lo = completion_probability_fixed(problem, prices[0])
    if pr_lo >= confidence:
        return prices[0], pr_lo
    lo, hi = 0, len(prices) - 1  # pr(lo) < confidence <= pr(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if completion_probability_fixed(problem, prices[mid]) >= confidence:
            hi = mid
        else:
            lo = mid
    return prices[hi], completion_probability_fixed(problem, prices[hi])


def price_floor_c0(problem: DeadlineProblem) -> float | None:
    """Price where expected pickups over the whole horizon equal n_tasks:
    p(c0) = N / integral(lambda).  None marks infeasibility (N exceeds the
    total expected arrivals even at p = 1)."""
    total = float(np.sum(problem.interval_rates()))
    if total <= 0:
        raise ValueError("profile has no arrivals over the horizon")
    target = problem.n_tasks / total
    if target > 1.0:
        return None
    model = problem.model
    if isinstance(model, TabulatedAcceptance):
        for c in problem.grid.prices():
            if model.probability(c) >= target:
                return float(c)
        return None
    if model.probability(0) >= target:
        return 0.0
    hi = float(max(problem.grid.max_price, 1))
    while model.probability(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.probability(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def cost_reduction(fixed_cost: float, dynamic_cost: float) -> float:
    """Relative saving (fixed - dynamic) / fixed."""
    if fixed_cost <= 0:
        raise ValueError("fixed_cost must be positive")
    return (fixed_cost - dynamic_cost) / fixed_cost


# ---------------------------------------------------------------------------
# Discrete-choice validation experiment.


def simulate_choice_model(
    market_size: int,
    reward_slope: float,
    trials: int,
    prices: list[int],
    seed: int,
) -> list[tuple[int, float]]:
    """Empirical acceptance curve from a utility-maximizing worker choosing
    among market_size tasks.

    Competing mean utilities are drawn once from N(0,1) and dispersions from
    U[0,1]; our task's mean utility is reward_slope * price - 1.  Each trial
    draws every task's utility and our task wins if it is the strict maximum.
    """
    if market_size < 2:
        raise ValueError("market_size must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _rng(seed, 0)
    mu_others = rng.standard_normal(market_size - 1)
    sigma = rng.random(market_size)  # index 0 is our task
    out = []
    chunk = max(1, min(trials, 10**6 // max(market_size, 1)))
    for price in prices:
        mu_ours = reward_slope * price - 1.0
        wins = 0
        left = trials
        while left > 0:
            m = min(chunk, left)
            z = rng.standard_normal((m, market_size))
            ours = mu_ours + sigma[0] * z[:, 0]
            best_other = np.max(mu_others + sigma[1:] * z[:, 1:], axis=1)
            wins += int(np.sum(ours > best_other))
            left -= m
        out.append((int(price), wins / trials))
    return out


# ---------------------------------------------------------------------------
# Report documents.


def config_to_dict(config: SimulationConfig) -> dict:
    return {
        "trials": int(config.trials),
        "seed": int(config.seed),
        "parallel": config.parallel,
    }


def report_to_dict(report: SimulationReport, include_per_trial: bool = False) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "strategy_descriptor": report.strategy_descriptor,
        "config": config_to_dict(report.config),
        "aggregates": asdict(report.aggregates()),
    }
    if include_per_trial:
        rows = []
        for cost, remaining, done, workers in report._rows():
            row = {
                "total_cost": cost,
                "remaining_tasks": remaining,
                "completion_time_seconds": done,
            }
            if workers is not None:
                row["workers"] = workers
            rows.append(row)
        doc["per_trial"] = rows
    return doc


def write_trials_csv(report: SimulationReport, path: str) -> None:
    """CSV export: trial,cost_cents,remaining,completion_seconds (empty when
    the trial never completed)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trial,cost_cents,remaining,completion_seconds\n")
        for i, (cost, remaining, done, _) in enumerate(report._rows()):
            fh.write(f"{i},{cost},{remaining},{'' if done is None else repr(done)}\n")
