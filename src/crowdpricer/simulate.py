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
    SCHEMA_VERSION,
    DeadlinePolicy,
    DeadlineProblem,
    PolicyEvaluation,
    _check_shape,
    problem_digest,
)
from .budget import _allocation_entries, expected_worker_arrivals
from .errors import DataError, DomainError, InfeasibleError
from .market import _AT_LEAST_0, _AT_LEAST_1
from .market import (
    AcceptanceModel,
    ArrivalProfile,
    TabulatedAcceptance,
    _check_fields,
    _require_int,
    _require_real,
    poisson_pmf_vector,
)

_BLOCK = 1024  # trials per block
_BLOCK_CELLS = 1 << 18  # bound on trials x tasks in one budget block


@dataclass(frozen=True)
class FixedPrice:
    """Post the same price every interval, whatever the state."""

    price: int

    def __post_init__(self) -> None:
        _check_fields(self, price=_AT_LEAST_0)


@dataclass(frozen=True)
class SimulationConfig:
    trials: int
    seed: int
    parallel: bool = False

    def __post_init__(self) -> None:
        _check_fields(self, trials=_AT_LEAST_1,
                      seed=(int, lambda v: 0 <= v < 2**63, "in [0, 2**63)"), parallel=bool)


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
    budget simulator ran).  A column that holds one value for every trial
    may be a read-only broadcast view (``np.broadcast_to``), as ``cost``
    and ``remaining`` are after a budget run on a periodic profile."""

    strategy_descriptor: str
    config: SimulationConfig
    cost: np.ndarray
    remaining: np.ndarray
    completion: np.ndarray
    workers: np.ndarray | None = None

    def _rows(self):
        """(cost, remaining, completion seconds or None, workers or None)
        per trial, as Python values, made one block of trials at a time."""
        for lo in range(0, len(self.cost), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            done = [None if math.isnan(t) else t for t in self.completion[block].tolist()]
            workers = [None] * len(done) if self.workers is None else self.workers[block].tolist()
            yield from zip(self.cost[block].tolist(), self.remaining[block].tolist(), done, workers)

    @property
    def per_trial(self) -> tuple[TrialOutcome, ...]:
        """One read-only row object per trial, built from the columns."""
        return tuple(TrialOutcome(*row) for row in self._rows())

    def aggregates(self) -> Aggregates:
        """Reductions of the per-trial columns, in trial order."""

        def mean_se(scratch: np.ndarray) -> tuple[float, float]:
            """np.mean and np.std(ddof=1) / sqrt(n), bit for bit: numpy's
            reductions in numpy's order, squaring the deviations in place
            in the float64 array given, which this overwrites."""
            n = len(scratch)
            mean = np.add.reduce(scratch) / n
            if n == 1:
                return float(mean), 0.0
            scratch -= mean
            np.square(scratch, out=scratch)
            return float(mean), float(np.sqrt(np.add.reduce(scratch) / (n - 1)) / math.sqrt(n))

        # one scratch column at a time; the NaN-filtered one is already a copy
        mean_cost, se_cost = mean_se(self.cost.astype(np.float64))
        mean_rem, se_rem = mean_se(self.remaining.astype(np.float64))
        mean_w, se_w = (
            (None, None) if self.workers is None else mean_se(self.workers.astype(np.float64))
        )
        done = self.completion[~np.isnan(self.completion)]
        mean_done, se_done = mean_se(done) if len(done) else (None, None)
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
        prices = np.array([strategy.price])
        price_index = np.broadcast_to(np.intp(0), (n_max + 1, len(rates)))
        descriptor = f"fixed-price:{strategy.price}"
    else:
        _check_shape(problem, strategy)
        prices, price_index = np.unique(strategy.price, return_inverse=True)
        price_index = price_index.reshape(strategy.price.shape)
        descriptor = f"policy:{strategy.problem_digest[:12]}"
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
    order statistic of the profile's intensity.  One count per block settles
    every trial: it finishes the tasks whose quota sums its count covers, so
    a short one is partial (remaining > 0, no completion, workers = count)."""
    entries = _allocation_entries(entries)
    expected_worker_arrivals(entries, model)  # DataError on a dead price
    prices = [c for c, k in entries for _ in range(k)]
    prices_desc = np.array(sorted(prices, reverse=True), dtype=np.int64)
    probs_desc = np.array([model.probability(int(c)) for c in prices_desc])
    total = float(profile._prefix[-1])
    if profile.periodic and total <= 0.0:
        raise DataError("profile exhausted: periodic profile with zero total rate")
    paid = np.concatenate(([0], np.cumsum(prices_desc)))  # cost of the first j tasks

    n_tasks = len(prices_desc)
    if profile.periodic:  # every trial finishes and pays for every task
        cost = np.broadcast_to(paid[-1], config.trials)
        remaining = np.broadcast_to(np.int64(0), config.trials)
    else:
        cost = np.empty(config.trials, dtype=np.int64)
        remaining = np.empty(config.trials, dtype=np.int64)
    completion = np.full(config.trials, np.nan)
    workers = np.empty(config.trials, dtype=np.int64)
    for rng, lo, hi in _blocks(config, max(1, min(_BLOCK, _BLOCK_CELLS // n_tasks))):
        quota = rng.geometric(probs_desc, size=(hi - lo, n_tasks))
        np.cumsum(quota, axis=1, out=quota)  # in the draw buffer
        need = quota[:, -1]
        if profile.periodic:
            workers[lo:hi] = need
            periods, r = np.divmod(rng.standard_gamma(need), total)
            completion[lo:hi] = periods * profile.span_seconds + profile._time_at(r)
        else:
            count = rng.poisson(total, size=hi - lo)
            ok = count >= need
            at = total * rng.beta(need[ok], count[ok] - need[ok] + 1)
            completion[lo:hi][ok] = profile._time_at(at)
            workers[lo:hi] = np.minimum(need, count)
            # `need` is used up, so compare in the draw buffer and sum the 0/1
            # entries: `count_nonzero` would cast them to a boolean copy
            np.less_equal(quota, count[:, None], out=quota)
            done = quota.sum(axis=1)
            cost[lo:hi] = paid[done]
            remaining[lo:hi] = n_tasks - done
        del quota, need  # free this block's draws before the next block's
    descriptor = "allocation:" + ",".join(f"{c}x{k}" for c, k in sorted(entries))
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
    pmf = poisson_pmf_vector(n_max, mu)  # Pr(k pickups), k < N
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
    `confidence`.  The computed probability can fall by an ulp from one
    price to the next, so the grid is scanned upward, not bisected."""
    if not (0.0 <= confidence < 1.0):
        raise DomainError("confidence must be in [0, 1)")
    for price in problem.grid.prices():
        pr = completion_probability_fixed(problem, price)
        if pr >= confidence:
            return price, pr
    raise InfeasibleError(
        f"deadline infeasible at max price: completion probability "
        f"{pr:.6g} < {confidence} at {price}"
    )


def price_floor_c0(problem: DeadlineProblem) -> float | None:
    """Price where expected pickups over the whole horizon equal n_tasks:
    p(c0) = N / integral(lambda).  None marks infeasibility (N exceeds the
    total expected arrivals even at p = 1)."""
    total = float(np.sum(problem.interval_rates()))
    if total <= 0:
        raise DomainError("profile has no arrivals over the horizon")
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
        raise DomainError(
            f"cost reduction is undefined against a fixed-price cost of {fixed_cost!r}")
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
    market_size = _require_int("market_size", market_size)
    reward_slope = _require_real("reward_slope", reward_slope)
    prices = [_require_int("price", c) for c in prices]
    config = SimulationConfig(trials=trials, seed=seed)
    if market_size < 2:
        raise DomainError("market_size must be >= 2")
    if not math.isfinite(reward_slope):
        raise DomainError(f"reward_slope must be finite, got {reward_slope}")
    if any(c < 0 for c in prices):
        raise DomainError(f"prices must be >= 0, got {min(prices)}")
    rng = _rng(config.seed, 0)
    mu_others = rng.standard_normal(market_size - 1)
    sigma = rng.random(market_size)  # index 0 is our task
    out = []
    chunk = max(1, min(config.trials, 10**6 // market_size))
    for price in prices:
        mu_ours = reward_slope * price - 1.0
        wins = 0
        left = config.trials
        while left > 0:
            m = min(chunk, left)
            z = rng.standard_normal((m, market_size))
            ours = mu_ours + sigma[0] * z[:, 0]
            best_other = np.max(mu_others + sigma[1:] * z[:, 1:], axis=1)
            wins += int(np.sum(ours > best_other))
            left -= m
        out.append((price, wins / config.trials))
    return out


# ---------------------------------------------------------------------------
# Report documents.


def report_to_dict(report: SimulationReport, include_per_trial: bool = False) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "strategy_descriptor": report.strategy_descriptor,
        "config": asdict(report.config),
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
