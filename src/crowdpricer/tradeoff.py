"""Cost/latency tradeoff pricing with no deadline and no budget.

Each unit of delay costs alpha; the DP charges each remaining task its
expected wait until completion:

    Opt(n) = min_c [ Opt(n-1) + c + unit_delay_cost / q(c) ]

* fixed-rate variant: one interval sees lambda expected arrivals and at most
  one completion counts, so q(c) = exp(-lambda p(c)) * lambda p(c) and the
  unit delay cost is alpha per interval.  The single-completion premise
  degrades once max lambda*p(c) > 0.2 (warned, not an error).
* arrival-based variant: decisions happen per arrival, q(c) = p(c), and one
  arrival takes 1/mean_rate hours, so the unit delay cost is alpha/mean_rate.

The per-step term does not depend on n, so the optimal price is the same for
every n and Opt(n) is the running sum of n copies of the minimal step cost.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, LowRatePremiseWarning
from .market import _AT_LEAST_1, _FINITE_AT_LEAST_0, _POSITIVE_FINITE
from .market import AcceptanceModel, PriceGrid, _check_fields, _lowest_tie, _require_coverage


@dataclass(frozen=True)
class FixedRateMarket:
    """lambda expected worker arrivals per interval, alpha charged per interval."""

    workers_per_interval: float

    def __post_init__(self) -> None:
        _check_fields(self, workers_per_interval=_POSITIVE_FINITE)


@dataclass(frozen=True)
class ArrivalBasedMarket:
    """Decisions indexed by worker arrivals at mean_rate_per_hour."""

    mean_rate_per_hour: float

    def __post_init__(self) -> None:
        _check_fields(self, mean_rate_per_hour=_POSITIVE_FINITE)


@dataclass(frozen=True)
class TradeoffProblem:
    n_tasks: int
    alpha: float  # delay cost in cents per unit of delay
    model: AcceptanceModel
    grid: PriceGrid
    market: FixedRateMarket | ArrivalBasedMarket

    def __post_init__(self) -> None:
        _check_fields(self, n_tasks=_AT_LEAST_1, alpha=_FINITE_AT_LEAST_0)
        _require_coverage(self.model, self.grid)


@dataclass(frozen=True)
class TradeoffSolution:
    """prices[n] to post while n tasks remain (index 0 unused and set to the
    grid minimum); values[n] = Opt(n)."""

    prices: np.ndarray  # (N+1,) int64
    values: np.ndarray  # (N+1,) float64

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        prices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "values", values)


def _step_costs(problem: TradeoffProblem) -> np.ndarray:
    """c + unit_delay_cost/q(c) per grid price; inf where q(c) is zero."""
    prices = np.array(list(problem.grid.prices()), dtype=np.float64)
    accept = np.array([problem.model.probability(int(c)) for c in prices])
    if isinstance(problem.market, FixedRateMarket):
        lam = problem.market.workers_per_interval
        mu = lam * accept
        worst = float(np.max(mu))
        if worst > 0.2:
            warnings.warn(
                f"fixed-rate premise strained: max lambda*p(c) = {worst:.3f} "
                f"> 0.2, multiple completions per interval are likely",
                LowRatePremiseWarning,
                stacklevel=3,
            )
        q = np.exp(-mu) * mu
        unit = problem.alpha
    else:
        q = accept
        unit = problem.alpha / problem.market.mean_rate_per_hour
    with np.errstate(divide="ignore"):
        step = np.where(q > 0.0, prices + unit / np.where(q > 0.0, q, 1.0), np.inf)
    if not np.any(np.isfinite(step)):
        raise InfeasibleError("no productive price: q(c) = 0 on the entire grid")
    return step


def solve_tradeoff(problem: TradeoffProblem) -> TradeoffSolution:
    step = _step_costs(problem)
    best = int(_lowest_tie(step))
    n_max = problem.n_tasks
    prices = np.full(n_max + 1, problem.grid.prices()[best], dtype=np.int64)
    prices[0] = problem.grid.min_price
    # cumsum adds in sequence, as the recurrence Opt(n) = Opt(n-1) + step does
    values = np.concatenate(([0.0], np.cumsum(np.full(n_max, step[best]))))
    return TradeoffSolution(prices=prices, values=values)
