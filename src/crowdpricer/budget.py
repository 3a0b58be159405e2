"""Budget-constrained static pricing.

With no deadline, a task priced at c needs 1/p(c) worker arrivals in
expectation, so the expected total arrivals to finish an allocation
{(c_i, n_i)} is sum n_i / p(c_i) and expected latency is that divided by the
mean arrival rate.  The LP relaxation of "minimize expected arrivals subject
to sum of prices <= budget" has an optimal solution supported on at most two
adjacent vertices of the lower convex hull of {(c, 1/p(c))} bracketing
budget/n_tasks; rounding the split loses at most 1/p(c1) - 1/p(c2).  A
pseudo-polynomial DP gives the exact integer optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DataError, DomainError, InfeasibleError
from .market import _AT_LEAST_0, _AT_LEAST_1, _POSITIVE_FINITE
from .market import AcceptanceModel, PriceGrid, _check_fields, _require_coverage, _require_int

# below this acceptance probability a price is treated as unusable: the
# expected arrivals 1/p stops being meaningful at any realistic scale
DEAD_PRICE_FLOOR = 1e-12

EXACT_WORK_CAP = 10**8  # cell updates allowed in solve_static_exact


@dataclass(frozen=True)
class BudgetProblem:
    n_tasks: int
    budget: int
    model: AcceptanceModel
    grid: PriceGrid
    mean_rate: float  # worker arrivals per hour, for latency conversion

    def __post_init__(self) -> None:
        _check_fields(self, n_tasks=_AT_LEAST_1, budget=_AT_LEAST_0, mean_rate=_POSITIVE_FINITE)
        _require_coverage(self.model, self.grid)
        if self.budget < self.n_tasks * self.grid.min_price:
            raise InfeasibleError(
                f"budget below minimum: {self.budget} < "
                f"{self.n_tasks} * {self.grid.min_price}"
            )


def _allocation_entries(entries) -> tuple[tuple[int, int], ...]:
    """The (price, count) pairs of an allocation as a tuple of int pairs.
    Each price must be an integer >= 0 and each count an integer >= 1, and
    there must be at least one pair; otherwise DomainError (a ValueError)."""
    entries = tuple((_require_int("price", c), _require_int("count", k)) for c, k in entries)
    if not entries:
        raise DomainError("allocation needs at least one entry")
    for c, k in entries:
        if c < 0 or k < 1:
            raise DomainError(f"bad allocation entry ({c}, {k})")
    return entries


@dataclass(frozen=True)
class StaticAllocation:
    """(price, count) groups plus their expected workload and latency."""

    entries: tuple[tuple[int, int], ...]
    expected_workers: float
    expected_latency_hours: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _allocation_entries(self.entries))

    @property
    def n_tasks(self) -> int:
        return sum(k for _, k in self.entries)

    @property
    def total_cost(self) -> int:
        return sum(c * k for c, k in self.entries)


def expected_worker_arrivals(
    entries: tuple[tuple[int, int], ...], model: AcceptanceModel
) -> float:
    """Expected arrivals to finish the allocation: sum count / p(price)."""
    total = 0.0
    for c, k in entries:
        p = model.probability(c)
        if p < DEAD_PRICE_FLOOR:
            raise DataError(f"price effectively dead: p({c}) = {p:.3g}")
        total += k / p
    return total


def expected_latency(expected_workers: float, mean_rate: float) -> float:
    """Hours until the expected_workers-th arrival at mean_rate per hour."""
    if mean_rate <= 0:
        raise ValueError("mean_rate must be positive")
    hours = expected_workers / mean_rate
    if not math.isfinite(hours):
        raise DomainError(f"mean_rate {mean_rate} puts the expected latency of "
                          f"{expected_workers:g} workers past the float range")
    return hours


def lower_convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull by monotone chain; collinear interior points are
    dropped.  Points must be sorted strictly increasing in x."""
    for (x0, _), (x1, _) in zip(points, points[1:]):
        if x1 <= x0:
            raise ValueError("points must be sorted strictly increasing in x")
    hull: list[tuple[float, float]] = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _usable_prices(problem: BudgetProblem) -> list[tuple[int, float]]:
    """(price, 1/p) for grid prices with non-dead acceptance probability."""
    out = []
    for c in problem.grid.prices():
        p = problem.model.probability(c)
        if p >= DEAD_PRICE_FLOOR:
            out.append((c, 1.0 / p))
    if not out:
        raise InfeasibleError("no usable price on grid: all acceptance "
                              f"probabilities below {DEAD_PRICE_FLOOR:g}")
    return out


def _finish(problem: BudgetProblem, counts: dict[int, int]) -> StaticAllocation:
    entries = tuple(sorted((c, k) for c, k in counts.items() if k > 0))
    workers = expected_worker_arrivals(entries, problem.model)
    return StaticAllocation(
        entries=entries,
        expected_workers=workers,
        expected_latency_hours=expected_latency(workers, problem.mean_rate),
    )


def solve_static_lp(problem: BudgetProblem) -> StaticAllocation:
    """Two-price allocation from the hull LP, rounded to integers.

    c1 is the largest hull price with c1 <= budget/n, c2 the smallest hull
    price above; n1 = ceil((c2*n - budget)/(c2 - c1)) tasks go to c1 and the
    rest to c2.  Exact division (or no hull price above budget/n) degenerates
    to a single price.
    """
    n, budget = problem.n_tasks, problem.budget
    hull = lower_convex_hull([(float(c), w) for c, w in _usable_prices(problem)])
    hull_prices = [int(c) for c, _ in hull]

    at_most = [c for c in hull_prices if c * n <= budget]
    if not at_most:
        raise InfeasibleError(
            f"budget below minimum: {budget} < {n} * {hull_prices[0]}"
        )
    c1 = at_most[-1]
    above = [c for c in hull_prices if c * n > budget]
    if c1 * n == budget or not above:
        return _finish(problem, {c1: n})
    c2 = above[0]
    n1 = -((budget - c2 * n) // (c2 - c1))  # ceil((c2*n - budget)/(c2 - c1))
    n1 = min(max(n1, 0), n)
    return _finish(problem, {c1: n1, c2: n - n1})


def solve_static_exact(problem: BudgetProblem) -> StaticAllocation:
    """Exact integer optimum by DP over (tasks assigned, budget spent).

    dp[i][b] = minimal expected arrivals for i tasks spending at most b.
    Ties prefer lower prices.  Work is n_tasks * (budget+1) * usable_prices
    cell updates, capped at EXACT_WORK_CAP.  Each cell's parent is stored as
    an index into the usable prices, in the smallest unsigned dtype that
    holds them (one byte per cell up to 256 usable prices).
    """
    n, budget = problem.n_tasks, problem.budget
    usable = _usable_prices(problem)
    work = n * (budget + 1) * len(usable)
    if work > EXACT_WORK_CAP:
        raise CapacityError(
            f"instance too large for exact solver: {work:.3g} cell updates "
            f"exceed the {EXACT_WORK_CAP:.0e} cap"
        )
    dp = np.zeros(budget + 1)
    # only cells with a finite dp are backtracked, and each has its parent set
    parents = np.zeros((n + 1, budget + 1), dtype=np.min_scalar_type(len(usable) - 1))
    for i in range(1, n + 1):
        new = np.full(budget + 1, np.inf)
        for k, (c, w) in enumerate(usable):  # ascending price; strict < keeps the lowest tie
            if c > budget:
                break
            cand = dp[: budget + 1 - c] + w
            view = new[c:]
            better = cand < view
            view[better] = cand[better]
            parents[i, c:][better] = k
        dp = new
    if not np.isfinite(dp[budget]):
        raise InfeasibleError(
            f"budget below minimum: cannot price {n} tasks within {budget}"
        )
    counts: dict[int, int] = {}
    b = budget
    for i in range(n, 0, -1):
        c = usable[parents[i, b]][0]
        counts[c] = counts.get(c, 0) + 1
        b -= c
    return _finish(problem, counts)
