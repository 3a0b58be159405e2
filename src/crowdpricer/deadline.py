"""Deadline-constrained pricing as a finite-horizon MDP.

State (n, t): n tasks remain at the start of interval t.  Posting price c for
interval t completes s ~ Pois(lambda_t * p(c)) tasks (capped at n); each
completion pays c; tasks remaining at the deadline pay a penalty.  Backward
induction over t yields the cost-to-go matrix opt and the price matrix.

Both solvers read one set of Poisson tables per time slice (built by
``market.poisson_tables``) and apply the same lowest-price tie rule:

* ``solve_simple`` computes every price's cost one state at a time (the
  reference);
* ``solve_efficient`` scans every price for all states at once, as one
  convolution of the next slice's costs with each price's pmf head.  The
  scan is exact: it assumes nothing about how prices vary with n.

Transition tails are truncated at the smallest s0 with
Pr(Pois >= s0) < epsilon; the dropped mass is never renormalized, which
under-estimates cost by at most epsilon * n * (horizon) * max_price
(the truncation bound tested in the acceptance suite).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, InfeasibleError
from .market import (
    AcceptanceModel,
    ArrivalProfile,
    PriceGrid,
    grid_from_dict,
    grid_to_dict,
    model_from_dict,
    model_to_dict,
    poisson_tables,
    profile_from_dict,
    profile_to_dict,
    truncation_threshold,
)

SCHEMA_VERSION = 1

# relative slack when deciding that two expected costs tie; ties break to the
# lowest price
_TIE_REL = 1e-12


@dataclass(frozen=True)
class DeadlineProblem:
    """A batch of n_tasks to finish within n_intervals intervals.

    penalty is the terminal cost per unfinished task (cents).  When
    existence_alpha > 0 the terminal cost becomes (n + alpha) * penalty for
    n > 0, charging an extra fixed cost for finishing incomplete at all.
    epsilon is the transition truncation level; 0 disables truncation.
    penalty=None resolves to the default 10 * grid.max_price.
    """

    n_tasks: int
    n_intervals: int
    interval_seconds: int
    profile: ArrivalProfile
    model: AcceptanceModel
    grid: PriceGrid
    penalty: float | None = None
    start_offset_seconds: int = 0
    existence_alpha: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.start_offset_seconds < 0:
            raise ValueError("start_offset_seconds must be >= 0")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must be in [0, 1); 0 disables truncation")
        if not (self.existence_alpha >= 0 and np.isfinite(self.existence_alpha)):
            raise ValueError("existence_alpha must be finite and >= 0")
        if self.penalty is None:
            object.__setattr__(self, "penalty", 10.0 * self.grid.max_price)
        if not (self.penalty >= 0 and np.isfinite(self.penalty)):
            raise ValueError("penalty must be finite and >= 0")
        if 0 < self.penalty < self.grid.max_price:
            # level 3 skips the generated __init__ and names the caller
            warnings.warn(
                f"penalty {self.penalty} below grid.max_price "
                f"{self.grid.max_price}: top prices can never pay off",
                stacklevel=3,
            )

    def interval_rates(self) -> np.ndarray:
        """Expected arrivals per interval, integrated from the profile."""
        d = self.interval_seconds
        off = self.start_offset_seconds
        return np.array(
            [
                self.profile.expected_arrivals(off + t * d, off + (t + 1) * d)
                for t in range(self.n_intervals)
            ]
        )

    def terminal_cost(self, n: int) -> float:
        if n == 0:
            return 0.0
        if self.existence_alpha > 0:
            return (n + self.existence_alpha) * self.penalty
        return n * self.penalty


@dataclass(frozen=True)
class DeadlinePolicy:
    """Solver output: price[n][t] to post, opt[n][t] cost-to-go."""

    price: np.ndarray  # (N+1, N_T) int64
    opt: np.ndarray  # (N+1, N_T+1) float64
    problem_digest: str

    def __post_init__(self) -> None:
        price = np.asarray(self.price, dtype=np.int64)
        opt = np.asarray(self.opt, dtype=np.float64)
        if price.ndim != 2 or opt.ndim != 2 or opt.shape != (
            price.shape[0],
            price.shape[1] + 1,
        ):
            raise ValueError("price must be (N+1, N_T) and opt (N+1, N_T+1)")
        price.setflags(write=False)
        opt.setflags(write=False)
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "opt", opt)

    def price_at(self, n: int, t: int) -> int:
        return int(self.price[n, t])


def transition_distribution(
    n: int, lambda_t: float, p: float, epsilon: float
) -> list[tuple[int, float]]:
    """Transition law out of a state with n remaining tasks.

    Returns (s, probability) pairs: s = 0..min(n-1, s0-1) carry the Poisson
    pmf at mean lambda_t*p, and s = n carries the entire upper tail
    Pr(Pois >= n) (every arrival beyond the n-th is surplus).  Mass between
    s0 and n-1 is dropped, not renormalized.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be a probability")
    mu = lambda_t * p
    if mu == 0.0:
        return [(0, 1.0)]
    head = n if epsilon == 0.0 else min(n, truncation_threshold(mu, epsilon))
    pmf, tails = poisson_tables(np.array([mu]), n)
    out = [(s, float(q)) for s, q in enumerate(pmf[0, :head])]
    if tails[0, n] > 0.0:
        out.append((n, float(tails[0, n])))
    return out


def _slice_tables(
    problem: DeadlineProblem, mus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition tables of one time slice, one row per posted mean.

    Returns (pmf, tails, caps): pmf[j, s] for s < N, zeroed from
    cap_j = min(N, s0_j) on; tails[j, n] = Pr(Pois >= n) for n = 0..N; and
    the caps.  One kernel call serves the tails and the truncation scan.
    """
    n_max, eps = problem.n_tasks, problem.epsilon
    floor = min(1e-18, eps * 1e-9) if eps > 0.0 else 1e-18
    pmf, tails = poisson_tables(mus, n_max, floor)
    below = tails < eps  # never true when eps == 0
    below[:, n_max] = True  # so the first True is at min(N, s0)
    caps = below.argmax(axis=1)
    pmf[np.arange(n_max) >= caps[:, None]] = 0.0
    return pmf, tails, caps


def _state_cost(
    pmf_j: np.ndarray, cap: int, spend_j: np.ndarray, n: int, opt_next: np.ndarray
) -> float:
    """Expected cost of one price at state n: the continuation
    sum_{s < min(n, cap)} pmf[s] * opt_next[n - s] plus the reward spend.

    The reversed view keeps np.dot on its plain loop in order of s, so the
    value does not depend on where the arrays sit in memory."""
    head = min(n, cap)
    return float(np.dot(pmf_j[:head], opt_next[n : n - head : -1])) + spend_j[n - 1]


def _loop_costs(pmf, caps, spend, opt_next) -> np.ndarray:
    """Every price's cost (rows) at every state n = 1..N (columns), one
    state and one price at a time."""
    n_max = pmf.shape[1]
    costs = np.empty((len(pmf), n_max))
    for n in range(1, n_max + 1):
        for j in range(len(pmf)):
            costs[j, n - 1] = _state_cost(pmf[j], caps[j], spend[j], n, opt_next)
    return costs


def _scan_costs(pmf, caps, spend, opt_next) -> np.ndarray:
    """The costs of _loop_costs to float rounding, all states of a price at
    once: the continuation is the convolution of opt_next with the pmf head
    (opt_next[0] = 0 absorbs the term s = n)."""
    n_max = pmf.shape[1]
    costs = spend.copy()
    for j, cap in enumerate(caps):
        costs[j] += np.convolve(opt_next, pmf[j, :cap])[1 : n_max + 1]
    return costs


def _backward_induction(problem: DeadlineProblem, slice_costs) -> DeadlinePolicy:
    """Backward induction over time slices.

    slice_costs gives every grid price's cost at every state n >= 1; each
    state posts the lowest price whose cost ties the minimum (1e-12
    relative).  The posted price's cost is then taken from _state_cost, so
    every solver writes the same opt bits for the same prices.
    """
    n_max, horizon = problem.n_tasks, problem.n_intervals
    prices = np.array(problem.grid.prices(), dtype=np.int64)
    acceptance = np.array([problem.model.probability(int(c)) for c in prices])
    price = np.full((n_max + 1, horizon), problem.grid.min_price, dtype=np.int64)
    opt = np.zeros((n_max + 1, horizon + 1))
    opt[:, horizon] = [problem.terminal_cost(n) for n in range(n_max + 1)]
    rates = problem.interval_rates()
    s, n = np.arange(n_max), np.arange(1, n_max + 1)
    for t in range(horizon - 1, -1, -1):
        pmf, tails, caps = _slice_tables(problem, rates[t] * acceptance)
        # spend[j, n-1] = c_j * (sum_{s<n} s * pmf[j, s] + n * tails[j, n])
        spend = np.cumsum(s * pmf, axis=1)
        spend += n * tails[:, 1:]
        spend *= prices[:, None]
        opt_next = opt[:, t + 1]
        costs = slice_costs(pmf, caps, spend, opt_next)
        best = costs.min(axis=0)
        choice = np.argmax(costs <= best + _TIE_REL * np.maximum(1.0, np.abs(best)), axis=0)
        price[1:, t] = prices[choice]
        opt[1:, t] = [
            _state_cost(pmf[j], caps[j], spend[j], k, opt_next)
            for k, j in enumerate(choice, start=1)
        ]
    return DeadlinePolicy(price=price, opt=opt, problem_digest=problem_digest(problem))


def solve_simple(problem: DeadlineProblem) -> DeadlinePolicy:
    """Backward induction scanning every price for every state, one state
    at a time (the reference solver)."""
    return _backward_induction(problem, _loop_costs)


def solve_efficient(problem: DeadlineProblem) -> DeadlinePolicy:
    """Backward induction with an exact scan of every price.

    Per time slice, every price's cost at every state comes from one
    convolution and one cumulative sum over the tables solve_simple reads;
    nothing is assumed about how prices vary with n.  Both solvers post the
    same prices and write the same opt matrix.
    """
    return _backward_induction(problem, _scan_costs)


@dataclass(frozen=True)
class PolicyEvaluation:
    expected_cost: float  # reward spend only, penalties excluded
    expected_remaining: float
    pr_any_remaining: float


def evaluate_policy_exact(
    problem: DeadlineProblem, policy: DeadlinePolicy
) -> PolicyEvaluation:
    """Exact policy evaluation by forward-propagating the state distribution.

    Transitions use the full Poisson support (no truncation) regardless of
    problem.epsilon, so this is the reference cost of actually running the
    policy.
    """
    n_max, horizon = problem.n_tasks, problem.n_intervals
    if policy.price.shape != (n_max + 1, horizon):
        raise DataError(
            f"policy/problem dimension mismatch: policy is "
            f"{policy.price.shape}, problem needs {(n_max + 1, horizon)}"
        )
    rates = problem.interval_rates()
    dist = np.zeros(n_max + 1)
    dist[n_max] = 1.0
    cost = 0.0
    for t in range(horizon):
        posted = np.unique(policy.price[1:, t])
        mus = rates[t] * np.array([problem.model.probability(int(c)) for c in posted])
        pmf, tails = poisson_tables(mus, n_max)
        spend = np.cumsum(np.arange(n_max) * pmf, axis=1)
        rows = np.searchsorted(posted, policy.price[:, t])
        new = np.zeros(n_max + 1)
        new[0] = dist[0]
        for n in range(1, n_max + 1):
            mass = dist[n]
            if mass == 0.0:
                continue
            j, c = rows[n], int(policy.price[n, t])
            new[1 : n + 1] += mass * pmf[j, :n][::-1]
            new[0] += mass * tails[j, n]
            cost += mass * c * (spend[j, n - 1] + n * tails[j, n])
        dist = new
    remaining = float(np.dot(np.arange(n_max + 1), dist))
    pr_any = float(np.sum(dist[1:]))
    return PolicyEvaluation(
        expected_cost=cost, expected_remaining=remaining, pr_any_remaining=pr_any
    )


def with_chosen_penalty(problem: DeadlineProblem, penalty: float) -> DeadlineProblem:
    """problem with a penalty the program chose (a calibration probe or its
    result), without the warning meant for a user's penalty below
    grid.max_price."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return replace(problem, penalty=penalty)


def calibrate_penalty(
    problem: DeadlineProblem,
    bound: float,
    tolerance: float = 0.05,
    solver=solve_efficient,
) -> tuple[float, float]:
    """Find a penalty whose induced optimal policy leaves at most `bound`
    expected tasks unfinished (plus alpha * Pr(any) when existence_alpha > 0).

    Returns (penalty, achieved).  Doubling search for an upper endpoint, then
    bisection; stops when the achieved value lands within `tolerance`
    (relative) below the bound or the penalty interval collapses.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not (0.0 < tolerance < 1.0):
        raise ValueError("tolerance must be in (0, 1)")

    def achieved_at(pen: float) -> float:
        probe = with_chosen_penalty(problem, pen)
        ev = evaluate_policy_exact(probe, solver(probe))
        if problem.existence_alpha > 0:
            return ev.expected_remaining + problem.existence_alpha * ev.pr_any_remaining
        return ev.expected_remaining

    got = achieved_at(0.0)
    if got <= bound:
        return 0.0, got

    hi = float(max(problem.grid.max_price, 1))
    lo = 0.0
    achieved_hi = achieved_at(hi)
    while achieved_hi > bound:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise InfeasibleError(
                f"bound infeasible: expected remaining still {achieved_hi:.6g} "
                f"> {bound} at penalty 1e9"
            )
        achieved_hi = achieved_at(hi)

    for _ in range(64):
        if achieved_hi > bound * (1.0 - tolerance):
            break  # close enough under the bound
        if hi - lo <= 1e-9 * max(1.0, hi):
            break  # interval collapsed onto a jump of the achieved value
        mid = 0.5 * (lo + hi)
        got = achieved_at(mid)
        if got <= bound:
            hi, achieved_hi = mid, got
        else:
            lo = mid
    return hi, achieved_hi


# ---------------------------------------------------------------------------
# File format (policy documents).


def problem_to_dict(problem: DeadlineProblem) -> dict:
    return {
        "n_tasks": problem.n_tasks,
        "n_intervals": problem.n_intervals,
        "interval_seconds": problem.interval_seconds,
        "start_offset_seconds": problem.start_offset_seconds,
        "penalty": problem.penalty,
        "existence_alpha": problem.existence_alpha,
        "epsilon": problem.epsilon,
        "profile": profile_to_dict(problem.profile),
        "model": model_to_dict(problem.model),
        "grid": grid_to_dict(problem.grid),
    }


def problem_from_dict(d: dict) -> DeadlineProblem:
    try:
        return DeadlineProblem(
            n_tasks=int(d["n_tasks"]),
            n_intervals=int(d["n_intervals"]),
            interval_seconds=int(d["interval_seconds"]),
            start_offset_seconds=int(d.get("start_offset_seconds", 0)),
            penalty=float(d["penalty"]),
            existence_alpha=float(d.get("existence_alpha", 0.0)),
            epsilon=float(d.get("epsilon", 1e-9)),
            profile=profile_from_dict(d["profile"]),
            model=model_from_dict(d["model"]),
            grid=grid_from_dict(d["grid"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad deadline problem document: {exc}") from exc


def problem_digest(problem: DeadlineProblem) -> str:
    blob = json.dumps(problem_to_dict(problem), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def policy_to_dict(problem: DeadlineProblem, policy: DeadlinePolicy) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": problem_to_dict(problem),
        "price": policy.price.tolist(),
        "opt": policy.opt.tolist(),
    }


def policy_from_dict(d: dict) -> tuple[DeadlineProblem, DeadlinePolicy]:
    try:
        if int(d["schema_version"]) != SCHEMA_VERSION:
            raise DataError(f"unsupported schema_version {d['schema_version']}")
        problem = problem_from_dict(d["problem"])
        policy = DeadlinePolicy(
            price=np.array(d["price"], dtype=np.int64),
            opt=np.array(d["opt"], dtype=np.float64),
            problem_digest=problem_digest(problem),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad policy document: {exc}") from exc
    if policy.price.shape != (problem.n_tasks + 1, problem.n_intervals):
        raise DataError("policy document: price matrix shape does not match problem")
    return problem, policy
