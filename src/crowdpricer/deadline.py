"""Deadline-constrained pricing as a finite-horizon MDP.

State (n, t): n tasks remain at the start of interval t.  Posting price c for
interval t completes s ~ Pois(lambda_t * p(c)) tasks (capped at n); each
completion pays c; tasks remaining at the deadline pay a penalty.  Backward
induction over t yields the cost-to-go matrix opt and the price matrix.

Both solvers, the exact evaluator and ``transition_distribution`` read
their transition tables from one routine, and both solvers apply the same
lowest-price tie rule:

* ``solve_simple`` computes every price's cost one state at a time (the
  reference);
* ``solve_efficient`` scans every price for all states at once, as one
  convolution of the next slice's costs with each price's pmf head.  The
  scan is exact: it assumes nothing about how prices vary with n.

The posted costs then come from one shared pass, one convolution per run of
states that post the same price (``_runs``), so both solvers write the same
opt bits.  ``evaluate_policy_exact`` moves each run's probability mass in one
convolution too; its scalar sums add per-state terms in ascending n, so its
cost does not depend on the run split.

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
    TabulatedAcceptance,
    _require_int,
    grid_from_dict,
    grid_to_dict,
    model_from_dict,
    model_to_dict,
    poisson_tables,
    profile_from_dict,
    profile_to_dict,
    truncation_threshold,  # noqa: F401  (re-exported)
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
        for name in ("n_tasks", "n_intervals", "interval_seconds", "start_offset_seconds"):
            _require_int(name, getattr(self, name))
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
        if isinstance(self.model, TabulatedAcceptance):
            missing = [c for c in self.grid.prices() if c not in self.model.entries]
            if missing:
                raise ValueError(
                    f"tabulated model has no probability for {len(missing)} grid "
                    f"price(s), the first being {missing[0]}"
                )
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
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must be in [0, 1)")
    mu = lambda_t * p
    if mu == 0.0:
        return [(0, 1.0)]
    pmf, tails, caps, _ = _slice_tables(np.array([mu]), n, epsilon)
    out = [(s, float(q)) for s, q in enumerate(pmf[0, : caps[0]])]
    if tails[0, n] > 0.0:
        out.append((n, float(tails[0, n])))
    return out


def _slice_tables(
    mus: np.ndarray, n_max: int, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transition tables out of states n <= N = n_max, one row per mean.

    Returns (pmf, tails, caps, spend): pmf[j, s] for s < N, zeroed from
    cap_j = min(N, s0_j) on (eps = 0 keeps the full support); tails[j, n] =
    Pr(Pois >= n) for n = 0..N; the caps; and the expected completions
    spend[j, n-1] = sum_{s<n} s * pmf[j, s] + n * tails[j, n], not yet
    multiplied by a price.  One kernel call serves every table.
    """
    floor = min(1e-18, eps * 1e-9) if eps > 0.0 else 1e-18
    pmf, tails = poisson_tables(mus, n_max, floor)
    below = tails < eps  # never true when eps == 0
    below[:, n_max] = True  # so the first True is at min(N, s0)
    caps = below.argmax(axis=1)
    pmf[np.arange(n_max) >= caps[:, None]] = 0.0
    spend = np.cumsum(np.arange(n_max) * pmf, axis=1)
    spend += np.arange(1, n_max + 1) * tails[:, 1:]
    return pmf, tails, caps, spend


def _loop_costs(pmf, caps, spend, opt_next) -> np.ndarray:
    """Every price's cost (rows) at every state n = 1..N (columns), one
    state and one price at a time: the continuation
    sum_{s < min(n, cap)} pmf[s] * opt_next[n - s] plus the reward spend."""
    n_max = pmf.shape[1]
    costs = np.empty((len(pmf), n_max))
    for n in range(1, n_max + 1):
        for j, cap in enumerate(caps):
            head = min(n, cap)
            cont = np.dot(pmf[j, :head], opt_next[n : n - head : -1])
            costs[j, n - 1] = cont + spend[j, n - 1]
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


def _runs(choice: np.ndarray):
    """Yield, in ascending n, each run [lo, hi) of states posting one row choice[n - 1]."""
    edges = np.concatenate(([1], np.flatnonzero(np.diff(choice)) + 2, [len(choice) + 1]))
    yield from zip(edges[:-1].tolist(), edges[1:].tolist())


def _backward_induction(problem: DeadlineProblem, slice_costs) -> DeadlinePolicy:
    """Backward induction over time slices.

    slice_costs gives every grid price's cost at every state n >= 1; each
    state posts the lowest price whose cost ties the minimum (1e-12
    relative).  One pass that both solvers share then computes the posted
    costs, so they write the same opt bits for the same prices: the states
    n in [lo, hi) that post row j form a run, whose costs are one
    convolution of opt_next[start:hi], start = max(0, lo - cap_j + 1),
    with the pmf head.
    """
    n_max, horizon = problem.n_tasks, problem.n_intervals
    prices = np.array(problem.grid.prices(), dtype=np.int64)
    acceptance = np.array([problem.model.probability(int(c)) for c in prices])
    price = np.full((n_max + 1, horizon), problem.grid.min_price, dtype=np.int64)
    opt = np.zeros((n_max + 1, horizon + 1))
    opt[:, horizon] = [problem.terminal_cost(n) for n in range(n_max + 1)]
    rates = problem.interval_rates()
    for t in range(horizon - 1, -1, -1):
        pmf, _, caps, spend = _slice_tables(rates[t] * acceptance, n_max, problem.epsilon)
        spend *= prices[:, None]
        opt_next = opt[:, t + 1]
        costs = slice_costs(pmf, caps, spend, opt_next)
        best = costs.min(axis=0)
        choice = np.argmax(costs <= best + _TIE_REL * np.maximum(1.0, np.abs(best)), axis=0)
        price[1:, t] = prices[choice]
        for lo, hi in _runs(choice):
            j = choice[lo - 1]
            cap = int(caps[j])
            start = max(0, lo - cap + 1)
            cont = np.convolve(opt_next[start:hi], pmf[j, :cap])[lo - start : hi - start]
            opt[lo:hi, t] = cont + spend[j, lo - 1 : hi - 1]
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


def _check_shape(problem: DeadlineProblem, policy: DeadlinePolicy) -> None:
    """Reject a policy whose price matrix is not (N+1, N_T) for problem."""
    need = (problem.n_tasks + 1, problem.n_intervals)
    if policy.price.shape != need:
        raise DataError(f"policy/problem dimension mismatch: policy is "
                        f"{policy.price.shape}, problem needs {need}")


def evaluate_policy_exact(
    problem: DeadlineProblem, policy: DeadlinePolicy
) -> PolicyEvaluation:
    """Exact policy evaluation by forward-propagating the state distribution.

    Transitions use the full Poisson support (no truncation) regardless of
    problem.epsilon: the reference cost of running the policy.  Per
    interval, each run [lo, hi) of states posting one price moves its mass
    in one convolution of dist[lo:hi] with the reversed pmf head.  The
    absorbed mass and the cost add per-state terms in ascending n, as a
    state-by-state pass does; a dot product rounded a cost below opt.
    """
    _check_shape(problem, policy)
    n_max = problem.n_tasks
    states = np.arange(1, n_max + 1)
    dist = np.zeros(n_max + 1)
    dist[n_max] = 1.0
    cost = 0.0
    for t, rate in enumerate(problem.interval_rates()):
        posted, rows = np.unique(policy.price[1:, t], return_inverse=True)
        mus = rate * np.array([problem.model.probability(int(c)) for c in posted])
        pmf, tails, _, spend = _slice_tables(mus, n_max, 0.0)
        new = np.zeros(n_max + 1)
        for lo, hi in _runs(rows):
            head = pmf[rows[lo - 1], hi - 2 :: -1]  # pmf[s] for s = hi-2 .. 0
            new[1:hi] += np.convolve(dist[lo:hi], head)[hi - lo - 1 : 2 * hi - lo - 2]
        new[0] = np.cumsum(np.r_[dist[0], dist[1:] * tails[rows, states]])[-1]
        cost = np.cumsum(np.r_[cost, dist[1:] * posted[rows] * spend[rows, states - 1]])[-1]
        dist = new
    remaining = float(np.dot(np.arange(n_max + 1), dist))
    pr_any = float(np.sum(dist[1:]))
    return PolicyEvaluation(
        expected_cost=float(cost), expected_remaining=remaining, pr_any_remaining=pr_any
    )


def _calibrated_solve(
    problem: DeadlineProblem, bound: float, tolerance: float, solver
) -> tuple[float, DeadlineProblem, DeadlinePolicy, PolicyEvaluation]:
    """calibrate_penalty's search.  Returns its last accepted probe as
    (achieved, probe problem, policy, evaluation), so nothing is solved twice."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not (0.0 < tolerance < 1.0):
        raise ValueError("tolerance must be in (0, 1)")

    def achieved_at(pen: float):
        # the program chose this penalty: no warning meant for a user's
        # penalty below grid.max_price
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            probe = replace(problem, penalty=pen)
        policy = solver(probe)
        ev = evaluate_policy_exact(probe, policy)
        # existence_alpha = 0 adds exactly 0.0
        got = ev.expected_remaining + problem.existence_alpha * ev.pr_any_remaining
        return got, probe, policy, ev

    found = achieved_at(0.0)
    if found[0] <= bound:
        return found

    hi = float(max(problem.grid.max_price, 1))
    lo = 0.0
    found = achieved_at(hi)
    while found[0] > bound:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise InfeasibleError(
                f"bound infeasible: expected remaining still {found[0]:.6g} "
                f"> {bound} at penalty 1e9"
            )
        found = achieved_at(hi)

    for _ in range(64):
        if found[0] > bound * (1.0 - tolerance):
            break  # close enough under the bound
        if hi - lo <= 1e-9 * max(1.0, hi):
            break  # interval collapsed onto a jump of the achieved value
        mid = 0.5 * (lo + hi)
        at_mid = achieved_at(mid)
        if at_mid[0] <= bound:
            hi, found = mid, at_mid
        else:
            lo = mid
    return found


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
    achieved, probe, _, _ = _calibrated_solve(problem, bound, tolerance, solver)
    return probe.penalty, achieved


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
    """Read a policy document.  `price` and `opt` may be nested lists, as
    `policy_to_dict` writes them, or numpy rows or matrices; a matrix of the
    policy's dtype is used as it is, not copied.  Every price must lie on
    the problem's grid and every opt entry must be finite."""
    try:
        if int(d["schema_version"]) != SCHEMA_VERSION:
            raise DataError(f"unsupported schema_version {d['schema_version']}")
        problem = problem_from_dict(d["problem"])
        price, opt = np.asarray(d["price"]), np.asarray(d["opt"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad policy document: {exc}") from exc
    rows, cols = problem.n_tasks + 1, problem.n_intervals
    for name, m, shape in (("price", price, (rows, cols)), ("opt", opt, (rows, cols + 1))):
        if m.dtype.kind not in "iuf" or m.shape != shape:
            raise DataError(
                f"policy document: {name} is not a {shape[0]}x{shape[1]} matrix "
                f"of numbers, as the problem needs")
    grid = problem.grid
    with np.errstate(invalid="ignore"):  # NaN and inf prices are off the grid
        on_grid = (price >= grid.min_price) & (price <= grid.max_price) & (
            price % grid.step == grid.min_price % grid.step)
    for name, m, ok, rule in (("price", price, on_grid, "is not on the price grid"),
                              ("opt", opt, np.isfinite(opt), "is not finite")):
        if not ok.all():
            n, t = np.argwhere(~ok)[0]
            raise DataError(f"policy document: {name} {m[n, t]} at (n={n}, t={t}) {rule}")
    policy = DeadlinePolicy(price=price, opt=opt, problem_digest=problem_digest(problem))
    return problem, policy
