"""Deadline-constrained pricing as a finite-horizon MDP.

State (n, t): n tasks remain at the start of interval t.  Posting price c for
interval t completes s ~ Pois(lambda_t * p(c)) tasks (capped at n); each
completion pays c; tasks remaining at the deadline pay a penalty.  Backward
induction over t yields the cost-to-go matrix opt and the price matrix.

The market math lives in ``market.py``: ``interval_rates`` differences the
profile's cumulative intensity at the interval edges, and both solvers, the
exact evaluator and ``transition_distribution`` read their transition
tables from ``market._transition_tables``.  Both solvers apply the same
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
under-estimates cost by at most epsilon * T * (N * max_price +
terminal_cost(N)) (the truncation bound tested in the acceptance suite).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError, DomainError, InfeasibleError, _bad_input
from .jsonstream import numeric_matrix
from .market import (
    AcceptanceModel,
    ArrivalProfile,
    PriceGrid,
    _check_fields,
    _lowest_tie,
    _require_coverage,
    _require_int,
    _require_real,
    _table_floor,
    _transition_tables,
    grid_from_dict,
    grid_to_dict,
    model_from_dict,
    model_to_dict,
    profile_from_dict,
    profile_to_dict,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DeadlineProblem:
    """A batch of n_tasks to finish within n_intervals intervals.

    penalty is the terminal cost per unfinished task (cents).  The terminal
    cost is (n + existence_alpha) * penalty for n > 0: alpha charges an extra
    fixed cost for finishing incomplete at all, and alpha = 0 adds exactly 0.
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
        if self.penalty is None:
            object.__setattr__(self, "penalty", 10.0 * self.grid.max_price)
        _check_fields(self, n_tasks=int, n_intervals=int, interval_seconds=int,
                      start_offset_seconds=int, penalty=float, existence_alpha=float,
                      epsilon=float)
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.start_offset_seconds < 0:
            raise ValueError("start_offset_seconds must be >= 0")
        end = self.start_offset_seconds + self.n_intervals * self.interval_seconds
        if end > 2**53:  # the interval edges are float seconds, whole only below this
            raise ValueError(f"the horizon ends at {end} s, past 2**53 s")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must be in [0, 1); 0 disables truncation")
        _table_floor(self.epsilon)
        if not (self.existence_alpha >= 0 and np.isfinite(self.existence_alpha)):
            raise ValueError("existence_alpha must be finite and >= 0")
        _require_coverage(self.model, self.grid)
        if not (self.penalty >= 0 and np.isfinite(self.penalty)):
            raise ValueError("penalty must be finite and >= 0")
        top = self.terminal_cost(self.n_tasks) + 2 * self.n_tasks * self.grid.max_price
        if not np.isfinite(top):  # no cost the solvers form exceeds this one
            raise ValueError(
                f"penalty {self.penalty} with existence_alpha {self.existence_alpha} "
                f"gives costs past the float range for {self.n_tasks} tasks"
            )
        if 0 < self.penalty < self.grid.max_price:
            # level 3 skips the generated __init__ and names the caller
            warnings.warn(
                f"penalty {self.penalty} below grid.max_price "
                f"{self.grid.max_price}: top prices can never pay off",
                stacklevel=3,
            )

    def interval_rates(self) -> np.ndarray:
        """Expected arrivals per interval: differences of the profile's
        cumulative intensity at the interval edges."""
        steps = np.arange(self.n_intervals + 1.0)
        edges = self.start_offset_seconds + self.interval_seconds * steps
        return np.diff(self.profile._cumulative(edges))

    def terminal_cost(self, n: int) -> float:
        return 0.0 if n == 0 else (n + self.existence_alpha) * self.penalty


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
    pmf, tails, caps, _ = _transition_tables(np.array([mu]), n, epsilon)
    out = [(s, float(q)) for s, q in enumerate(pmf[0, : caps[0]])]
    if tails[0, n] > 0.0:
        out.append((n, float(tails[0, n])))
    return out


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
    state posts the lowest price whose cost ties the minimum
    (``market._lowest_tie``).  One pass that both solvers share then
    computes the posted costs, so they write the same opt bits for the same
    prices: the states n in [lo, hi) that post row j form a run, whose
    costs are one convolution of opt_next[start:hi],
    start = max(0, lo - cap_j + 1), with the pmf head.
    """
    n_max, horizon = problem.n_tasks, problem.n_intervals
    prices = np.array(problem.grid.prices(), dtype=np.int64)
    acceptance = np.array([problem.model.probability(int(c)) for c in prices])
    price = np.full((n_max + 1, horizon), problem.grid.min_price, dtype=np.int64)
    opt = np.zeros((n_max + 1, horizon + 1))
    opt[:, horizon] = [problem.terminal_cost(n) for n in range(n_max + 1)]
    rates = problem.interval_rates()
    for t in range(horizon - 1, -1, -1):
        pmf, tails, caps, spend = _transition_tables(rates[t] * acceptance, n_max, problem.epsilon)
        spend *= prices[:, None]
        opt_next = opt[:, t + 1]
        costs = slice_costs(pmf, caps, spend, opt_next)
        choice = _lowest_tie(costs)
        price[1:, t] = prices[choice]
        for lo, hi in _runs(choice):
            j = choice[lo - 1]
            cap = int(caps[j])
            start = max(0, lo - cap + 1)
            cont = np.convolve(opt_next[start:hi], pmf[j, :cap])[lo - start : hi - start]
            opt[lo:hi, t] = cont + spend[j, lo - 1 : hi - 1]
        del pmf, tails, caps, spend, costs  # before the next slice's are built
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
    pr_any_remaining: float  # at most 1, though a sum of the masses can round past it

    def __post_init__(self) -> None:
        object.__setattr__(self, "pr_any_remaining", min(self.pr_any_remaining, 1.0))


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
        pmf, tails, _, spend = _transition_tables(mus, n_max, 0.0)
        new = np.zeros(n_max + 1)
        for lo, hi in _runs(rows):
            head = pmf[rows[lo - 1], hi - 2 :: -1]  # pmf[s] for s = hi-2 .. 0
            new[1:hi] += np.convolve(dist[lo:hi], head)[hi - lo - 1 : 2 * hi - lo - 2]
        new[0] = np.cumsum(np.r_[dist[0], dist[1:] * tails[rows, states]])[-1]
        cost = np.cumsum(np.r_[cost, dist[1:] * posted[rows] * spend[rows, states - 1]])[-1]
        dist = new
        del pmf, tails, spend, head  # before the next slice's are built
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
    if not (0.0 <= bound < np.inf):
        raise DomainError(f"bound must be finite and >= 0, got {bound}")
    if not (0.0 < tolerance < 1.0):
        raise DomainError(f"bound tolerance must be in (0, 1), got {tolerance}")

    def achieved_at(pen: float):
        # the program chose this penalty: no warning meant for a user's
        # penalty below grid.max_price, but a bad problem if its costs overflow
        with warnings.catch_warnings(), _bad_input("bad problem: calibration probe: "):
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
    """One member per field: the profile, model and grid as their documents."""
    doc = {f.name: getattr(problem, f.name) for f in fields(problem)}
    doc.update(profile=profile_to_dict(problem.profile), model=model_to_dict(problem.model),
               grid=grid_to_dict(problem.grid))
    return doc


def problem_from_dict(d: dict) -> DeadlineProblem:
    """The problem a document describes.  Values reach the constructors as
    they are, so a fractional count, a non-bool flag or a string number is
    rejected; so is a null penalty, which the constructor reads as its default."""
    # a low penalty was warned about, if at all, when the document was solved
    with (_bad_input("bad deadline problem document: ", (KeyError, TypeError, ValueError)),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore", UserWarning)
        return DeadlineProblem(
            n_tasks=d["n_tasks"],
            n_intervals=d["n_intervals"],
            interval_seconds=d["interval_seconds"],
            start_offset_seconds=d.get("start_offset_seconds", 0),
            penalty=_require_real("penalty", d["penalty"]),
            existence_alpha=d.get("existence_alpha", 0.0),
            epsilon=d.get("epsilon", 1e-9),
            profile=profile_from_dict(d["profile"]),
            model=model_from_dict(d["model"]),
            grid=grid_from_dict(d["grid"]),
        )


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
    """Read a policy document.  `price` and `opt` may be numpy matrices,
    used as they are, not copied, or lists of rows, as `policy_to_dict` writes
    them, each a list of numbers or a numpy row: `jsonstream.numeric_matrix`
    reads such a list as `cli._read_json` reads its JSON text, so a bool is
    not a number.  Every price must lie on the problem's grid and every opt
    entry must be finite."""
    with _bad_input("bad policy document: ", (KeyError, TypeError, ValueError)):
        if _require_int("schema_version", d["schema_version"]) != SCHEMA_VERSION:
            raise DataError(f"unsupported schema_version {d['schema_version']}")
        problem = problem_from_dict(d["problem"])
        price, opt = (numeric_matrix(m) if isinstance(m := d[k], list) else m
                      for k in ("price", "opt"))
    rows, cols = problem.n_tasks + 1, problem.n_intervals
    for name, m, shape in (("price", price, (rows, cols)), ("opt", opt, (rows, cols + 1))):
        if not (isinstance(m, np.ndarray) and m.dtype.kind in "iuf" and m.shape == shape):
            raise DataError(
                f"policy document: {name} is not a {shape[0]}x{shape[1]} matrix "
                f"of numbers, as the problem needs")
    grid = problem.grid
    with np.errstate(invalid="ignore"):  # NaN and inf prices are off the grid
        on_grid = (price >= grid.min_price) & (price <= grid.max_price)
        if price.dtype.kind == "f" or grid.step > 1:  # whole prices are all on a step of 1
            on_grid &= price % grid.step == grid.min_price % grid.step
    for name, m, ok, rule in (("price", price, on_grid, "is not on the price grid"),
                              ("opt", opt, np.isfinite(opt), "is not finite")):
        if not ok.all():
            n, t = np.argwhere(~ok)[0]
            raise DataError(f"policy document: {name} {m[n, t]} at (n={n}, t={t}) {rule}")
    policy = DeadlinePolicy(price=price, opt=opt, problem_digest=problem_digest(problem))
    return problem, policy
