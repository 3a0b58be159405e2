"""Seeded workload generators and the operations each workload times.

This is the one place benchmark inputs are made.  The seed drives every
generator; the program under test receives only the generated inputs (an
arrival CSV written into the work directory, command lines, or problem
objects).  Each workload's ``iteration`` runs its timed operations once and
checks every output it timed.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import DigestStore, OpResult, run_cli, sha256_hex

ARRIVAL_SOURCE = Path("data") / "arrival_weekly.csv"
ACCEPTANCE = "15,-0.39,2000"
BOUND = 0.5
CONFIDENCE = 0.999
# a fixed price for the day problem just below its 0.999 baseline price (12):
# about one trial in twenty leaves tasks unfinished, so the simulated cost has
# a spread its standard error can describe (at 12 nearly every trial costs
# exactly 2400, and the sample SE of so rare an event understates the error)
FIXED_PRICE = 10
SIM_SE_LIMIT = 4.0  # a simulated mean must lie within this many SE of the exact value


# deadline problem shapes: (tasks, deadline hours, intervals, max price)
DAY_SHAPE, TINY_DAY_SHAPE = (200, 24, 72, 50), (20, 2, 6, 50)
LARGE_SHAPE, TINY_LARGE_SHAPE = (700, 24, 144, 100), (30, 2, 12, 100)


def _deadline_flags(tasks, hours, intervals, max_price):
    return [
        "--tasks", str(tasks), "--deadline-hours", str(hours),
        "--intervals", str(intervals), "--arrival-csv", "arrival.csv",
        "--periodic", "--acceptance", ACCEPTANCE, "--max-price", str(max_price),
    ]


def library_problem(cp, workdir: Path, shape) -> object:
    """The deadline problem the CLI builds from the same flags."""
    tasks, hours, intervals, max_price = shape
    profile = cp.load_arrival_csv(str(workdir / "arrival.csv"))
    return cp.DeadlineProblem(
        n_tasks=tasks, n_intervals=intervals, interval_seconds=int(hours * 3600 / intervals),
        profile=cp.ArrivalProfile(profile.bucket_seconds, profile.rates, periodic=True),
        model=cp.LogisticAcceptance(*(float(x) for x in ACCEPTANCE.split(","))),
        grid=cp.PriceGrid(min_price=0, max_price=max_price),
    )


def _near(value: float, target: float, se: float) -> bool:
    return abs(value - target) <= max(SIM_SE_LIMIT * se, 1e-9 * max(1.0, abs(target)))


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of error strings (empty when correct).


def check_policy(doc: dict, docs: dict) -> list[str]:
    """opt = expected_cost + penalty * expected_remaining, within the
    truncation bound epsilon * N * T * max_price; calibrated achieved <= bound."""
    s, p = doc["summary"], doc["problem"]
    tol = p["epsilon"] * p["n_tasks"] * p["n_intervals"] * p["grid"]["max_price"]
    tol += 1e-9 * max(1.0, abs(s["opt_cost_cents"]))
    rhs = s["expected_cost_cents"] + s["penalty_cents"] * s["expected_remaining"]
    errors = []
    if abs(s["opt_cost_cents"] - rhs) > tol:
        errors.append(f"opt {s['opt_cost_cents']!r} != cost + penalty*remaining {rhs!r} (tol {tol:.3g})")
    cal = s["calibration"]
    if cal is not None and not cal["achieved"] <= cal["bound"]:
        errors.append(f"calibrated achieved {cal['achieved']!r} > bound {cal['bound']!r}")
    return errors


def check_baseline(doc: dict, docs: dict) -> list[str]:
    b = doc["baseline"]
    if not b["completion_probability"] >= b["confidence"]:
        return [f"baseline completion {b['completion_probability']!r} < confidence {b['confidence']!r}"]
    return []


def check_policy_sim(doc: dict, docs: dict) -> list[str]:
    """Simulated mean cost within 4 SE of the policy's exact evaluation."""
    exact = docs["solve_deadline"]["summary"]["expected_cost_cents"]
    agg = doc["aggregates"]
    if not _near(agg["mean_cost"], exact, agg["se_cost"]):
        return [f"simulated mean cost {agg['mean_cost']!r} (se {agg['se_cost']!r}) vs exact {exact!r}"]
    return []


def check_allocation(doc: dict, docs: dict) -> list[str]:
    problem, alloc = doc["problem"], doc["allocation"]
    errors = []
    if sum(e["count"] for e in alloc["entries"]) != problem["n_tasks"]:
        errors.append("allocation does not price every task")
    if alloc["total_cost_cents"] > problem["budget"]:
        errors.append(f"allocation spends {alloc['total_cost_cents']} > budget {problem['budget']}")
    return errors


def check_alloc_sim(doc: dict, docs: dict) -> list[str]:
    """Simulated mean workers within 4 SE of the allocation's expected workers."""
    expected = docs["solve_budget_lp"]["allocation"]["expected_workers"]
    agg = doc["aggregates"]
    if not _near(agg["mean_workers"], expected, agg["se_workers"]):
        return [f"simulated mean workers {agg['mean_workers']!r} (se {agg['se_workers']!r}) vs expected {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads driven through crowdpricer.cli.main.


@dataclass
class CliOp:
    label: str
    argv: list[str]
    out: str
    check: object  # (doc, docs of this iteration) -> list[str]
    trials: int = 0


@dataclass
class CliWorkload:
    """Runs a fixed list of CLI commands per iteration in ``workdir``."""

    cp: object
    workdir: Path
    store: DigestStore
    shape: tuple  # the deadline problem's shape, for library calls on it
    ops: list[CliOp] = field(default_factory=list)
    iterations: list[list[OpResult]] = field(default_factory=list)

    def write_inputs(self, root: Path) -> None:
        shutil.copyfile(root / ARRIVAL_SOURCE, self.workdir / "arrival.csv")

    def run_op(self, op: CliOp, docs: dict, argv: list[str] | None = None) -> OpResult:
        argv = op.argv if argv is None else argv
        res = run_cli(self.cp, argv, self.workdir)
        res.label, res.trials = op.label, op.trials
        if res.code != 0:
            res.errors.append(f"exit {res.code}: {res.stderr.strip()[-300:]}")
            return res
        data = (self.workdir / op.out).read_bytes()
        res.digest, res.doc_bytes = sha256_hex(data), len(data)
        doc = json.loads(data)
        docs[op.label] = doc
        try:
            res.errors.extend(op.check(doc, docs))
        except (KeyError, TypeError) as exc:  # a malformed document, or an input op that failed
            res.errors.append(f"cannot check the document: {exc!r}")
        res.errors.extend(self.store.check(argv, res.digest))
        return res

    def iteration(self) -> list[OpResult]:
        docs: dict = {}
        results = [self.run_op(op, docs) for op in self.ops]
        self.iterations.append(results)
        return results


def day(cp, root, workdir, store, seed, tiny):
    """README pipeline at day scale: solve, calibrated solve, baseline, simulate."""
    shape = TINY_DAY_SHAPE if tiny else DAY_SHAPE
    flags = _deadline_flags(*shape)
    trials = 200 if tiny else 5000
    w = CliWorkload(cp, workdir, store, shape, [
        CliOp("solve_deadline", ["solve-deadline", *flags, "--out", "policy.json"], "policy.json", check_policy),
        CliOp("calibrated_solve", ["solve-deadline", *flags, "--bound", str(BOUND), "--out", "policy_bound.json"],
              "policy_bound.json", check_policy),
        CliOp("baseline", ["baseline", *flags, "--confidence", str(CONFIDENCE), "--compare-policy", "policy.json",
                           "--out", "baseline.json"], "baseline.json", check_baseline),
        CliOp("simulate_policy", ["simulate", "--policy", "policy.json", "--trials", str(trials),
                                  "--seed", str(seed), "--out", "sim.json"], "sim.json", check_policy_sim, trials),
    ])
    w.write_inputs(root)
    return w


def large(cp, root, workdir, store, seed, tiny):
    """700 tasks x 144 intervals of 600 s x 101 prices: the grid of the 10x
    case (2000 tasks), with fewer tasks so that a run repeats it three times."""
    shape = TINY_LARGE_SHAPE if tiny else LARGE_SHAPE
    flags = _deadline_flags(*shape)
    w = CliWorkload(cp, workdir, store, shape, [
        CliOp("solve_deadline", ["solve-deadline", *flags, "--out", "policy.json"], "policy.json", check_policy),
        CliOp("baseline", ["baseline", *flags, "--confidence", str(CONFIDENCE), "--compare-policy", "policy.json",
                           "--out", "baseline.json"], "baseline.json", check_baseline),
    ])
    w.write_inputs(root)
    return w


@dataclass
class MonteCarlo(CliWorkload):
    exact_fixed: float | None = None

    def check_fixed_sim(self, doc: dict, docs: dict) -> list[str]:
        """Simulated mean cost within 4 SE of evaluate_fixed_price (computed
        once per process, untimed)."""
        if self.exact_fixed is None:
            problem = library_problem(self.cp, self.workdir, self.shape)
            self.exact_fixed = self.cp.evaluate_fixed_price(problem, FIXED_PRICE).expected_cost
        agg = doc["aggregates"]
        if not _near(agg["mean_cost"], self.exact_fixed, agg["se_cost"]):
            return [f"simulated mean cost {agg['mean_cost']!r} (se {agg['se_cost']!r}) vs exact {self.exact_fixed!r}"]
        return []


def montecarlo(cp, root, workdir, store, seed, tiny):
    """Budget LP and exact DP, then both simulators; the deadline solver idles."""
    tasks, budget = (10, 120) if tiny else (50, 600)
    alloc_trials, fixed_trials = (500, 300) if tiny else (50000, 20000)
    w = MonteCarlo(cp, workdir, store, TINY_DAY_SHAPE if tiny else DAY_SHAPE)
    budget_flags = ["--tasks", str(tasks), "--budget", str(budget), "--acceptance", ACCEPTANCE, "--max-price", "20"]
    w.ops = [
        CliOp("solve_budget_lp", ["solve-budget", *budget_flags, "--out", "alloc.json"], "alloc.json", check_allocation),
        CliOp("solve_budget_exact", ["solve-budget", *budget_flags, "--exact", "--out", "alloc_exact.json"],
              "alloc_exact.json", check_allocation),
        CliOp("simulate_alloc", ["simulate", "--alloc", "alloc.json", "--arrival-csv", "arrival.csv", "--periodic",
                                 "--trials", str(alloc_trials), "--seed", str(seed), "--out", "alloc_sim.json"],
              "alloc_sim.json", check_alloc_sim, alloc_trials),
        CliOp("simulate_fixed", ["simulate", "--fixed-price", str(FIXED_PRICE),
                                 *_deadline_flags(*w.shape), "--trials", str(fixed_trials),
                                 "--seed", str(seed), "--out", "fixed_sim.json"],
              "fixed_sim.json", w.check_fixed_sim, fixed_trials),
    ]
    w.write_inputs(root)
    return w


# ---------------------------------------------------------------------------
# wide-rates: many small deadline instances passed to the library.

# Sizes come from a fixed design that every seed shares (the seed permutes
# which instance gets which size), and rates are stratified over their range,
# so the total work hardly depends on the seed.  Models, penalties,
# existence_alpha and epsilon are drawn from the seed over their full domain,
# and the seed places every size and rate.
_SIZE_DESIGN_KEY = 20140826
RATE_RANGE = (0.2, 3000.0)  # expected arrivals per interval, log-uniform
TABULATED_SHARE, ALPHA_SHARE, EPS0_SHARE = 0.5, 0.3, 0.5


def counterexample(cp):
    """The smallest known instance where solve_efficient differs from
    solve_simple: optimal prices at t=0 are not monotone in n."""
    return cp.DeadlineProblem(
        n_tasks=4, n_intervals=2, interval_seconds=600,
        profile=cp.ArrivalProfile(600, (2.0, 25.5)),
        model=cp.TabulatedAcceptance({0: 0.11, 1: 0.62, 2: 0.94}),
        grid=cp.PriceGrid(0, 2), penalty=4.7, epsilon=0.0,
    )


def wide_rate_instances(cp, seed: int, count: int) -> list:
    n_rand = count - 1
    design = np.random.default_rng(_SIZE_DESIGN_KEY)
    sizes = np.stack([design.integers(2, 41, n_rand), design.integers(1, 13, n_rand),
                      design.integers(2, 22, n_rand)], axis=1)  # N, T, prices
    rng = np.random.default_rng(seed)
    sizes = sizes[rng.permutation(n_rand)]

    def flags(share):
        k = round(share * n_rand)
        return rng.permutation(np.arange(n_rand) < k)

    tabulated, with_alpha, eps0 = flags(TABULATED_SHARE), flags(ALPHA_SHARE), flags(EPS0_SHARE)
    # rates are a Latin-hypercube sample of the log-uniform law: each of the
    # m equal-probability slices holds exactly one rate, placed by the seed
    m = int(sizes[:, 1].sum())
    u = (rng.permutation(m) + rng.random(m)) / m
    lo, hi = math.log(RATE_RANGE[0]), math.log(RATE_RANGE[1])
    rates = np.split(np.exp(lo + u * (hi - lo)), np.cumsum(sizes[:, 1])[:-1])
    out = [counterexample(cp)]
    for i, (n, t, n_prices) in enumerate(sizes.tolist()):
        max_price = n_prices - 1
        if tabulated[i]:
            probs = np.sort(rng.uniform(0.005, 1.0, n_prices))
            model = cp.TabulatedAcceptance({c: float(p) for c, p in enumerate(probs)})
        else:
            model = cp.LogisticAcceptance(
                scale_s=float(math.exp(rng.uniform(0.0, math.log(30.0)))),
                bias_b=float(rng.uniform(-3.0, 3.0)),
                market_mass_m=float(math.exp(rng.uniform(0.0, math.log(5000.0)))),
            )
        out.append(cp.DeadlineProblem(
            n_tasks=n, n_intervals=t, interval_seconds=600,
            profile=cp.ArrivalProfile(600, tuple(rates[i].tolist())),
            model=model, grid=cp.PriceGrid(0, max_price),
            penalty=float(max_price * rng.uniform(1.0, 10.0)),
            existence_alpha=float(rng.uniform(0.1, 3.0)) if with_alpha[i] else 0.0,
            epsilon=0.0 if eps0[i] else 1e-9,
        ))
    return out


@dataclass
class WideRates:
    """solve_efficient + evaluate_policy_exact per instance (timed), compared
    with solve_simple (untimed, recomputed every iteration so that a traced
    iteration sees the reference solver too).

    An instance fails when the efficient policy's opt is not the exact value
    of its own prices (within the truncation bound), when it beats the
    reference optimum anywhere, or when its bytes change between iterations.
    A policy that differs from the reference is the known defect of the
    monotone price search: it is counted in ``mismatches`` and reported with
    ``opt_gap_max_rel``, not failed, so that the run still checks everything
    else on these instances.
    """

    cp: object
    instances: list
    iterations: list[list[OpResult]] = field(default_factory=list)
    first_digests: list[str] = field(default_factory=list)
    opt_gap_max_rel: float = 0.0
    mismatches: set = field(default_factory=set)

    def iteration(self) -> list[OpResult]:
        cp = self.cp
        results = []
        for i, problem in enumerate(self.instances):
            t0 = perf_counter()
            policy = cp.solve_efficient(problem)
            ev = cp.evaluate_policy_exact(problem, policy)
            res = OpResult(label="instance", seconds=perf_counter() - t0)
            res.errors.extend(check_instance(problem, policy, ev, i))
            ref = cp.solve_simple(problem)
            scale = np.maximum(1.0, np.abs(ref.opt))
            gap = float(np.max(np.abs(policy.opt - ref.opt) / scale))
            self.opt_gap_max_rel = max(self.opt_gap_max_rel, gap)
            if np.any(policy.opt < ref.opt - 1e-9 * scale):
                res.errors.append(f"instance {i}: opt below the solve_simple optimum")
            if not np.array_equal(policy.price, ref.price) or gap > 1e-9:
                self.mismatches.add(i)
            res.digest = sha256_hex(policy.price.tobytes() + policy.opt.tobytes())
            if len(self.first_digests) <= i:
                self.first_digests.append(res.digest)
            elif self.first_digests[i] != res.digest:
                res.errors.append(f"instance {i}: policy bytes differ from the first iteration")
            results.append(res)
        self.iterations.append(results)
        return results


def check_instance(problem, policy, ev, i: int) -> list[str]:
    """opt[N, 0] is the exact expected cost of the policy's own prices.

    Truncation drops less than epsilon of mass per transition, and a dropped
    state costs at most N * max_price in rewards plus the terminal cost of N
    tasks, so the two may differ by epsilon * T * that sum.
    """
    n, t = problem.n_tasks, problem.n_intervals
    value = float(ev.expected_cost + problem.penalty * ev.expected_remaining
                  + problem.existence_alpha * problem.penalty * ev.pr_any_remaining)
    opt = float(policy.opt[n, 0])
    tol = problem.epsilon * t * (n * problem.grid.max_price + problem.terminal_cost(n))
    tol += 1e-9 * max(1.0, abs(opt))
    if abs(value - opt) > tol:
        return [f"instance {i}: opt {opt!r} != exact value of its prices {value!r} (tol {tol:.3g})"]
    return []


def wide_rates(cp, root, workdir, store, seed, tiny):
    """400 small instances over the whole input domain; instance 0 is the
    counterexample, so the solver's known defect shows here (as mismatches)."""
    return WideRates(cp, wide_rate_instances(cp, seed, 12 if tiny else 400))


WORKLOADS = {"day": day, "large": large, "wide-rates": wide_rates, "montecarlo": montecarlo}
