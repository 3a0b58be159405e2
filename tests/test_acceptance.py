"""Acceptance gate: one test per release criterion.

Each test carries the `acceptance` marker so the terminal summary prints a
pass/fail line per criterion.  Tolerances and instance designs are frozen;
see the test bodies for the oracle each number was checked against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import cli_env
import crowdpricer as cp
import crowdpricer.budget as budget
import crowdpricer.deadline as deadline
import crowdpricer.estimation as estimation
import crowdpricer.market as market
import crowdpricer.simulate as simulate


def make_biting(rates, n_tasks, c_max, pen_mult):
    """High-rate instance whose Poisson support is wide enough to truncate."""
    probs = np.linspace(0.25, 0.85, c_max + 1)
    model = cp.TabulatedAcceptance({c: float(probs[c]) for c in range(c_max + 1)})
    return cp.DeadlineProblem(
        n_tasks=n_tasks, n_intervals=len(rates), interval_seconds=600,
        profile=cp.ArrivalProfile(bucket_seconds=600, rates=tuple(rates)),
        model=model, grid=cp.PriceGrid(min_price=0, max_price=c_max),
        penalty=float(pen_mult * c_max), epsilon=0.0)


def linspace_market(rates, c_max, p_lo, p_hi, n_tasks):
    probs = np.linspace(p_lo, p_hi, c_max + 1)
    model = cp.TabulatedAcceptance({c: float(probs[c]) for c in range(c_max + 1)})
    return cp.DeadlineProblem(
        n_tasks=n_tasks, n_intervals=len(rates), interval_seconds=900,
        profile=cp.ArrivalProfile(bucket_seconds=900, rates=tuple(rates)),
        model=model, grid=cp.PriceGrid(min_price=0, max_price=c_max),
        epsilon=0.0)


@pytest.mark.acceptance(1, "deadline solver matches enumeration oracles on 50 instances")
def test_deadline_solver_matches_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(50):
        problem, rates, priced_probs, penalty = oracles.random_deadline_instance(
            rng, 30, 8, 12)
        got = deadline.solve_simple(problem).opt[problem.n_tasks][0]
        want = oracles.brute_deadline_opt(
            problem.n_tasks, rates, priced_probs, penalty)[problem.n_tasks][0]
        assert got == pytest.approx(want, abs=1e-9)
    # the recursive oracle itself is certified against true exhaustive
    # enumeration of every state->price mapping, on sizes where that is
    # computable at all
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 6:
        problem, rates, priced_probs, penalty = oracles.random_deadline_instance(
            rng, 3, 2, 3)
        if len(priced_probs) ** (problem.n_tasks * problem.n_intervals) > 200_000:
            continue
        checked += 1
        got = deadline.solve_simple(problem).opt[problem.n_tasks][0]
        want = oracles.enumerate_policies_opt(
            problem.n_tasks, rates, priced_probs, penalty)
        assert got == pytest.approx(want, abs=1e-9)
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(2, "efficient solver equals simple solver and stays under 10 s at day scale")
def test_efficient_solver_equivalence_and_speed(day_problem):
    rng = np.random.default_rng(3141)
    for i in range(100):
        eps = 0.0 if i % 2 == 0 else 1e-9
        problem, *_ = oracles.random_deadline_instance(rng, 60, 6, 10, epsilon=eps)
        a = deadline.solve_simple(problem)
        b = deadline.solve_efficient(problem)
        assert np.max(np.abs(np.asarray(a.opt) - np.asarray(b.opt))) <= 1e-9
        assert np.array_equal(np.asarray(a.price), np.asarray(b.price))
    start = time.perf_counter()
    deadline.solve_efficient(day_problem)
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(3, "truncation keeps Est <= Opt <= Cost ordering within the stated error bound")
def test_truncation_error_bound():
    designs = (([30, 26, 34], 90, 8, 3),
               ([44, 38], 70, 6, 2),
               ([25, 28, 22, 31], 85, 5, 4))
    for rates, n, c_max, pen_mult in designs:
        exact_problem = make_biting(rates, n, c_max, pen_mult)
        opt_exact = deadline.solve_efficient(exact_problem).opt[n][0]
        for eps in (1e-6, 1e-9):
            truncated = dataclasses.replace(exact_problem, epsilon=eps)
            # the band drop must actually engage at this scale; the cheap
            # end of the grid has the narrowest support
            p_low = exact_problem.model.probability(0)
            support = deadline.transition_distribution(n, rates[0], p_low, eps)
            assert len(support) < n + 1
            policy = deadline.solve_efficient(truncated)
            est = policy.opt[n][0]
            ev = deadline.evaluate_policy_exact(exact_problem, policy)
            cost = ev.expected_cost + exact_problem.penalty * ev.expected_remaining
            assert est <= opt_exact <= cost
            assert abs(opt_exact - cost) <= eps * n * len(rates) * c_max


@pytest.mark.acceptance(4, "truncation threshold table values reproduce exactly")
def test_threshold_table():
    assert market.truncation_threshold(10, 1e-9) == 35
    assert market.truncation_threshold(20, 1e-9) == 53
    assert market.truncation_threshold(50, 1e-9) == 99


@pytest.mark.acceptance(5, "simulated worker counts match the sum-of-reciprocals closed form")
def test_static_closed_form_worker_count():
    profile = cp.ArrivalProfile(bucket_seconds=60, rates=(100.0,), periodic=True)
    rng = np.random.default_rng(55)
    for i in range(10):
        c_max = int(rng.integers(4, 11))
        entries_map = oracles.random_tabulated_entries(rng, c_max)
        model = cp.TabulatedAcceptance(entries_map)
        prices = rng.choice(np.arange(c_max + 1), size=int(rng.integers(1, 4)),
                            replace=False)
        alloc = tuple(sorted((int(c), int(rng.integers(1, 5))) for c in prices))
        report = simulate.simulate_budget(
            alloc, profile, model, simulate.SimulationConfig(trials=100_000,
                                                             seed=1000 + i))
        agg = report.aggregates()
        want = budget.expected_worker_arrivals(alloc, model)
        assert abs(agg.mean_workers - want) <= 3 * agg.se_workers


def _hull_bracket(hull, ratio):
    xs = [x for x, _ in hull]
    if ratio >= xs[-1]:
        return xs[-1], xs[-1]
    if ratio <= xs[0]:
        return xs[0], xs[0]
    for lo, hi in zip(xs, xs[1:]):
        if lo <= ratio <= hi:
            return lo, hi
    raise AssertionError("ratio not bracketed")


@pytest.mark.acceptance(6, "LP allocation structure and exact-solver oracle equivalence")
def test_budget_lp_structure_and_exact_oracle():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        c_max = int(rng.integers(3, 13))
        entries_map = oracles.random_tabulated_entries(rng, c_max)
        model = cp.TabulatedAcceptance(entries_map)
        bud = int(rng.integers(0, 301))
        problem = cp.BudgetProblem(
            n_tasks=n, budget=bud, model=model,
            grid=cp.PriceGrid(min_price=0, max_price=c_max),
            mean_rate=float(rng.uniform(5, 60)))
        lp = budget.solve_static_lp(problem)
        exact = budget.solve_static_exact(problem)
        prices = sorted(e[0] for e in lp.entries)
        assert len(prices) <= 2
        assert sum(k for _, k in lp.entries) == n
        assert sum(c * k for c, k in lp.entries) <= bud
        hull = budget.lower_convex_hull(
            [(c, 1.0 / model.probability(c)) for c in range(c_max + 1)])
        c1, c2 = _hull_bracket(hull, bud / n)
        assert set(prices) <= {c1, c2}
        step = 1.0 / model.probability(c1) - 1.0 / model.probability(c2)
        gap = lp.expected_workers - exact.expected_workers
        assert -1e-9 <= gap <= step + 1e-9
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c_max = int(rng.integers(2, 8))
        entries_map = oracles.random_tabulated_entries(rng, c_max)
        model = cp.TabulatedAcceptance(entries_map)
        bud = int(rng.integers(0, 40))
        problem = cp.BudgetProblem(
            n_tasks=n, budget=bud, model=model,
            grid=cp.PriceGrid(min_price=0, max_price=c_max), mean_rate=20.0)
        exact = budget.solve_static_exact(problem)
        want, _ = oracles.brute_budget_exact(
            n, bud, [(c, entries_map[c]) for c in range(c_max + 1)])
        assert exact.expected_workers == pytest.approx(want, rel=1e-9)


@pytest.mark.acceptance(7, "dynamic pricing beats the fixed baseline near the price floor at day scale")
def test_analogue_cost_reduction(day_problem):
    start = time.perf_counter()
    policy = deadline.solve_efficient(day_problem)
    floor = simulate.price_floor_c0(day_problem)
    base_price, base_conf = simulate.baseline_fixed_price(day_problem, 0.999)
    assert base_conf >= 0.999
    exact = deadline.evaluate_policy_exact(day_problem, policy)
    per_task_exact = exact.expected_cost / day_problem.n_tasks
    report = simulate.simulate_deadline(
        day_problem, policy, simulate.SimulationConfig(trials=300, seed=7))
    per_task_sim = report.aggregates().mean_cost / day_problem.n_tasks
    assert base_price > per_task_sim
    assert base_price > per_task_exact
    assert simulate.cost_reduction(base_price, per_task_exact) >= 0.15
    assert per_task_exact <= 1.10 * floor
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(8, "dynamic policy absorbs +-20% model misspecification that breaks the fixed price")
def test_robustness_to_model_misspecification(weekly_profile):
    def make_problem(model):
        return cp.DeadlineProblem(
            n_tasks=80, n_intervals=72, interval_seconds=1200,
            profile=weekly_profile, model=model,
            grid=cp.PriceGrid(min_price=0, max_price=99), penalty=1e5)

    trained = cp.LogisticAcceptance(scale_s=15.0, bias_b=-0.39,
                                    market_mass_m=2000.0)
    trained_problem = make_problem(trained)
    policy = deadline.solve_efficient(trained_problem)
    fixed_price, _ = simulate.baseline_fixed_price(trained_problem, 0.999)
    fixed_policy = simulate.constant_price_policy(trained_problem, fixed_price)
    config = simulate.SimulationConfig(trials=1000, seed=42)
    fixed_rates = []
    for ds, db, dm in itertools.product((0.8, 1.2), repeat=3):
        true_model = cp.LogisticAcceptance(
            scale_s=15.0 * ds, bias_b=-0.39 * db, market_mass_m=2000.0 * dm)
        true_problem = make_problem(true_model)
        dyn = simulate.simulate_deadline(true_problem, policy, config)
        assert dyn.aggregates().completion_rate >= 0.99
        fix = simulate.simulate_deadline(true_problem, fixed_policy, config)
        fixed_rates.append(fix.aggregates().completion_rate)
    assert min(fixed_rates) < 0.95


@pytest.mark.acceptance(9, "penalty calibration is tight against the bound and monotone in it")
def test_penalty_calibration():
    market_a = linspace_market([8, 6, 9, 7], 10, 0.05, 0.90, 10)
    market_b = linspace_market([6, 5, 7, 6, 6], 8, 0.08, 0.75, 12)
    for problem in (market_a, market_b):
        penalties = []
        for bound in (6.0, 3.0, 1.5, 0.75, 0.3):
            penalty, achieved = deadline.calibrate_penalty(problem, bound)
            assert bound * 0.95 < achieved <= bound
            penalties.append(penalty)
        # bounds above are descending, so penalties must not decrease
        assert all(penalties[i] <= penalties[i + 1] for i in range(4))


@pytest.mark.acceptance(10, "choice-model regression fits and the estimation pipeline recovers its generator")
def test_choice_model_and_estimation_recovery(tmp_path):
    curve = simulate.simulate_choice_model(100, 0.02, 20000, range(0, 101), seed=11)
    _, _, r_squared = oracles.fit_logistic_curve(curve)
    assert r_squared > 0.95

    path = tmp_path / "observations.csv"
    path.write_text(
        "wage_per_second,workload_per_hour,task_type\n"
        + "".join(f"{w},{math.exp(809.0 * w + 6.28)},writing\n"
                  for w in (0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003)))
    fit = estimation.fit_wage_utility(estimation.load_observations_csv(str(path)))
    assert fit.linear_coefficient == pytest.approx(809.0, abs=1e-9)
    assert fit.bias == pytest.approx(6.28, abs=1e-9)
    derived = estimation.derive_acceptance_model(
        fit, task_seconds=120.0, market_total_per_hour=6000.0).model
    assert abs(derived.scale_s - 15.0) / 15.0 <= 0.05
    assert abs(derived.market_mass_m - 2000.0) / 2000.0 <= 0.05


def _run_cli(cwd, *argv):
    return subprocess.run([sys.executable, "-m", "crowdpricer", *argv],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())


@pytest.mark.acceptance(11, "every CLI command is byte-deterministic, serial and parallel")
def test_cli_determinism(tmp_path):
    (tmp_path / "arr.csv").write_text(
        "t_seconds,count\n" + "".join(f"{i * 1200},5.0\n" for i in range(3)))
    (tmp_path / "tab.csv").write_text(
        "price_cents,probability\n"
        + "".join(f"{c},{0.10 + 0.08 * c}\n" for c in range(9)))
    (tmp_path / "obs.csv").write_text(
        "wage_per_second,workload_per_hour,task_type\n"
        + "".join(f"{w},{math.exp(809.0 * w + 6.28)},writing\n"
                  for w in (0.001, 0.002, 0.003)))
    prob = ["--tasks", "5", "--deadline-hours", "1", "--intervals", "3",
            "--arrival-csv", "arr.csv", "--acceptance-table", "tab.csv",
            "--max-price", "8", "--epsilon", "0"]
    commands = {
        "pol.json": ["solve-deadline", *prob, "--out", "pol.json"],
        "alloc.json": ["solve-budget", "--tasks", "4", "--budget", "20",
                       "--acceptance-table", "tab.csv", "--max-price", "8",
                       "--mean-rate", "25", "--out", "alloc.json"],
        "sim.json": ["simulate", "--policy", "pol.json", "--trials", "60",
                     "--seed", "3", "--out", "sim.json"],
        "sim_par.json": ["simulate", "--policy", "pol.json", "--trials", "60",
                         "--seed", "3", "--parallel", "--out", "sim_par.json"],
        "fixed.json": ["simulate", "--fixed-price", "4", *prob, "--trials", "60",
                       "--seed", "3", "--out", "fixed.json"],
        "allocsim.json": ["simulate", "--alloc", "alloc.json", "--arrival-csv",
                          "arr.csv", "--periodic", "--trials", "60", "--seed",
                          "3", "--out", "allocsim.json"],
        "base.json": ["baseline", *prob, "--confidence", "0.8",
                      "--compare-policy", "pol.json", "--trials", "60",
                      "--seed", "3", "--out", "base.json"],
        "trade.json": ["tradeoff", "--tasks", "4", "--alpha", "6",
                       "--variant", "arrival", "--rate", "20",
                       "--acceptance-table", "tab.csv", "--max-price", "8",
                       "--out", "trade.json"],
        "prof.json": ["fit", "arrival", "--csv", "arr.csv",
                      "--period-buckets", "3", "--out", "prof.json"],
        "model.json": ["fit", "acceptance", "--csv", "obs.csv",
                       "--task-seconds", "120", "--market-total", "6000",
                       "--out", "model.json"],
    }
    for out_name, argv in commands.items():
        r = _run_cli(tmp_path, *argv)
        assert r.returncode == 0, (argv, r.stderr)
        first = (tmp_path / out_name).read_bytes()
        r = _run_cli(tmp_path, *argv)
        assert r.returncode == 0, (argv, r.stderr)
        assert (tmp_path / out_name).read_bytes() == first, argv
    # parallel execution changes only its own flag in the report
    serial = (tmp_path / "sim.json").read_text()
    parallel = (tmp_path / "sim_par.json").read_text()
    assert serial != parallel
    import json as _json
    a = _json.loads(serial)
    b = _json.loads(parallel)
    assert a["config"]["parallel"] is False and b["config"]["parallel"] is True
    a["config"]["parallel"] = b["config"]["parallel"] = None
    del a["manifest"], b["manifest"]
    assert a == b
