"""Monte Carlo simulators, fixed-price baseline, and choice-model generator."""

import csv
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from crowdpricer import (
    ArrivalProfile,
    DataError,
    DeadlineProblem,
    FixedPrice,
    InfeasibleError,
    LogisticAcceptance,
    PriceGrid,
    SimulationConfig,
    StaticAllocation,
    TabulatedAcceptance,
    baseline_fixed_price,
    completion_probability_fixed,
    constant_price_policy,
    cost_reduction,
    evaluate_policy_exact,
    evaluate_fixed_price,
    expected_worker_arrivals,
    price_floor_c0,
    simulate_budget,
    simulate_choice_model,
    simulate_deadline,
    solve_simple,
)
from crowdpricer.errors import DomainError
from crowdpricer.simulate import SimulationReport, report_to_dict, write_trials_csv

# two-sided 99.9% point of chi-square, df = 6
CHI2_999_DF6 = 22.458


def toy_problem(**overrides):
    kwargs = dict(
        n_tasks=5,
        n_intervals=3,
        interval_seconds=600,
        profile=ArrivalProfile(600, (2.5, 1.5, 3.0)),
        model=TabulatedAcceptance({c: 0.1 + 0.1 * c for c in range(7)}),
        grid=PriceGrid(0, 6),
        penalty=30.0,
        epsilon=0.0,
    )
    kwargs.update(overrides)
    return DeadlineProblem(**kwargs)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        prob = toy_problem()
        policy = solve_simple(prob)
        cfg = SimulationConfig(trials=300, seed=12345)
        a = report_to_dict(simulate_deadline(prob, policy, cfg), include_per_trial=True)
        b = report_to_dict(simulate_deadline(prob, policy, cfg), include_per_trial=True)
        assert a == b

    @staticmethod
    def _comparable(report):
        # the config block records the run's own parallel flag; everything
        # else must be invariant under parallelism
        doc = report_to_dict(report, include_per_trial=True)
        del doc["config"]["parallel"]
        return doc

    def test_parallel_equals_serial(self):
        prob = toy_problem()
        policy = solve_simple(prob)
        serial = simulate_deadline(
            prob, policy, SimulationConfig(trials=200, seed=5, parallel=False))
        parallel = simulate_deadline(
            prob, policy, SimulationConfig(trials=200, seed=5, parallel=True))
        assert self._comparable(serial) == self._comparable(parallel)

    def test_budget_parallel_equals_serial(self):
        model = TabulatedAcceptance({2: 0.3, 5: 0.7})
        profile = ArrivalProfile(300, (3.0,), periodic=True)
        serial = simulate_budget(
            ((5, 2), (2, 2)), profile, model,
            SimulationConfig(trials=150, seed=9, parallel=False))
        parallel = simulate_budget(
            ((5, 2), (2, 2)), profile, model,
            SimulationConfig(trials=150, seed=9, parallel=True))
        assert self._comparable(serial) == self._comparable(parallel)

    def test_seed_changes_output(self):
        prob = toy_problem()
        policy = solve_simple(prob)
        a = simulate_deadline(prob, policy, SimulationConfig(trials=100, seed=1))
        b = simulate_deadline(prob, policy, SimulationConfig(trials=100, seed=2))
        assert report_to_dict(a, include_per_trial=True) != report_to_dict(
            b, include_per_trial=True)


class TestSimulateDeadline:
    def test_saturated_market(self):
        prob = toy_problem(
            profile=ArrivalProfile(600, (500.0, 500.0, 500.0)),
            model=TabulatedAcceptance({c: 1.0 for c in range(7)}))
        rep = simulate_deadline(prob, FixedPrice(4), SimulationConfig(trials=64, seed=0))
        ag = rep.aggregates()
        assert ag.completion_rate == 1.0
        assert ag.mean_cost == 5 * 4
        for t in rep.per_trial:
            assert t.total_cost == 20
            assert t.completion_seconds == 600

    def test_dead_market(self):
        prob = toy_problem(profile=ArrivalProfile(600, (0.0, 0.0, 0.0)))
        rep = simulate_deadline(prob, FixedPrice(4), SimulationConfig(trials=32, seed=0))
        ag = rep.aggregates()
        assert ag.completion_rate == 0.0
        assert ag.mean_cost == 0.0
        assert ag.mean_remaining == 5.0
        assert ag.mean_completion_seconds is None

    def test_fixed_price_cost_accounting(self):
        prob = toy_problem()
        rep = simulate_deadline(prob, FixedPrice(3), SimulationConfig(trials=500, seed=8))
        for t in rep.per_trial:
            assert t.total_cost == (5 - t.remaining_tasks) * 3
            assert 0 <= t.remaining_tasks <= 5

    def test_completion_times_on_interval_boundaries(self):
        prob = toy_problem()
        policy = solve_simple(prob)
        rep = simulate_deadline(prob, policy, SimulationConfig(trials=400, seed=4))
        for t in rep.per_trial:
            if t.completion_seconds is not None:
                assert t.completion_seconds % 600 == 0
                assert 600 <= t.completion_seconds <= 1800
            else:
                assert t.remaining_tasks > 0

    def test_matches_exact_evaluator(self):
        prob = DeadlineProblem(
            n_tasks=3, n_intervals=2, interval_seconds=600,
            profile=ArrivalProfile(600, (2.0, 1.5)),
            model=TabulatedAcceptance({c: 0.1 + 0.1 * c for c in range(6)}),
            grid=PriceGrid(0, 5), penalty=25.0, epsilon=0.0)
        policy = solve_simple(prob)
        rep = simulate_deadline(prob, policy, SimulationConfig(trials=10**6, seed=7))
        ag = rep.aggregates()
        ev = evaluate_policy_exact(prob, policy)
        assert abs(ag.mean_cost - ev.expected_cost) <= 3 * ag.se_cost
        assert abs(ag.mean_remaining - ev.expected_remaining) <= 3 * ag.se_remaining

    def test_dimension_mismatch_rejected(self):
        prob = toy_problem()
        other = toy_problem(n_tasks=7)
        policy = solve_simple(other)
        with pytest.raises(DataError, match="dimension mismatch"):
            simulate_deadline(prob, policy, SimulationConfig(trials=5, seed=0))
        with pytest.raises(DataError, match="dimension mismatch"):
            evaluate_policy_exact(prob, policy)

    def test_aggregates_recomputable_from_trials(self):
        prob = toy_problem()
        rep = simulate_deadline(
            prob, solve_simple(prob), SimulationConfig(trials=250, seed=77))
        ag = rep.aggregates()
        costs = np.array([t.total_cost for t in rep.per_trial], dtype=np.float64)
        assert ag.mean_cost == float(np.mean(costs))
        assert ag.se_cost == float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
        done = [t for t in rep.per_trial if t.completion_seconds is not None]
        assert ag.completion_rate == len(done) / len(rep.per_trial)


class TestSimulateBudget:
    def test_single_task_certain_acceptance(self):
        # p = 1: the first arrival takes the task, so the completion time is
        # exponential with the profile's rate and exactly one worker shows up.
        model = TabulatedAcceptance({4: 1.0})
        profile = ArrivalProfile(100, (2.0,), periodic=True)
        rep = simulate_budget(
            ((4, 1),), profile, model, SimulationConfig(trials=20000, seed=13))
        ag = rep.aggregates()
        assert ag.mean_workers == 1.0
        assert ag.completion_rate == 1.0
        assert ag.mean_cost == 4.0
        want_mean = 100.0 / 2.0
        assert abs(ag.mean_completion_seconds - want_mean) <= 3 * ag.se_completion_seconds

    def test_worker_count_matches_closed_form(self):
        model = TabulatedAcceptance({3: 0.4, 6: 0.8})
        profile = ArrivalProfile(60, (5.0,), periodic=True)
        # the second allocation has so many tasks that a block holds fewer trials
        for entries in (((6, 3), (3, 2)), ((6, 300), (3, 200))):
            rep = simulate_budget(
                entries, profile, model, SimulationConfig(trials=10000, seed=21))
            ag = rep.aggregates()
            want = sum(k / model.probability(c) for c, k in entries)
            assert abs(ag.mean_workers - want) <= 3 * ag.se_workers

    def test_higher_prices_are_taken_first(self):
        # exhaust a non-periodic profile so trials stop mid-allocation; any
        # partial cost must then be a prefix sum of the descending price list
        model = TabulatedAcceptance({5: 0.5, 9: 0.5})
        profile = ArrivalProfile(200, (1.5, 1.5), periodic=False)
        entries = ((5, 2), (9, 3))
        rep = simulate_budget(
            entries, profile, model, SimulationConfig(trials=3000, seed=33))
        prefix = [0, 9, 18, 27, 32, 37]
        saw_partial = False
        for t in rep.per_trial:
            taken = 5 - t.remaining_tasks
            assert t.total_cost == prefix[taken]
            if t.remaining_tasks > 0:
                saw_partial = True
                assert t.completion_seconds is None
        assert saw_partial

    def test_periodic_time_change_skips_zero_rate_buckets(self):
        # one task at p = 1: the completion time is the first arrival, so
        # Pr(done by t) = 1 - exp(-Lambda(t)).  Bins: the two live buckets of
        # periods 0..2, then the tail; the dead buckets hold no probability.
        profile = ArrivalProfile(100, (0.0, 0.9, 0.0, 0.3, 0.0), periodic=True)
        trials = 20000
        rep = simulate_budget(
            ((4, 1),), profile, TabulatedAcceptance({4: 1.0}),
            SimulationConfig(trials=trials, seed=17))
        t = rep.completion
        assert not np.any(np.isnan(t))
        bucket = (t // 100) % 5
        assert not np.any(np.isin(bucket, (0, 2, 4)) & (t % 100 > 0))
        period, within = np.divmod(t, 500)
        observed = np.bincount(
            np.minimum(2 * period + (within >= 300), 6).astype(int), minlength=7)
        edges = np.array([0.0, 0.9, 1.2, 2.1, 2.4, 3.3, 3.6, np.inf])
        expected = trials * -np.diff(np.exp(-edges))
        assert np.sum((observed - expected) ** 2 / expected) < CHI2_999_DF6

    def test_non_periodic_completion_rate_is_poisson_tail(self):
        # k tasks at p = 1 finish by time t iff the profile brings at least k
        # arrivals by then: Pr = Pr(Pois(Lambda(t)) >= k)
        profile = ArrivalProfile(60, (1.0, 0.0, 2.5), periodic=False)
        k, trials = 4, 20000
        rep = simulate_budget(
            ((3, k),), profile, TabulatedAcceptance({3: 1.0}),
            SimulationConfig(trials=trials, seed=29))

        def tail(lam):
            return 1.0 - sum(math.exp(-lam) * lam**j / math.factorial(j) for j in range(k))

        want = tail(3.5)
        se = math.sqrt(want * (1.0 - want) / trials)
        assert abs(rep.aggregates().completion_rate - want) <= 3 * se
        t = rep.completion[~np.isnan(rep.completion)]
        assert np.all((t >= 0) & (t <= 180))
        assert not np.any((t > 60) & (t < 120))
        for seconds, lam in ((60, 1.0), (150, 2.25)):
            want = tail(lam)
            se = math.sqrt(want * (1.0 - want) / trials)
            assert abs(np.sum(t <= seconds) / trials - want) <= 3 * se

    def test_long_horizon_simulates(self):
        # about 1e4 arrivals at 1e-4 per hour: some 1e8 periods of the profile,
        # which one Gamma draw per trial reaches as cheaply as a short horizon
        model = TabulatedAcceptance({1: 0.001})
        profile = ArrivalProfile(3600, (0.0001,), periodic=True)
        entries = ((1, 10),)
        ag = simulate_budget(
            entries, profile, model, SimulationConfig(trials=20000, seed=1)).aggregates()
        want = expected_worker_arrivals(entries, model)
        assert ag.completion_rate == 1.0
        assert abs(ag.mean_workers - want) <= 3 * ag.se_workers
        want_seconds = want * 3600 / 0.0001
        assert abs(ag.mean_completion_seconds - want_seconds) <= 3 * ag.se_completion_seconds

    def test_periodic_cost_and_remaining_are_read_only_constants(self):
        # every periodic trial finishes, so both columns hold one value
        model = TabulatedAcceptance({5: 0.5, 9: 0.7})
        profile = ArrivalProfile(200, (1.5, 0.0, 2.5), periodic=True)
        rep = simulate_budget(((5, 2), (9, 3)), profile, model,
                              SimulationConfig(trials=3000, seed=33))
        assert rep.cost.dtype == rep.remaining.dtype == np.int64
        assert rep.cost.shape == rep.remaining.shape == (3000,)
        assert np.all(rep.cost == 2 * 5 + 3 * 9) and np.all(rep.remaining == 0)
        for column in (rep.cost, rep.remaining):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert not np.isnan(rep.completion).any()

    def test_unsimulable_inputs_rejected(self):
        model = TabulatedAcceptance({1: 1e-13, 2: 0.5})
        with pytest.raises(DataError):  # a periodic profile with no arrivals
            simulate_budget(((2, 2),), ArrivalProfile(60, (0.0, 0.0), periodic=True),
                            model, SimulationConfig(trials=2, seed=1))
        with pytest.raises(DataError, match=r"price effectively dead: p\(1\) = 1e-13"):
            simulate_budget(((1, 1),), ArrivalProfile(60, (1.0,), periodic=True),
                            model, SimulationConfig(trials=2, seed=1))

    def test_empty_allocation_rejected(self):
        model = TabulatedAcceptance({1: 0.5})
        profile = ArrivalProfile(60, (1.0,), periodic=True)
        with pytest.raises(ValueError):
            simulate_budget((), profile, model, SimulationConfig(trials=2, seed=1))

    @pytest.mark.parametrize("entries, reason", [
        (((11, 0),), r"bad allocation entry \(11, 0\)"),
        (((-1, 2),), r"bad allocation entry \(-1, 2\)"),
        ((), "allocation needs at least one entry"),
        (((11, 2.7), (12, 2)), "count must be an integer, got 2.7"),
        (((12.9, 2),), "price must be an integer, got 12.9"),
        (((11, True),), "count must be an integer, got True"),
    ], ids=["count-0", "price-negative", "empty", "count-2.7", "price-12.9", "count-true"])
    def test_allocation_entries_one_rule(self, entries, reason):
        """StaticAllocation and simulate_budget share one strict entry check:
        nothing is truncated, and a breach is a DomainError (a ValueError)."""
        model = TabulatedAcceptance({11: 0.5, 12: 0.5})
        profile = ArrivalProfile(60, (1.0,), periodic=True)
        with pytest.raises(DomainError, match=reason):
            StaticAllocation(entries, expected_workers=1.0, expected_latency_hours=1.0)
        with pytest.raises(DomainError, match=reason):
            simulate_budget(entries, profile, model, SimulationConfig(trials=2, seed=1))


class TestSimulatorAgreement:
    def test_interval_and_event_level_agree_chi_square(self):
        # constant price, one interval: completion counts from both simulators
        # come from the same law; two-sample homogeneity test on 7 bins
        model = TabulatedAcceptance({3: 0.5})
        prob = DeadlineProblem(
            n_tasks=6, n_intervals=1, interval_seconds=900,
            profile=ArrivalProfile(900, (4.0,)),
            model=model, grid=PriceGrid(3, 3), penalty=30.0, epsilon=0.0)
        trials = 10**5
        rep_i = simulate_deadline(
            prob, FixedPrice(3), SimulationConfig(trials=trials, seed=101))
        rep_e = simulate_budget(
            ((3, 6),), ArrivalProfile(900, (4.0,)), model,
            SimulationConfig(trials=trials, seed=202))
        ci = np.bincount([6 - t.remaining_tasks for t in rep_i.per_trial], minlength=7)
        ce = np.bincount([6 - t.remaining_tasks for t in rep_e.per_trial], minlength=7)
        stat = 0.0
        for b in range(7):
            tot = ci[b] + ce[b]
            e1 = tot / 2.0
            stat += (ci[b] - e1) ** 2 / e1 + (ce[b] - e1) ** 2 / e1
        assert stat < CHI2_999_DF6


class TestBaselineFixedPrice:
    def test_zero_confidence_returns_min_price(self):
        prob = toy_problem()
        price, achieved = baseline_fixed_price(prob, 0.0)
        assert price == prob.grid.min_price
        assert achieved == completion_probability_fixed(prob, price)

    def test_bracketing(self):
        prob = toy_problem(
            n_tasks=8,
            profile=ArrivalProfile(600, (6.0, 6.0, 6.0)),
            grid=PriceGrid(0, 6))
        conf = 0.75
        price, achieved = baseline_fixed_price(prob, conf)
        assert achieved >= conf
        assert achieved == completion_probability_fixed(prob, price)
        below = [completion_probability_fixed(prob, c) for c in prob.grid.prices() if c < price]
        assert all(pr < conf for pr in below), below

    @pytest.mark.parametrize("seed, confidence, want", [
        (25, 2.220446049250313e-16, 1), (279, 1.1102230246251565e-16, 2)])
    def test_probability_that_falls_by_an_ulp(self, seed, confidence, want):
        # the computed probability is not monotone in price: on seed 25 it
        # reads 2.2e-16 at price 1 and 1.1e-16 at price 2, and on seed 279
        # 1.1e-16 at price 2 and 0 at the max price
        prob = oracles.random_deadline_instance(np.random.default_rng(seed), 25, 6, 10)[0]
        got = baseline_fixed_price(prob, confidence)
        assert got == (want, completion_probability_fixed(prob, want))

    def test_unreachable_confidence(self):
        prob = toy_problem(profile=ArrivalProfile(600, (0.01, 0.01, 0.01)))
        with pytest.raises(InfeasibleError):
            baseline_fixed_price(prob, 0.99)

    def test_confidence_must_be_below_one(self):
        prob = toy_problem()
        with pytest.raises(ValueError):
            baseline_fixed_price(prob, 1.0)
        with pytest.raises(ValueError):
            baseline_fixed_price(prob, -0.1)

    def test_fixed_price_helpers_are_consistent(self):
        prob = toy_problem()
        policy = constant_price_policy(prob, 4)
        assert np.all(policy.price[1:, :-1] == 4)
        ev_fixed = evaluate_fixed_price(prob, 4)
        ev_policy = evaluate_policy_exact(prob, policy)
        assert ev_fixed.expected_cost == pytest.approx(ev_policy.expected_cost, abs=1e-12)
        assert ev_fixed.expected_remaining == pytest.approx(
            ev_policy.expected_remaining, abs=1e-12)
        assert ev_fixed.pr_any_remaining == pytest.approx(
            ev_policy.pr_any_remaining, abs=1e-12)

    def test_top_price_leaves_nothing_remaining(self, day_problem):
        # at the top price of the day problem Pr(any remaining) is below
        # 1e-300; 1 - Pr(Pois >= N) would give about 3e-11
        ev = evaluate_fixed_price(day_problem, day_problem.grid.max_price)
        assert ev.pr_any_remaining < 1e-300
        assert ev.expected_remaining < 1e-300
        assert ev.expected_cost == day_problem.n_tasks * day_problem.grid.max_price


@st.composite
def fixed_price_problems(draw):
    """Deadline problems over the closed form's whole domain: zero-rate
    intervals, periodic or finite profiles, start offsets, both models."""
    n_intervals = draw(st.integers(1, 24))
    interval_seconds = draw(st.sampled_from([300, 600, 1200]))
    offset = draw(st.integers(0, 6)) * 300
    periodic = draw(st.booleans())
    need = -(-(offset + n_intervals * interval_seconds) // 600)  # buckets covered
    n_buckets = draw(st.integers(1, 30)) if periodic else need + draw(st.integers(0, 3))
    rate = st.one_of(
        st.just(0.0), st.floats(0.0, 3000.0), st.floats(0.0, 3.0), st.floats(0.0, 1e-6))
    rates = draw(st.lists(rate, min_size=n_buckets, max_size=n_buckets))
    max_price = draw(st.integers(0, 6))
    if draw(st.booleans()):
        probs = sorted(draw(st.lists(
            st.floats(1e-6, 1.0), min_size=max_price + 1, max_size=max_price + 1)))
        model = TabulatedAcceptance(dict(enumerate(probs)))
    else:
        model = LogisticAcceptance(
            scale_s=draw(st.floats(0.5, 30.0)),
            bias_b=draw(st.floats(-5.0, 5.0)),
            market_mass_m=draw(st.floats(0.0, 5000.0)))
    return DeadlineProblem(
        n_tasks=draw(st.integers(1, 300)), n_intervals=n_intervals,
        interval_seconds=interval_seconds,
        profile=ArrivalProfile(600, tuple(rates), periodic=periodic),
        model=model, grid=PriceGrid(0, max_price), penalty=10.0 * max(max_price, 1),
        start_offset_seconds=offset, epsilon=0.0)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(fixed_price_problems())
def test_closed_form_matches_forward_evaluation(problem):
    for price in problem.grid.prices():
        closed = evaluate_fixed_price(problem, price)
        forward = evaluate_policy_exact(problem, constant_price_policy(problem, price))
        for field in ("expected_cost", "expected_remaining", "pr_any_remaining"):
            got, want = getattr(closed, field), getattr(forward, field)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (price, field, got, want)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(fixed_price_problems(), st.data())
def test_baseline_is_the_smallest_price_that_meets_the_confidence(problem, data):
    """Confidences are drawn from the problem's own computed probabilities and
    the next float above each, where the probability can fall by an ulp from
    one price to the next; InfeasibleError only when no grid price meets one."""
    prices = list(problem.grid.prices())
    prs = [completion_probability_fixed(problem, c) for c in prices]
    confidences = {x for pr in prs for x in (pr, math.nextafter(pr, 1.0)) if x < 1.0}
    confidence = data.draw(st.sampled_from(sorted(confidences | {0.0})))
    meets = [(c, pr) for c, pr in zip(prices, prs) if pr >= confidence]
    if meets:
        assert baseline_fixed_price(problem, confidence) == meets[0]
    else:
        with pytest.raises(InfeasibleError):
            baseline_fixed_price(problem, confidence)


class TestPriceFloor:
    def test_flat_curve_floors_at_min_price(self):
        prob = toy_problem(
            n_tasks=4,
            profile=ArrivalProfile(600, (5.0, 5.0, 5.0)),
            model=TabulatedAcceptance({c: 4.0 / 15.0 for c in range(7)}))
        assert price_floor_c0(prob) == float(prob.grid.min_price)

    def test_logistic_floor_solves_defining_equation(self):
        prob = toy_problem(
            n_tasks=6,
            model=LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0),
            profile=ArrivalProfile(600, (120.0, 100.0, 110.0)),
            grid=PriceGrid(0, 50), penalty=None)
        c0 = price_floor_c0(prob)
        total = 120.0 + 100.0 + 110.0
        assert prob.model.probability(c0) == pytest.approx(6.0 / total, abs=1e-9)

    def test_logistic_floor_above_the_grid(self):
        # p(max_price) is below the target, so the search doubles past the grid
        prob = toy_problem(
            n_tasks=6,
            model=LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0),
            profile=ArrivalProfile(600, (30.0, 30.0, 30.0)),
            grid=PriceGrid(0, 5), penalty=None)
        c0 = price_floor_c0(prob)
        assert c0 > 4 * prob.grid.max_price
        assert prob.model.probability(c0) == pytest.approx(6.0 / 90.0, abs=1e-9)

    def test_logistic_floor_past_1e12_is_marked_infeasible(self):
        # p(1e12) is still about 1/2001, below the target of 1/15
        prob = toy_problem(
            n_tasks=6,
            model=LogisticAcceptance(scale_s=1e12, bias_b=0.0, market_mass_m=2000.0),
            profile=ArrivalProfile(600, (30.0, 30.0, 30.0)),
            grid=PriceGrid(0, 5), penalty=None)
        assert price_floor_c0(prob) is None

    def test_oversubscribed_instance_is_marked_infeasible(self):
        prob = toy_problem(
            n_tasks=5, profile=ArrivalProfile(600, (1.0, 1.0, 1.0)))
        assert price_floor_c0(prob) is None

    def test_no_arrivals_rejected(self):
        prob = toy_problem(profile=ArrivalProfile(600, (0.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            price_floor_c0(prob)

    def test_tabulated_curve_below_the_target_is_marked_infeasible(self):
        # 5 tasks over 7 expected arrivals need p >= 5/7, and p(6) is 0.7
        prob = toy_problem()
        assert prob.model.probability(prob.grid.max_price) < 5 / 7 <= 1.0
        assert price_floor_c0(prob) is None

    def test_logistic_floor_at_zero_when_p0_meets_the_target(self):
        # p(0) = 1 / 1.5 is above the target of 2/7
        prob = toy_problem(n_tasks=2, model=LogisticAcceptance(15.0, 0.0, 0.5))
        assert price_floor_c0(prob) == 0.0


class TestCostReduction:
    def test_examples(self):
        assert cost_reduction(100.0, 70.0) == pytest.approx(0.30)
        assert cost_reduction(8.0, 8.0) == 0.0
        assert cost_reduction(16.0, 12.0) == pytest.approx(0.25)

    def test_non_positive_fixed_cost_rejected(self):
        with pytest.raises(ValueError):
            cost_reduction(0.0, 1.0)
        with pytest.raises(ValueError):
            cost_reduction(-5.0, 1.0)


class TestChoiceModel:
    def test_dominant_reward_always_wins(self):
        out = simulate_choice_model(
            market_size=2, reward_slope=0.1, trials=3000, prices=[200], seed=3)
        assert out[0][0] == 200
        assert out[0][1] >= 0.999

    def test_two_task_symmetry_across_protocol_draws(self):
        # at price 50 and slope 0.02 our mean utility is 0, the same marginal
        # law as the competitor's; averaging over protocol draws (seeds) the
        # win rate must sit at one half
        fracs = np.array([
            simulate_choice_model(
                market_size=2, reward_slope=0.02, trials=400,
                prices=[50], seed=seed)[0][1]
            for seed in range(300)
        ])
        se = fracs.std(ddof=1) / math.sqrt(len(fracs))
        assert abs(fracs.mean() - 0.5) <= 3 * se

    def test_deterministic_in_seed(self):
        a = simulate_choice_model(
            market_size=30, reward_slope=0.02, trials=500,
            prices=[0, 25, 50], seed=42)
        b = simulate_choice_model(
            market_size=30, reward_slope=0.02, trials=500,
            prices=[0, 25, 50], seed=42)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_choice_model(
                market_size=1, reward_slope=0.02, trials=10, prices=[1], seed=0)
        with pytest.raises(ValueError):
            simulate_choice_model(
                market_size=2, reward_slope=0.02, trials=0, prices=[1], seed=0)

    GOOD = dict(market_size=3, reward_slope=0.02, trials=10, prices=[1, 2], seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("reward_slope", math.nan, "reward_slope must be finite"),
        ("reward_slope", math.inf, "reward_slope must be finite"),
        ("reward_slope", "0.02", "reward_slope must be a number"),
        ("prices", [1.7], "price must be an integer"),
        ("prices", [2.0], "price must be an integer"),
        ("prices", [1, -3], "prices must be >= 0"),
        ("trials", True, "trials must be an integer"),
        ("trials", 10.0, "trials must be an integer"),
        ("market_size", 10.5, "market_size must be an integer"),
        ("market_size", 1, "market_size must be >= 2"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, r"seed must be in \[0, 2\*\*63\)"),
    ], ids=["nan-slope", "inf-slope", "string-slope", "fractional-price",
            "float-price", "negative-price", "bool-trials", "float-trials",
            "fractional-market-size", "market-of-one", "fractional-seed",
            "negative-seed"])
    def test_bad_argument_raises_domain_error(self, field, value, message):
        with pytest.raises(DomainError, match=message):
            simulate_choice_model(**{**self.GOOD, field: value})

    def test_numpy_integers_are_reported_as_python_ints(self):
        out = simulate_choice_model(
            market_size=np.int64(3), reward_slope=np.float32(0.5), trials=np.int32(10),
            prices=np.arange(2), seed=np.uint8(0))
        assert [type(c) for c, _ in out] == [int, int]
        assert out == simulate_choice_model(
            market_size=3, reward_slope=0.5, trials=10, prices=[0, 1], seed=0)


class TestReportOutput:
    def test_json_document_shape(self):
        prob = toy_problem()
        rep = simulate_deadline(
            prob, solve_simple(prob), SimulationConfig(trials=20, seed=2))
        doc = report_to_dict(rep)
        assert set(doc) == {"schema_version", "strategy_descriptor", "config", "aggregates"}
        assert doc["config"] == {"trials": 20, "seed": 2, "parallel": False}
        assert "per_trial" not in doc
        full = report_to_dict(rep, include_per_trial=True)
        assert len(full["per_trial"]) == 20
        json.dumps(full)  # must be serializable as-is

    def test_csv_export(self, tmp_path):
        prob = toy_problem()
        rep = simulate_deadline(
            prob, FixedPrice(3), SimulationConfig(trials=25, seed=6))
        path = tmp_path / "trials.csv"
        write_trials_csv(rep, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "cost_cents", "remaining", "completion_seconds"]
        assert len(rows) == 26
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            outcome = rep.per_trial[i]
            assert float(row[1]) == outcome.total_cost
            assert int(row[2]) == outcome.remaining_tasks
            if outcome.completion_seconds is None:
                assert row[3] == ""
            else:
                assert float(row[3]) == outcome.completion_seconds

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            SimulationConfig(trials=10, seed=-1)
        for trials, seed in ((10.5, 1), (10.0, 1), (True, 1), ("10", 1),
                             (10, 1.5), (10, False), (10, None)):
            with pytest.raises(ValueError):
                SimulationConfig(trials=trials, seed=seed)
        for price in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError):
                FixedPrice(price)
        assert SimulationConfig(trials=np.int64(10), seed=np.uint32(1)).trials == 10
        for parallel in ("yes", 1, None):
            with pytest.raises(ValueError, match="parallel must be a bool"):
                SimulationConfig(trials=10, seed=1, parallel=parallel)
        # the report writes the config's fields, which are plain Python values
        config = SimulationConfig(trials=np.int64(10), seed=np.uint32(1), parallel=np.bool_(True))
        rep = simulate_deadline(toy_problem(), FixedPrice(np.int64(3)), config)
        assert json.dumps(report_to_dict(rep)["config"]) == (
            '{"trials": 10, "seed": 1, "parallel": true}')
        assert FixedPrice(np.int64(2)).price == 2

    def test_negative_fixed_price_rejected(self):
        with pytest.raises(ValueError, match="price must be >= 0"):
            FixedPrice(-1)


def _bits(fields: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


class TestAggregatesBits:
    """The report reduces each column in place; np.mean and np.std(ddof=1)
    on a float64 copy (oracles.numpy_aggregates) are the reference."""

    @staticmethod
    def columns(n, seed, *, offset=0, done_share=0.8):
        rng = np.random.default_rng(seed)
        cost = offset + rng.integers(0, 5000, n)
        remaining = rng.integers(0, 7, n)
        completion = offset + rng.random(n) * 1e5
        completion[rng.random(n) >= done_share] = np.nan
        workers = offset + rng.integers(100, 40000, n)
        return cost, remaining, completion, workers

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 50001])
    @pytest.mark.parametrize("kind", ["int64", "float64", "near-1e15", "constant",
                                      "all-done", "none-done", "no-workers"])
    def test_matches_numpy(self, n, kind):
        cost, remaining, completion, workers = self.columns(n, 1000 + n)
        if kind == "float64":
            cost, workers = cost * 0.37, workers / 3.0
        elif kind == "near-1e15":
            cost, remaining, completion, workers = self.columns(n, 2000 + n, offset=10**15)
            cost = cost * 1.000001  # a float64 column near 1e15 too
        elif kind == "constant":
            cost, remaining = np.full(n, 2400), np.zeros(n, dtype=np.int64)
            completion, workers = np.full(n, 86400.0), np.full(n, 31000)
        elif kind == "all-done":
            completion = self.columns(n, 3000 + n, done_share=2.0)[2]
        elif kind == "none-done":
            completion = np.full(n, np.nan)
        elif kind == "no-workers":
            workers = None
        want = oracles.numpy_aggregates(cost, remaining, completion, workers)
        config = SimulationConfig(trials=n, seed=0)
        rep = SimulationReport("test", config, cost, remaining, completion.copy(), workers)
        assert _bits(asdict(rep.aggregates())) == _bits(want)
        # the columns themselves are left as they were
        assert np.array_equal(rep.completion, completion, equal_nan=True)


class TestColumnsMemory:
    """What a simulation holds beyond its result columns (traced by
    tracemalloc, which sees numpy's buffers)."""

    TRIALS, TASKS = 50000, 50
    COLUMN = TRIALS * 8  # bytes in one int64 or float64 column

    def budget_report(self, periodic=True, base=1.75):
        model = TabulatedAcceptance({12: 0.4})
        # 125 quota draws are needed on average; the non-periodic profile
        # brings about 140 arrivals at base 1.75, so about a fifth of its
        # trials are short, about 119 at base 1.45, so most are, and about
        # 173 at base 2.2, so about 1% are
        base, swing = (1000.0, 50) if periodic else (base, 0.05)
        profile = ArrivalProfile(1200, tuple(base + swing * (i % 9) for i in range(72)),
                                 periodic=periodic)
        return simulate_budget(((12, self.TASKS),), profile, model,
                               SimulationConfig(trials=self.TRIALS, seed=5))

    def traced_peak(self, run):
        run()  # warm numpy's and the package's lazy set-up
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_budget_simulation_and_report_hold_two_columns_beyond_the_result(self):
        # periodic: cost and remaining are broadcasts, so two stored columns
        peak = self.traced_peak(lambda: report_to_dict(self.budget_report()))
        assert peak <= (2 + 2) * self.COLUMN, peak

    def test_non_periodic_budget_simulation_holds_four_columns_and_two_more(self):
        def run():
            rep = self.budget_report(periodic=False)
            assert 0 < np.count_nonzero(rep.remaining) < self.TRIALS
            report_to_dict(rep)
        peak = self.traced_peak(run)
        assert peak <= (4 + 2) * self.COLUMN, peak

    def test_mostly_short_non_periodic_run_copies_no_short_trials(self):
        def run():
            rep = self.budget_report(periodic=False, base=1.45)
            assert 0.5 < np.count_nonzero(rep.remaining) / self.TRIALS < 0.7
            report_to_dict(rep)
        peak = self.traced_peak(run)
        assert peak <= 5.6 * self.COLUMN, peak

    def test_mostly_finished_non_periodic_run_compares_in_the_draw_buffer(self):
        # the settle count builds no (block x tasks) boolean matrix: 5.44
        # columns with one, 5.31 without (one block of draws is 1.02 columns)
        def run():
            rep = self.budget_report(periodic=False, base=2.2)
            assert 0 < np.count_nonzero(rep.remaining) / self.TRIALS < 0.02
            report_to_dict(rep)
        peak = self.traced_peak(run)
        assert peak <= 5.35 * self.COLUMN, peak

    def test_fixed_price_simulation_holds_no_state_by_interval_matrix(self):
        n, t = 2000, 144
        prob = toy_problem(n_tasks=n, n_intervals=t,
                           profile=ArrivalProfile(600, tuple(5.0 + i % 7 for i in range(t))))
        config = SimulationConfig(trials=1000, seed=1)
        peak = self.traced_peak(lambda: simulate_deadline(prob, FixedPrice(3), config))
        assert peak < (n + 1) * t * 8, peak  # one int64 (N + 1) x T matrix

    def test_csv_is_written_block_by_block(self, tmp_path):
        rep = self.budget_report()
        write_trials_csv(rep, str(tmp_path / "warm.csv"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_trials_csv(rep, str(tmp_path / "trials.csv"))
            above = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert above < 2**20, above
        # the bytes the whole columns give, across every block boundary
        rows = zip(rep.cost.tolist(), rep.remaining.tolist(), rep.completion.tolist())
        want = "".join(f"{i},{c},{r},{'' if math.isnan(t) else repr(t)}\n"
                       for i, (c, r, t) in enumerate(rows))
        text = (tmp_path / "trials.csv").read_text()
        assert text == "trial,cost_cents,remaining,completion_seconds\n" + want
        assert [(t.total_cost, t.remaining_tasks, t.workers) for t in rep.per_trial] == list(
            zip(rep.cost.tolist(), rep.remaining.tolist(), rep.workers.tolist()))
