"""Monte Carlo simulators, fixed-price baseline, and choice-model generator."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdpricer import (
    ArrivalProfile,
    DataError,
    DeadlineProblem,
    FixedPrice,
    InfeasibleError,
    LogisticAcceptance,
    PriceGrid,
    SimulationConfig,
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
from crowdpricer.simulate import report_to_dict, write_trials_csv

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

    def test_unsimulable_inputs_rejected(self):
        model = TabulatedAcceptance({1: 1e-13, 2: 0.5})
        with pytest.raises(DataError):  # a periodic profile with no arrivals
            simulate_budget(((2, 2),), ArrivalProfile(60, (0.0, 0.0), periodic=True),
                            model, SimulationConfig(trials=2, seed=1))
        with pytest.raises(DataError):  # a price nobody accepts
            simulate_budget(((1, 1),), ArrivalProfile(60, (1.0,), periodic=True),
                            model, SimulationConfig(trials=2, seed=1))

    def test_empty_allocation_rejected(self):
        model = TabulatedAcceptance({1: 0.5})
        profile = ArrivalProfile(60, (1.0,), periodic=True)
        with pytest.raises(ValueError):
            simulate_budget((), profile, model, SimulationConfig(trials=2, seed=1))


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
        if price > prob.grid.min_price:
            below = completion_probability_fixed(prob, price - prob.grid.step)
            assert below < conf

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

    def test_oversubscribed_instance_is_marked_infeasible(self):
        prob = toy_problem(
            n_tasks=5, profile=ArrivalProfile(600, (1.0, 1.0, 1.0)))
        assert price_floor_c0(prob) is None

    def test_no_arrivals_rejected(self):
        prob = toy_problem(profile=ArrivalProfile(600, (0.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            price_floor_c0(prob)


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
        assert FixedPrice(np.int64(2)).price == 2
