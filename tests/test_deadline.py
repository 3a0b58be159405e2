"""Deadline solver: transitions, backward induction, calibration, evaluation."""

import math
import warnings

import numpy as np
import pytest

import oracles
from crowdpricer import deadline
from crowdpricer import (
    ArrivalProfile,
    DataError,
    DeadlineProblem,
    InfeasibleError,
    LogisticAcceptance,
    PriceGrid,
    TabulatedAcceptance,
    calibrate_penalty,
    evaluate_policy_exact,
    policy_from_dict,
    policy_to_dict,
    poisson_pmf,
    poisson_tail,
    problem_digest,
    problem_from_dict,
    problem_to_dict,
    solve_efficient,
    solve_simple,
    transition_distribution,
    truncation_threshold,
)


def small_problem(**overrides):
    kwargs = dict(
        n_tasks=6,
        n_intervals=4,
        interval_seconds=600,
        profile=ArrivalProfile(600, (2.0, 3.5, 1.0, 2.5)),
        model=TabulatedAcceptance({c: 0.05 + 0.09 * c for c in range(9)}),
        grid=PriceGrid(0, 8),
        penalty=40.0,
        epsilon=0.0,
    )
    kwargs.update(overrides)
    return DeadlineProblem(**kwargs)


class TestTransitionDistribution:
    def test_no_demand_is_absorbing(self):
        assert transition_distribution(5, 2.0, 0.0, 0.0) == [(0, 1.0)]
        assert transition_distribution(5, 0.0, 0.3, 0.0) == [(0, 1.0)]

    def test_single_task(self):
        lam, p = 1.8, 0.4
        dist = dict(transition_distribution(1, lam, p, 0.0))
        assert dist[0] == pytest.approx(math.exp(-lam * p), rel=1e-14)
        assert dist[1] == pytest.approx(1.0 - math.exp(-lam * p), rel=1e-13)

    def test_exact_mode_full_support(self):
        n, lam, p = 7, 4.0, 0.6
        dist = transition_distribution(n, lam, p, 0.0)
        support = [s for s, _ in dist]
        assert support == list(range(n + 1))
        assert math.fsum(q for _, q in dist) == pytest.approx(1.0, abs=1e-14)
        mu = lam * p
        for s, q in dist[:-1]:
            assert q == pytest.approx(poisson_pmf(s, mu), rel=1e-13)
        assert dist[-1][1] == pytest.approx(poisson_tail(n, mu), rel=1e-12)

    def test_entries_match_high_precision(self):
        n, mu, eps = 10, 3.0, 1e-9
        dist = dict(transition_distribution(n, mu, 1.0, eps))
        for s in range(min(n, truncation_threshold(mu, eps))):
            want = float(oracles.mp_poisson_pmf(s, mu))
            assert abs(dist[s] - want) < 1e-12
        want_tail = float(oracles.mp_poisson_tail(n, mu))
        assert abs(dist[n] - want_tail) < 1e-12

    def test_truncation_drops_band_keeps_tail(self):
        n, mu, eps = 20, 3.0, 1e-6
        s0 = truncation_threshold(mu, eps)
        assert s0 < n
        dist = transition_distribution(n, mu, 1.0, eps)
        support = [s for s, _ in dist]
        assert support == list(range(s0)) + [n]
        # dropped mass is at most eps, never renormalized
        total = math.fsum(q for _, q in dist)
        assert 1.0 - eps <= total <= 1.0 + 1e-15

    def test_truncation_inert_when_state_small(self):
        # n below the cutoff: truncated and exact transitions coincide
        n, mu = 4, 3.0
        exact = transition_distribution(n, mu, 1.0, 0.0)
        trunc = transition_distribution(n, mu, 1.0, 1e-9)
        assert exact == trunc

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transition_distribution(0, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            transition_distribution(3, -1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            transition_distribution(3, 1.0, 1.5, 0.0)


class TestSolveSimple:
    def test_two_task_instance_against_policy_enumeration(self):
        model = LogisticAcceptance(scale_s=2.0, bias_b=0.0, market_mass_m=5.0)
        prob = DeadlineProblem(
            n_tasks=2, n_intervals=2, interval_seconds=600,
            profile=ArrivalProfile(600, (2.0, 2.0)),
            model=model, grid=PriceGrid(0, 5), penalty=50.0, epsilon=0.0)
        policy = solve_simple(prob)
        priced = [(c, model.probability(c)) for c in range(6)]
        want = oracles.enumerate_policies_opt(2, [2.0, 2.0], priced, 50.0)
        assert policy.opt[2][0] == pytest.approx(want, abs=1e-9)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            prob, rates, priced, penalty = oracles.random_deadline_instance(
                rng, n_max=18, t_max=5, c_max=9, epsilon=0.0)
            policy = solve_simple(prob)
            table = oracles.brute_deadline_opt(prob.n_tasks, rates, priced, penalty)
            got = policy.opt[prob.n_tasks][0]
            assert got == pytest.approx(table[prob.n_tasks][0], abs=1e-9)

    def test_boundary_rows(self):
        prob = small_problem()
        policy = solve_simple(prob)
        assert np.all(policy.opt[0, :] == 0.0)
        for n in range(prob.n_tasks + 1):
            assert policy.opt[n][prob.n_intervals] == pytest.approx(prob.penalty * n)

    def test_price_at_accessor(self):
        prob = small_problem()
        policy = solve_simple(prob)
        assert policy.price_at(3, 1) == policy.price[3][1]
        with pytest.raises(IndexError):
            policy.price_at(prob.n_tasks + 1, 0)

    def test_prices_live_on_grid(self):
        prob = small_problem(grid=PriceGrid(2, 8, step=2))
        policy = solve_simple(prob)
        allowed = set(prob.grid.prices())
        assert set(policy.price[1:, :-1].ravel().tolist()) <= allowed


def counterexample_problem():
    """Optimal prices at t=0 are not monotone in n here (0, 0, 1, 0 for
    n = 1..4); a search that assumed they were found opt 3.793412."""
    return DeadlineProblem(
        n_tasks=4, n_intervals=2, interval_seconds=600,
        profile=ArrivalProfile(600, (2.0, 25.5)),
        model=TabulatedAcceptance({0: 0.11, 1: 0.62, 2: 0.94}),
        grid=PriceGrid(0, 2), penalty=4.7, epsilon=0.0)


def wide_rate_problem(rng, epsilon):
    """Rates log-uniform over 0.2-3000 arrivals per interval, a tabulated or
    a logistic model, and existence_alpha > 0."""
    n_prices = int(rng.integers(2, 13))
    horizon = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        model = TabulatedAcceptance(
            {c: float(p) for c, p in enumerate(np.sort(rng.uniform(0.005, 1.0, n_prices)))})
    else:
        model = LogisticAcceptance(
            scale_s=float(np.exp(rng.uniform(0.0, np.log(30.0)))),
            bias_b=float(rng.uniform(-3.0, 3.0)),
            market_mass_m=float(np.exp(rng.uniform(0.0, np.log(5000.0)))))
    rates = np.exp(rng.uniform(np.log(0.2), np.log(3000.0), horizon))
    return DeadlineProblem(
        n_tasks=int(rng.integers(2, 31)), n_intervals=horizon, interval_seconds=600,
        profile=ArrivalProfile(600, tuple(rates.tolist())),
        model=model, grid=PriceGrid(0, n_prices - 1),
        penalty=float((n_prices - 1) * rng.uniform(1.0, 10.0)),
        existence_alpha=float(rng.uniform(0.1, 3.0)), epsilon=epsilon)


class TestSolveEfficient:
    def test_identical_to_simple(self):
        rng = np.random.default_rng(99)
        problems = []
        for eps in (0.0, 1e-9):
            for _ in range(4):
                prob, *_ = oracles.random_deadline_instance(
                    rng, n_max=25, t_max=6, c_max=10, epsilon=eps)
                problems.append(prob)
        problems.append(counterexample_problem())
        fuzz = np.random.default_rng(2014)
        problems += [wide_rate_problem(fuzz, eps) for eps in (0.0, 1e-9) for _ in range(20)]
        for prob in problems:
            a = solve_simple(prob)
            b = solve_efficient(prob)
            assert np.array_equal(a.price, b.price)
            np.testing.assert_allclose(a.opt, b.opt, rtol=0, atol=1e-9)
        assert solve_efficient(counterexample_problem()).opt[4, 0] == pytest.approx(
            3.767083, abs=1e-6)

    def test_single_price_grid(self):
        prob = small_problem(grid=PriceGrid(4, 4))
        a = solve_simple(prob)
        b = solve_efficient(prob)
        assert np.array_equal(a.price, b.price)
        assert np.all(a.price[1:, :-1] == 4)
        np.testing.assert_allclose(a.opt, b.opt, rtol=0, atol=1e-12)

    def test_coarse_grid(self):
        prob = small_problem(grid=PriceGrid(0, 8, step=4))
        a = solve_simple(prob)
        b = solve_efficient(prob)
        assert np.array_equal(a.price, b.price)
        np.testing.assert_allclose(a.opt, b.opt, rtol=0, atol=1e-9)


class TestPostedCosts:
    def test_opt_is_the_loop_cost_of_the_posted_price(self):
        """Both solvers take opt from one run-grouped pass; check it against
        the one-state-at-a-time costs of _loop_costs, with runs of states
        longer than their price's truncation cap among the cases."""
        fuzz = np.random.default_rng(2014)
        long_runs = 0
        for eps in (0.0, 1e-9):
            for _ in range(20):
                prob = wide_rate_problem(fuzz, eps)
                policy = solve_efficient(prob)
                prices = np.array(prob.grid.prices())
                accept = np.array([prob.model.probability(int(c)) for c in prices])
                rates = prob.interval_rates()
                states = np.arange(prob.n_tasks)
                for t in range(prob.n_intervals):
                    pmf, _, caps, spend = deadline._slice_tables(
                        rates[t] * accept, prob.n_tasks, eps)
                    costs = deadline._loop_costs(
                        pmf, caps, spend * prices[:, None], policy.opt[:, t + 1])
                    rows = np.searchsorted(prices, policy.price[1:, t])
                    np.testing.assert_allclose(
                        policy.opt[1:, t], costs[rows, states], rtol=1e-12, atol=0)
                    for run in np.split(rows, np.flatnonzero(np.diff(rows)) + 1):
                        long_runs += len(run) > caps[run[0]]
        assert long_runs > 0


class TestBellmanConsistency:
    def test_recorded_price_attains_minimum(self):
        prob = small_problem()
        policy = solve_simple(prob)
        probs = {c: prob.model.probability(c) for c in prob.grid.prices()}
        for n in range(1, prob.n_tasks + 1):
            for t in range(prob.n_intervals):
                lam = prob.profile.expected_arrivals(
                    t * prob.interval_seconds, (t + 1) * prob.interval_seconds)
                best = None
                recorded = None
                for c in prob.grid.prices():
                    q = 0.0
                    for s, w in transition_distribution(n, lam, probs[c], 0.0):
                        q += w * (c * min(s, n) + policy.opt[n - s][t + 1])
                    if best is None or q < best - 1e-12:
                        best = q
                    if c == policy.price[n][t]:
                        recorded = q
                assert recorded == pytest.approx(best, abs=1e-9)
                assert policy.opt[n][t] == pytest.approx(recorded, abs=1e-9)


class TestStructuralMonotonicity:
    def test_price_non_decreasing_in_backlog(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            prob, *_ = oracles.random_deadline_instance(
                rng, n_max=22, t_max=6, c_max=10, epsilon=0.0)
            price = solve_simple(prob).price
            assert np.all(price[1:-1, :-1] <= price[2:, :-1]), "backlog monotonicity violated"

    def test_price_non_decreasing_in_time_constant_rate(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(3, 20))
            horizon = int(rng.integers(2, 7))
            cmax = int(rng.integers(3, 10))
            rate = round(float(rng.uniform(0.4, 5.0)), 3)
            prob = DeadlineProblem(
                n_tasks=n, n_intervals=horizon, interval_seconds=600,
                profile=ArrivalProfile(600, (rate,) * horizon),
                model=TabulatedAcceptance(oracles.random_tabulated_entries(rng, cmax)),
                grid=PriceGrid(0, cmax),
                penalty=round(float(rng.uniform(cmax, 6 * cmax)), 2),
                epsilon=0.0)
            price = solve_simple(prob).price
            assert np.all(price[1:, :-2] <= price[1:, 1:-1])

    def test_value_monotone_in_backlog_and_time(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            prob, *_ = oracles.random_deadline_instance(
                rng, n_max=20, t_max=6, c_max=9, epsilon=0.0)
            opt = solve_simple(prob).opt
            assert np.all(opt[:-1, :] <= opt[1:, :] + 1e-12)
            if prob.penalty >= prob.grid.max_price:
                assert np.all(opt[:, :-1] <= opt[:, 1:] + 1e-12)


class TestEvaluatePolicy:
    def test_accounting_identity(self):
        prob = small_problem()
        policy = solve_simple(prob)
        ev = evaluate_policy_exact(prob, policy)
        total = ev.expected_cost + prob.penalty * ev.expected_remaining
        assert total == pytest.approx(policy.opt[prob.n_tasks][0], abs=1e-9)

    def test_matches_scalar_forward_propagation(self):
        rng = np.random.default_rng(53)
        prob, rates, priced, penalty = oracles.random_deadline_instance(
            rng, n_max=15, t_max=5, c_max=8, epsilon=0.0)
        cases = [(prob, rates, solve_simple(prob).price)]
        # price columns the solver never posts: runs of one state, alternating
        # prices, sorted runs, a lone price at n = N; interval 2 has no arrivals
        for n in (1, 2, 17, 40):
            rates = [round(float(r), 3) for r in rng.uniform(0.2, 7.0, 5)]
            rates[2] = 0.0
            prob = small_problem(
                n_tasks=n, n_intervals=5, profile=ArrivalProfile(600, tuple(rates)))
            price = np.column_stack([
                rng.integers(0, 9, n + 1),
                np.resize([2, 7], n + 1),
                rng.integers(0, 9, n + 1),
                np.sort(rng.integers(0, 9, n + 1)),
                np.r_[np.full(n, 4), 8],
            ])
            cases.append((prob, rates, price))
        for prob, rates, price in cases:
            policy = deadline.DeadlinePolicy(
                price=price, opt=np.zeros((prob.n_tasks + 1, prob.n_intervals + 1)),
                problem_digest=problem_digest(prob))
            ev = evaluate_policy_exact(prob, policy)
            cost, remaining, pr_any = oracles.brute_policy_evaluation(
                prob.n_tasks, rates,
                lambda n, t: int(price[n][t]),
                lambda c: prob.model.probability(c))
            assert ev.expected_cost == pytest.approx(cost, abs=1e-9)
            assert ev.expected_remaining == pytest.approx(remaining, abs=1e-9)
            assert ev.pr_any_remaining == pytest.approx(pr_any, abs=1e-9)

    def test_dead_market_leaves_everything(self):
        prob = small_problem(
            model=LogisticAcceptance(scale_s=1.0, bias_b=0.0, market_mass_m=1e15))
        policy = solve_simple(prob)
        ev = evaluate_policy_exact(prob, policy)
        assert ev.expected_remaining == pytest.approx(prob.n_tasks, abs=1e-6)
        assert ev.expected_cost == pytest.approx(0.0, abs=1e-6)

    def test_existence_alpha_accounting(self):
        prob = small_problem(existence_alpha=0.7)
        policy = solve_simple(prob)
        ev = evaluate_policy_exact(prob, policy)
        total = ev.expected_cost + prob.penalty * (
            ev.expected_remaining + prob.existence_alpha * ev.pr_any_remaining)
        assert total == pytest.approx(policy.opt[prob.n_tasks][0], abs=1e-9)
        assert policy.opt[3][prob.n_intervals] == pytest.approx(
            (3 + prob.existence_alpha) * prob.penalty)

    def test_pr_any_remaining_bounds(self):
        prob = small_problem()
        ev = evaluate_policy_exact(prob, solve_simple(prob))
        assert 0.0 <= ev.pr_any_remaining <= 1.0
        assert ev.expected_remaining <= prob.n_tasks * ev.pr_any_remaining + 1e-12


class TestCalibrate:
    def test_slack_bound_needs_no_penalty(self):
        prob = small_problem()
        pen, achieved = calibrate_penalty(prob, bound=float(prob.n_tasks))
        assert pen == 0.0
        assert achieved <= prob.n_tasks

    def test_toy_bound_hit_within_tolerance(self):
        prob = DeadlineProblem(
            n_tasks=20, n_intervals=8, interval_seconds=600,
            profile=ArrivalProfile(600, (5.0,) * 8),
            model=TabulatedAcceptance({c: 0.04 + 0.06 * c for c in range(13)}),
            grid=PriceGrid(0, 12), epsilon=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pen, achieved = calibrate_penalty(prob, bound=0.5, tolerance=0.05)
        assert 0.5 * 0.95 < achieved <= 0.5
        # the returned penalty reproduces the achieved value
        recheck = DeadlineProblem(
            n_tasks=20, n_intervals=8, interval_seconds=600,
            profile=ArrivalProfile(600, (5.0,) * 8),
            model=TabulatedAcceptance({c: 0.04 + 0.06 * c for c in range(13)}),
            grid=PriceGrid(0, 12), penalty=pen, epsilon=0.0)
        ev = evaluate_policy_exact(recheck, solve_efficient(recheck))
        assert ev.expected_remaining == pytest.approx(achieved, abs=1e-9)

    def test_penalty_monotone_in_bound(self):
        prob = DeadlineProblem(
            n_tasks=20, n_intervals=8, interval_seconds=600,
            profile=ArrivalProfile(600, (5.0,) * 8),
            model=TabulatedAcceptance({c: 0.04 + 0.06 * c for c in range(13)}),
            grid=PriceGrid(0, 12), epsilon=0.0)
        pens = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for bound in (4.0, 2.0, 1.0, 0.5):
                pen, achieved = calibrate_penalty(prob, bound=bound)
                assert achieved <= bound
                pens.append(pen)
        assert pens == sorted(pens)

    def test_unreachable_bound_is_infeasible(self):
        prob = small_problem(
            model=TabulatedAcceptance({c: 0.01 for c in range(9)}),
            profile=ArrivalProfile(600, (0.05,) * 4))
        with pytest.raises(InfeasibleError):
            calibrate_penalty(prob, bound=0.01)


class TestSerialization:
    def test_policy_round_trip(self):
        prob = small_problem()
        policy = solve_simple(prob)
        doc = policy_to_dict(prob, policy)
        prob2, policy2 = policy_from_dict(doc)
        assert problem_digest(prob2) == problem_digest(prob)
        assert np.array_equal(policy.price, policy2.price)
        assert np.array_equal(policy.opt, policy2.opt)

    def test_problem_round_trip_preserves_digest(self):
        prob = small_problem(existence_alpha=0.25, epsilon=1e-9)
        back = problem_from_dict(problem_to_dict(prob))
        assert problem_digest(back) == problem_digest(prob)
        assert back.penalty == prob.penalty
        assert back.existence_alpha == prob.existence_alpha

    def test_digest_sensitive_to_parameters(self):
        a = problem_digest(small_problem())
        b = problem_digest(small_problem(penalty=41.0))
        assert a != b

    def test_malformed_policy_documents(self):
        prob = small_problem()
        doc = policy_to_dict(prob, solve_simple(prob))
        bad = dict(doc)
        bad["schema_version"] = 999
        with pytest.raises(DataError):
            policy_from_dict(bad)
        bad = {k: v for k, v in doc.items() if k != "price"}
        with pytest.raises(DataError):
            policy_from_dict(bad)


class TestProblemValidation:
    def test_default_penalty(self):
        prob = small_problem(penalty=None)
        assert prob.penalty == 10 * prob.grid.max_price

    def test_low_penalty_warns(self):
        with pytest.warns(UserWarning) as caught:
            small_problem(penalty=3.0)
        # the warning names the line that built the problem, not <string>
        assert caught[0].filename == __file__

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            small_problem(n_tasks=0)
        with pytest.raises(ValueError):
            small_problem(n_intervals=0)
        with pytest.raises(ValueError):
            small_problem(interval_seconds=0)
        with pytest.raises(ValueError):
            small_problem(epsilon=1.0)
        with pytest.raises(ValueError):
            small_problem(existence_alpha=-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                small_problem(penalty=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                small_problem(existence_alpha=bad)
        for name in ("n_tasks", "n_intervals", "interval_seconds", "start_offset_seconds"):
            for bad in (600.5, 6.0, True, "6", None):
                with pytest.raises(ValueError, match=name):
                    small_problem(**{name: bad})
        assert small_problem(n_tasks=np.int64(6), interval_seconds=np.int32(600)).n_tasks == 6
        # a grid price missing from a tabulated model is caught when the
        # problem is built, not partway through a solve
        sparse = TabulatedAcceptance({c: 0.1 + 0.1 * c for c in (0, 1, 3, 4, 5, 6, 7, 8)})
        with pytest.raises(ValueError, match="grid price.*2"):
            small_problem(model=sparse)
        with pytest.raises(ValueError, match="grid price"):
            small_problem(grid=PriceGrid(0, 9))
        assert small_problem(grid=PriceGrid(2, 8, step=3)).grid.max_price == 8

    def test_offset_shifts_rates(self):
        profile = ArrivalProfile(600, (2.0, 3.5, 1.0, 2.5), periodic=True)
        base = small_problem(profile=profile)
        shifted = small_problem(profile=profile, start_offset_seconds=600)
        a = solve_simple(base)
        b = solve_simple(shifted)
        # interval 0 of the shifted problem sees bucket 1 of the profile
        assert not np.array_equal(a.opt, b.opt)
