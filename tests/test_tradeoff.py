"""Cost/latency tradeoff pricing with no deadline or budget."""

import math
import warnings

import numpy as np
import pytest

from crowdpricer import (
    ArrivalBasedMarket,
    FixedRateMarket,
    InfeasibleError,
    LogisticAcceptance,
    LowRatePremiseWarning,
    PriceGrid,
    TabulatedAcceptance,
    TradeoffProblem,
    solve_tradeoff,
)


def arrival_problem(alpha, n_tasks=8, rate=30.0):
    return TradeoffProblem(
        n_tasks=n_tasks, alpha=alpha,
        model=TabulatedAcceptance({c: 0.05 + 0.09 * c for c in range(11)}),
        grid=PriceGrid(0, 10),
        market=ArrivalBasedMarket(mean_rate_per_hour=rate))


def fixed_rate_problem(alpha, n_tasks=8, lam=0.15):
    return TradeoffProblem(
        n_tasks=n_tasks, alpha=alpha,
        model=TabulatedAcceptance({c: 0.05 + 0.09 * c for c in range(11)}),
        grid=PriceGrid(0, 10),
        market=FixedRateMarket(workers_per_interval=lam))


class TestLinearStructure:
    def test_value_is_linear_in_backlog(self):
        sol = solve_tradeoff(arrival_problem(alpha=20.0))
        unit = sol.values[1]
        for n in range(1, 9):
            assert sol.values[n] == pytest.approx(n * unit, rel=1e-9)

    def test_values_follow_the_recurrence_bit_for_bit(self):
        sol = solve_tradeoff(arrival_problem(alpha=20.0, n_tasks=500))
        want = [0.0]
        for _ in range(500):
            want.append(want[-1] + sol.values[1])  # Opt(n) = Opt(n-1) + step
        assert sol.values.tolist() == want
        assert sol.prices[0] == 0 and set(sol.prices[1:].tolist()) == {sol.prices[1]}

    def test_price_constant_across_backlog(self):
        sol = solve_tradeoff(arrival_problem(alpha=20.0))
        assert len(set(sol.prices[1:].tolist())) == 1

    def test_values_strictly_increase_when_delay_costs(self):
        sol = solve_tradeoff(arrival_problem(alpha=5.0))
        diffs = np.diff(sol.values)
        assert np.all(diffs > 0)


class TestScalarBruteForce:
    def test_arrival_variant_matches_direct_minimum(self):
        prob = arrival_problem(alpha=12.0, rate=25.0)
        sol = solve_tradeoff(prob)
        best_c, best_v = None, math.inf
        for c in prob.grid.prices():
            p = prob.model.probability(c)
            v = c + (12.0 / 25.0) / p
            if v < best_v:
                best_c, best_v = c, v
        assert sol.prices[1] == best_c
        assert sol.values[1] == pytest.approx(best_v, rel=1e-12)

    def test_fixed_rate_variant_matches_direct_minimum(self):
        prob = fixed_rate_problem(alpha=3.0, lam=0.15)
        sol = solve_tradeoff(prob)
        best_c, best_v = None, math.inf
        for c in prob.grid.prices():
            mu = 0.15 * prob.model.probability(c)
            q = math.exp(-mu) * mu
            v = c + 3.0 / q
            if v < best_v:
                best_c, best_v = c, v
        assert sol.prices[1] == best_c
        assert sol.values[1] == pytest.approx(best_v, rel=1e-12)


class TestComparativeStatics:
    def test_zero_delay_cost_posts_minimum_price(self):
        sol = solve_tradeoff(arrival_problem(alpha=0.0))
        assert np.all(sol.prices[1:] == 0)

    def test_price_non_decreasing_in_alpha(self):
        alphas = (0.0, 2.0, 8.0, 30.0, 120.0)
        prices = [solve_tradeoff(arrival_problem(a)).prices[1] for a in alphas]
        assert prices == sorted(prices)

    def test_price_non_increasing_in_arrival_rate(self):
        rates = (5.0, 15.0, 40.0, 120.0)
        prices = [
            solve_tradeoff(arrival_problem(alpha=30.0, rate=r)).prices[1]
            for r in rates
        ]
        assert prices == sorted(prices, reverse=True)


class TestPremiseGuard:
    def test_busy_market_warns_but_solves(self):
        with pytest.warns(LowRatePremiseWarning):
            sol = solve_tradeoff(fixed_rate_problem(alpha=3.0, lam=2.0))
        assert np.all(np.isfinite(sol.values[1:]))

    def test_quiet_market_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", LowRatePremiseWarning)
            solve_tradeoff(fixed_rate_problem(alpha=3.0, lam=0.15))

    def test_dead_grid_is_infeasible(self):
        prob = TradeoffProblem(
            n_tasks=3, alpha=5.0,
            model=LogisticAcceptance(scale_s=1.0, bias_b=700.0, market_mass_m=1e308),
            grid=PriceGrid(0, 5),
            market=ArrivalBasedMarket(mean_rate_per_hour=10.0))
        with pytest.raises(InfeasibleError):
            solve_tradeoff(prob)


class TestValidation:
    def test_problem_validation(self):
        model = TabulatedAcceptance({0: 0.5, 1: 0.6})
        with pytest.raises(ValueError):
            TradeoffProblem(n_tasks=0, alpha=1.0, model=model,
                            grid=PriceGrid(0, 1),
                            market=ArrivalBasedMarket(10.0))
        with pytest.raises(ValueError):
            TradeoffProblem(n_tasks=2, alpha=-1.0, model=model,
                            grid=PriceGrid(0, 1),
                            market=ArrivalBasedMarket(10.0))
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="n_tasks must be an integer"):
                TradeoffProblem(n_tasks=bad, alpha=1.0, model=model,
                                grid=PriceGrid(0, 1),
                                market=ArrivalBasedMarket(10.0))
        with pytest.raises(ValueError):
            ArrivalBasedMarket(0.0)
        with pytest.raises(ValueError):
            FixedRateMarket(-2.0)
        for bad in ("1", True, None):
            with pytest.raises(ValueError, match="alpha must be a number"):
                TradeoffProblem(n_tasks=2, alpha=bad, model=model,
                                grid=PriceGrid(0, 1), market=ArrivalBasedMarket(10.0))
            with pytest.raises(ValueError, match="mean_rate_per_hour must be a number"):
                ArrivalBasedMarket(bad)
            with pytest.raises(ValueError, match="workers_per_interval must be a number"):
                FixedRateMarket(bad)
        with pytest.raises(ValueError, match="no probability for 1 grid price.*being 2"):
            TradeoffProblem(n_tasks=2, alpha=1.0, grid=PriceGrid(0, 3),
                            model=TabulatedAcceptance({0: 0.1, 1: 0.2, 3: 0.4}),
                            market=ArrivalBasedMarket(10.0))

    def test_solution_arrays_are_read_only(self):
        sol = solve_tradeoff(arrival_problem(alpha=4.0))
        with pytest.raises(ValueError):
            sol.prices[1] = 99
