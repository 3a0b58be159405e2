"""Static budget allocation: hull pruning, LP rounding, exact search."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from crowdpricer import (
    BudgetProblem,
    DataError,
    InfeasibleError,
    LogisticAcceptance,
    PriceGrid,
    StaticAllocation,
    TabulatedAcceptance,
    expected_latency,
    expected_worker_arrivals,
    lower_convex_hull,
    solve_static_exact,
    solve_static_lp,
)
from crowdpricer.budget import _usable_prices
from crowdpricer.errors import DomainError


def reference_model():
    return LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0)


def cost_points(model, grid):
    return [(float(c), 1.0 / model.probability(c)) for c in grid.prices()]


class TestLowerConvexHull:
    def test_two_points_always_kept(self):
        pts = [(0.0, 5.0), (1.0, 9.0)]
        assert lower_convex_hull(pts) == pts

    def test_strictly_convex_input_is_unchanged(self):
        pts = [(float(x), float(x * x)) for x in range(6)]
        assert lower_convex_hull(pts) == pts

    def test_dominated_point_is_dropped(self):
        pts = [(0.0, 0.0), (1.0, 5.0), (2.0, 1.0)]
        assert lower_convex_hull(pts) == [(0.0, 0.0), (2.0, 1.0)]

    def test_collinear_interior_dropped(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert lower_convex_hull(pts) == [(0.0, 0.0), (2.0, 2.0)]

    def test_matches_straddling_chord_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(2, 12))
            xs = np.sort(rng.uniform(0.0, 20.0, size=m))
            while len(set(xs.tolist())) < m:
                xs = np.sort(rng.uniform(0.0, 20.0, size=m))
            ys = rng.uniform(0.0, 30.0, size=m)
            pts = [(float(x), float(y)) for x, y in zip(xs, ys)]
            assert lower_convex_hull(pts) == oracles.brute_lower_hull(pts)

    def test_requires_sorted_unique_x(self):
        with pytest.raises(ValueError):
            lower_convex_hull([(1.0, 0.0), (0.0, 0.0)])
        with pytest.raises(ValueError):
            lower_convex_hull([(1.0, 0.0), (1.0, 2.0)])

    def test_single_point_is_its_own_hull(self):
        assert lower_convex_hull([(3.0, 7.0)]) == [(3.0, 7.0)]


class TestSolveStaticLp:
    def test_reference_instance_structure(self):
        prob = BudgetProblem(
            n_tasks=10, budget=120, model=reference_model(),
            grid=PriceGrid(5, 20), mean_rate=50.0)
        alloc = solve_static_lp(prob)
        assert 1 <= len(alloc.entries) <= 2
        assert sum(k for _, k in alloc.entries) == 10
        assert sum(c * k for c, k in alloc.entries) <= 120
        hull_x = [x for x, _ in lower_convex_hull(cost_points(prob.model, prob.grid))]
        for c, _ in alloc.entries:
            assert float(c) in hull_x

    def test_prices_bracket_mean_budget(self):
        prob = BudgetProblem(
            n_tasks=10, budget=120, model=reference_model(),
            grid=PriceGrid(5, 20), mean_rate=50.0)
        alloc = solve_static_lp(prob)
        per_task = 120 / 10
        prices = sorted(c for c, _ in alloc.entries)
        assert prices[0] <= per_task
        if len(prices) == 2:
            assert prices[1] >= per_task

    def test_rich_budget_saturates_at_top_hull_price(self):
        model = reference_model()
        grid = PriceGrid(5, 20)
        top = max(x for x, _ in lower_convex_hull(cost_points(model, grid)))
        prob = BudgetProblem(
            n_tasks=4, budget=1000, model=model, grid=grid, mean_rate=50.0)
        alloc = solve_static_lp(prob)
        assert alloc.entries == ((int(top), 4),)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            BudgetProblem(
                n_tasks=10, budget=9, model=reference_model(),
                grid=PriceGrid(5, 20), mean_rate=50.0)


class TestDeadPrices:
    """A price with p below DEAD_PRICE_FLOOR is unusable, so the cheapest
    usable price, not the grid's cheapest, sets the least budget."""

    @pytest.mark.parametrize("solve, message", [
        (solve_static_lp, r"budget below minimum: 6 < 2 \* 5"),
        (solve_static_exact, "budget below minimum: cannot price 2 tasks within 6"),
    ], ids=["lp", "exact"])
    def test_budget_below_the_cheapest_usable_price(self, solve, message):
        # BudgetProblem accepts budget 6 >= 2 * min_price 0; prices 0..4 are dead
        model = TabulatedAcceptance({c: 1e-13 if c < 5 else 0.5 for c in range(11)})
        prob = BudgetProblem(n_tasks=2, budget=6, model=model, grid=PriceGrid(0, 10),
                             mean_rate=50.0)
        with pytest.raises(InfeasibleError, match=message):
            solve(prob)

    @pytest.mark.parametrize("solve", [solve_static_lp, solve_static_exact],
                             ids=["lp", "exact"])
    def test_no_usable_price(self, solve):
        prob = BudgetProblem(n_tasks=2, budget=10, grid=PriceGrid(0, 5), mean_rate=50.0,
                             model=TabulatedAcceptance({c: 1e-13 for c in range(6)}))
        with pytest.raises(InfeasibleError, match="no usable price on grid"):
            solve(prob)


class TestSolveStaticExact:
    def test_matches_multiset_enumeration(self):
        rng = np.random.default_rng(61)
        model = reference_model()
        for _ in range(10):
            n = int(rng.integers(1, 5))
            budget = int(rng.integers(n, 60))
            grid = PriceGrid(1, 15)
            prob = BudgetProblem(
                n_tasks=n, budget=budget, model=model, grid=grid, mean_rate=50.0)
            priced = [(c, model.probability(c)) for c in grid.prices()]
            want = oracles.brute_budget_exact(n, budget, priced)
            assert want is not None
            alloc = solve_static_exact(prob)
            assert alloc.expected_workers == pytest.approx(want[0], rel=1e-12)

    def test_single_task_picks_best_affordable_price(self):
        model = reference_model()
        grid = PriceGrid(1, 15)
        prob = BudgetProblem(
            n_tasks=1, budget=9, model=model, grid=grid, mean_rate=50.0)
        alloc = solve_static_exact(prob)
        best = min(
            (1.0 / model.probability(c) for c in grid.prices() if c <= 9))
        assert alloc.expected_workers == pytest.approx(best, rel=1e-12)
        assert len(alloc.entries) == 1

    def test_never_beaten_by_lp(self):
        rng = np.random.default_rng(71)
        model = reference_model()
        for _ in range(15):
            n = int(rng.integers(2, 9))
            grid = PriceGrid(1, 12)
            budget = int(rng.integers(2 * n, 12 * n))
            prob = BudgetProblem(
                n_tasks=n, budget=budget, model=model, grid=grid, mean_rate=50.0)
            exact = solve_static_exact(prob)
            lp = solve_static_lp(prob)
            assert exact.expected_workers <= lp.expected_workers + 1e-9

    def test_entries_are_order_insensitive_by_construction(self):
        # expected arrivals depend only on the multiset of prices
        model = reference_model()
        entries = ((5, 3), (12, 2), (9, 1))
        shuffled = ((9, 1), (5, 3), (12, 2))
        assert expected_worker_arrivals(entries, model) == pytest.approx(
            expected_worker_arrivals(shuffled, model), rel=1e-15)


class TestExactParentIndex:
    """solve_static_exact stores each parent as an index into the usable
    prices, in the smallest dtype that holds them; the reference stores the
    price itself in int32.  Both must give the same allocation, ties and
    all, on grids whose prices pass 255 and 65,535, on grids with more than
    256 usable prices, and with dead prices at the bottom of the table."""

    LEVELS = (1e-13, 1e-13, 0.05, 0.2, 0.2, 0.5, 0.5, 0.9, 1.0)  # dead prices and ties

    @pytest.mark.parametrize("grid", [
        PriceGrid(0, 12), PriceGrid(3, 60), PriceGrid(5, 95, 5), PriceGrid(240, 270),
        PriceGrid(0, 299), PriceGrid(65_500, 65_560, 4), PriceGrid(65_530, 65_540),
    ], ids=str)
    def test_same_allocation_as_price_parents(self, grid):
        rng = np.random.default_rng(grid.max_price)
        prices = list(grid.prices())
        for case in range(12):
            if case % 2:  # distinct probabilities, no ties
                probs = np.sort(rng.uniform(0.02, 0.95, len(prices)))
            else:
                probs = np.sort(rng.choice(self.LEVELS, len(prices)))
                probs[-1] = 1.0
            model = TabulatedAcceptance(dict(zip(prices, probs.tolist())))
            n = int(rng.integers(1, 6))
            budget = [n * grid.max_price, n * grid.min_price,
                      int(rng.integers(n * grid.min_price, n * grid.max_price + 10))][case % 3]
            prob = BudgetProblem(n_tasks=n, budget=budget, model=model, grid=grid,
                                 mean_rate=50.0)
            want = oracles.budget_dp_price_parents(n, budget, _usable_prices(prob))
            if want is None:
                with pytest.raises(InfeasibleError, match="cannot price"):
                    solve_static_exact(prob)
            else:
                assert solve_static_exact(prob).entries == tuple(sorted(want.items()))

    def test_parents_take_one_byte_per_cell_at_one_usable_price(self):
        n, budget = 100, 99_999
        prob = BudgetProblem(n_tasks=n, budget=budget, model=TabulatedAcceptance({999: 0.5}),
                             grid=PriceGrid(999, 999), mean_rate=50.0)
        solve_static_exact(prob)  # warm numpy's lazy set-up
        tracemalloc.start()
        try:
            alloc = solve_static_exact(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alloc.entries == ((999, n),)
        # the parent matrix plus a few float64 rows of the DP
        assert peak <= (n + 1) * (budget + 1) + 6 * (budget + 1) * 8, peak


class TestExpectedWorkerArrivals:
    def test_half_acceptance_single_task(self):
        model = TabulatedAcceptance({3: 0.5})
        assert expected_worker_arrivals(((3, 1),), model) == pytest.approx(2.0)

    def test_three_tasks_low_acceptance(self):
        model = TabulatedAcceptance({2: 0.1})
        assert expected_worker_arrivals(((2, 3),), model) == pytest.approx(30.0)

    def test_additive_across_entries(self):
        model = TabulatedAcceptance({1: 0.2, 4: 0.8})
        got = expected_worker_arrivals(((1, 2), (4, 3)), model)
        assert got == pytest.approx(2 / 0.2 + 3 / 0.8, rel=1e-12)

    def test_scaling_in_counts(self):
        model = reference_model()
        base = expected_worker_arrivals(((10, 2), (14, 3)), model)
        doubled = expected_worker_arrivals(((10, 4), (14, 6)), model)
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_dead_price_rejected(self):
        model = LogisticAcceptance(scale_s=1.0, bias_b=0.0, market_mass_m=1e300)
        with pytest.raises(DataError):
            expected_worker_arrivals(((0, 1),), model)


class TestExpectedLatency:
    def test_basic_ratio(self):
        assert expected_latency(100.0, 50.0) == pytest.approx(2.0)

    def test_zero_workers(self):
        assert expected_latency(0.0, 50.0) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            expected_latency(10.0, 0.0)

    def test_latency_past_the_float_range_rejected(self):
        # 2 / 1e-320 is inf: no latency document may hold it
        with pytest.raises(DomainError, match="mean_rate 1e-320 puts the expected latency"):
            expected_latency(2.0, 1e-320)


class TestScaling:
    def test_doubling_tasks_and_budget_doubles_workers(self):
        model = reference_model()
        prob = BudgetProblem(
            n_tasks=6, budget=80, model=model,
            grid=PriceGrid(5, 20), mean_rate=50.0)
        base = solve_static_exact(prob)
        big = BudgetProblem(
            n_tasks=12, budget=160, model=model,
            grid=PriceGrid(5, 20), mean_rate=50.0)
        doubled = solve_static_exact(big)
        assert doubled.expected_workers == pytest.approx(
            2 * base.expected_workers, rel=1e-12)


class TestAllocationValidation:
    def test_problem_validation(self):
        model = reference_model()
        with pytest.raises(ValueError):
            BudgetProblem(n_tasks=0, budget=10, model=model,
                          grid=PriceGrid(1, 5), mean_rate=50.0)
        with pytest.raises(ValueError):
            BudgetProblem(n_tasks=2, budget=-1, model=model,
                          grid=PriceGrid(1, 5), mean_rate=50.0)
        with pytest.raises(ValueError):
            BudgetProblem(n_tasks=2, budget=10, model=model,
                          grid=PriceGrid(1, 5), mean_rate=0.0)
        for n_tasks, budget in ((2.5, 10), (True, 10), (2, 10.0), (2, math.nan),
                                (2, math.inf), (2, "10")):
            with pytest.raises(ValueError, match="must be an integer"):
                BudgetProblem(n_tasks=n_tasks, budget=budget, model=model,
                              grid=PriceGrid(1, 5), mean_rate=50.0)
        for bad in ("50", True):
            with pytest.raises(ValueError, match="mean_rate must be a number"):
                BudgetProblem(n_tasks=2, budget=10, model=model,
                              grid=PriceGrid(1, 5), mean_rate=bad)
        with pytest.raises(ValueError, match="no probability for 1 grid price.*being 2"):
            BudgetProblem(n_tasks=2, budget=10, grid=PriceGrid(0, 3), mean_rate=50.0,
                          model=TabulatedAcceptance({0: 0.1, 1: 0.2, 3: 0.4}))

    def test_allocation_totals_agree_with_entries(self):
        alloc = StaticAllocation(entries=((5, 3), (9, 2), (5, 1)),
                                 expected_workers=1.0, expected_latency_hours=1.0)
        assert alloc.n_tasks == 6
        assert alloc.total_cost == 5 * 3 + 9 * 2 + 5 * 1

    def test_latency_fields_populated(self):
        prob = BudgetProblem(
            n_tasks=5, budget=60, model=reference_model(),
            grid=PriceGrid(5, 20), mean_rate=50.0)
        alloc = solve_static_lp(prob)
        assert alloc.expected_latency_hours == pytest.approx(
            alloc.expected_workers / 50.0, rel=1e-12)
