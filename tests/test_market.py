"""Market primitives: Poisson helpers, acceptance models, grids, profiles."""

import math

import numpy as np
import pytest

import oracles
from crowdpricer import market
from crowdpricer import (
    AcceptanceModel,
    ArrivalBasedMarket,
    ArrivalProfile,
    BudgetProblem,
    DataError,
    DeadlineProblem,
    FixedPrice,
    FixedRateMarket,
    LogisticAcceptance,
    PriceGrid,
    SimulationConfig,
    TabulatedAcceptance,
    TradeoffProblem,
    poisson_pmf,
    poisson_tail,
    truncation_threshold,
)
from crowdpricer.errors import DomainError
from crowdpricer.market import (
    _transition_tables,
    grid_from_dict,
    grid_to_dict,
    model_from_dict,
    model_to_dict,
    poisson_pmf_vector,
    poisson_support_end,
    poisson_tables,
    poisson_tail_vector,
    profile_from_dict,
    profile_to_dict,
)


class TestPoissonPmf:
    def test_zero_count(self):
        for lam in (0.3, 1.0, 4.5, 20.0):
            assert poisson_pmf(0, lam) == pytest.approx(math.exp(-lam), rel=1e-14)

    def test_zero_rate(self):
        assert poisson_pmf(0, 0.0) == 1.0
        for k in (1, 2, 7):
            assert poisson_pmf(k, 0.0) == 0.0

    def test_sums_to_one(self):
        total = math.fsum(poisson_pmf(k, 10.0) for k in range(61))
        assert abs(total - 1.0) < 1e-12

    def test_against_high_precision(self):
        # Below ~1e-300 the double result is subnormal or zero and the
        # relative-error contract no longer applies.
        for lam in (0.1, 1.0, 10.0, 50.0):
            for k in range(0, 201):
                got = poisson_pmf(k, lam)
                want = oracles.mp_poisson_pmf(k, lam)
                if want >= 1e-290:
                    assert abs(got - float(want)) <= 1e-10 * float(want), (k, lam)
                else:
                    assert got <= 1e-290, (k, lam)

    def test_vector_matches_scalar(self):
        lam = 7.3
        vec = poisson_pmf_vector(41, lam)
        assert vec.shape == (41,)
        for k in (0, 1, 13, 40):
            assert vec[k] == pytest.approx(poisson_pmf(k, lam), rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 2.0)
        with pytest.raises(ValueError):
            poisson_pmf(2, -0.5)


class TestPoissonTail:
    def test_tail_at_zero_is_one(self):
        assert poisson_tail(0, 5.0) == 1.0
        assert poisson_tail(-3, 5.0) == 1.0

    def test_zero_rate(self):
        assert poisson_tail(1, 0.0) == 0.0

    def test_complement_of_pmf_sum(self):
        lam = 6.0
        for k in (1, 4, 11):
            head = math.fsum(poisson_pmf(j, lam) for j in range(k))
            assert poisson_tail(k, lam) == pytest.approx(1.0 - head, abs=1e-13)

    def test_against_high_precision(self):
        for lam in (0.1, 1.0, 10.0, 50.0):
            for k in range(0, 160, 7):
                got = poisson_tail(k, lam)
                want = oracles.mp_poisson_tail(k, lam)
                if want >= 1e-290:
                    assert abs(got - float(want)) <= 1e-10 * float(want), (k, lam)
                else:
                    assert got <= 1e-290, (k, lam)

    def test_vector_matches_scalar(self):
        lam = 3.7
        vec = poisson_tail_vector(26, lam)
        assert vec[0] == 1.0
        for k in (1, 5, 25):
            assert vec[k] == pytest.approx(poisson_tail(k, lam), rel=1e-12)

    def test_empty_vector(self):
        vec = poisson_tail_vector(0, 3.7)
        assert vec.shape == (0,) and vec.dtype == np.float64


@pytest.mark.parametrize("call", [
    lambda: poisson_pmf(3, math.nan),
    lambda: poisson_pmf(3, math.inf),
    lambda: poisson_tail(3, math.nan),
    lambda: truncation_threshold(math.inf, 1e-9),
    lambda: truncation_threshold(math.nan, 1e-9),
], ids=["pmf-nan", "pmf-inf", "tail-nan", "threshold-inf", "threshold-nan"])
def test_non_finite_mean_names_lam(call):
    with pytest.raises(ValueError, match="lam must be non-negative and finite"):
        call()


class TestPoissonTables:
    # the floors in use: tails (1e-18) and the epsilon scan at
    # epsilon = 1e-9 and 1e-12 (min(1e-18, epsilon * 1e-9))
    FLOORS = (1e-18, 1e-21)

    def test_support_end_leaves_less_than_floor(self):
        for lam in np.logspace(-3, 4, 15):
            for floor in self.FLOORS:
                end = poisson_support_end(float(lam), floor)
                assert oracles.mp_poisson_tail(end, float(lam)) < floor

    def test_rows_match_scalar_helpers(self):
        mus = np.array([0.3, 4.0, 75.0])
        pmf, tails = poisson_tables(mus, 30)
        assert pmf.shape == (3, 30) and tails.shape == (3, 31)
        for i, lam in enumerate(mus):
            for k in range(30):
                assert pmf[i, k] == pytest.approx(poisson_pmf(k, lam), rel=1e-12, abs=1e-300)
            for k in range(31):
                want = float(oracles.mp_poisson_tail(k, lam))
                assert tails[i, k] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_zero_mean_row_is_point_mass(self):
        # a zero-rate bucket gives mean 0; log(0) must never be evaluated,
        # which the suite's warnings-as-errors setting would catch
        pmf, tails = poisson_tables(np.array([0.0, 2.5, 0.0]), 6)
        for i in (0, 2):
            assert pmf[i].tolist() == [1.0, 0, 0, 0, 0, 0]
            assert tails[i].tolist() == [1.0, 0, 0, 0, 0, 0, 0]
        assert pmf[1, 3] == pytest.approx(poisson_pmf(3, 2.5), rel=1e-13)
        pmf, tails = poisson_tables(np.zeros(2), 0)
        assert pmf.shape == (2, 0) and tails.tolist() == [[1.0], [1.0]]

    def test_matches_the_full_width_tables_bit_for_bit(self):
        # the columns past n are summed a block at a time; every entry must
        # be the one a single full-width array gives
        rng = np.random.default_rng(20141408)
        width = market._TAIL_BLOCK
        for _ in range(300):
            m = int(rng.integers(0, 30))
            mus = np.exp(rng.uniform(-4.0, math.log(4000.0), m))
            mus[rng.random(m) < 0.2] = 0.0
            if rng.random() < 0.5:
                mus.sort()
            end = poisson_support_end(float(mus.max(initial=0.0)))
            n = int(rng.choice([0, 1, rng.integers(0, 60), end, end + 7]))
            self.assert_bit_equal(mus, n, self.FLOORS[rng.integers(0, 2)])
        # past-n widths of one, two and several blocks for one and many rows
        for m in (1, 7, 40):
            per_block = width // m
            for blocks in (1, 2, 5):
                lam = 0.0
                while poisson_support_end(lam) < blocks * per_block:
                    lam = 2.0 * lam + 1.0
                self.assert_bit_equal(np.linspace(0.0, lam, m), 3, 1e-18)

    @staticmethod
    def assert_bit_equal(mus, n, floor):
        pmf, tails = poisson_tables(mus, n, floor)
        want_pmf, want_tails = oracles.full_width_poisson_tables(mus, n, floor)
        assert pmf.shape == (len(mus), n) and tails.shape == (len(mus), n + 1)
        assert np.array_equal(pmf, want_pmf), (mus, n, floor)
        assert np.array_equal(tails, want_tails), (mus, n, floor)
        assert pmf.base is None and tails.base is None  # no view of a wider array

    def test_rejects_bad_means(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                poisson_tables(np.array([1.0, bad]), 4)


class TestTruncationThreshold:
    def test_reference_values(self):
        assert truncation_threshold(10.0, 1e-9) == 35
        assert truncation_threshold(20.0, 1e-9) == 53
        assert truncation_threshold(50.0, 1e-9) == 99

    def test_is_smallest_valid_cutoff(self):
        # s0 must satisfy tail(s0) < eps <= tail(s0 - 1).
        for lam in (0.5, 3.0, 10.0, 20.0, 50.0):
            for eps in (1e-6, 1e-9):
                s0 = truncation_threshold(lam, eps)
                assert oracles.mp_poisson_tail(s0, lam) < eps
                if s0 > 0:
                    assert oracles.mp_poisson_tail(s0 - 1, lam) >= eps

    def test_head_mass_exceeds_one_minus_eps(self):
        for lam in (0.25, 2.0, 8.0, 33.0):
            for eps in (1e-6, 1e-9, 1e-12):
                s0 = truncation_threshold(lam, eps)
                head = math.fsum(poisson_pmf(k, lam) for k in range(s0))
                assert head > 1.0 - eps

    def test_zero_rate(self):
        assert truncation_threshold(0.0, 1e-9) == 1

    def test_is_the_cap_of_the_solver_tables(self):
        """The solver builds one table for many means at once, sized by the
        largest; each row's cap is the threshold of its own mean, or N."""
        lams = np.logspace(-3, 4, 57)
        for eps in (1e-6, 1e-9, 1e-12):
            s0 = np.array([truncation_threshold(float(lam), eps) for lam in lams])
            for n_max in (int(s0.max()) + 3, 40, 1):
                caps = _transition_tables(lams, n_max, eps)[2]
                assert caps.tolist() == np.minimum(s0, n_max).tolist()

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            truncation_threshold(5.0, 0.0)
        with pytest.raises(ValueError):
            truncation_threshold(5.0, 1.0)

    def test_epsilon_whose_table_floor_underflows(self):
        # 1e-9 * 1e-320 is 0.0, which leaves the tables no support end
        with pytest.raises(ValueError, match="epsilon 1e-320 is too small"):
            truncation_threshold(10.0, 1e-320)
        # 1e-9 * 1e-314 is a subnormal, a floor like any other
        assert truncation_threshold(10.0, 1e-314) > truncation_threshold(10.0, 1e-300)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="lam must be non-negative"):
            truncation_threshold(-1.0, 1e-9)


class TestLogisticAcceptance:
    def test_reference_point(self):
        model = LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0)
        want = oracles.mp_logistic_probability(15.0, 15.0, -0.39, 2000.0)
        got = model.probability(15.0)
        assert abs(got - float(want)) < 1e-12
        assert got == pytest.approx(0.0020037, abs=5e-7)

    def test_zero_mass_accepts_everything(self):
        model = LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=0.0)
        for price in (0.0, 1.0, 40.0):
            assert model.probability(price) == 1.0

    def test_matches_high_precision_curve(self):
        model = LogisticAcceptance(scale_s=14.833127, bias_b=-0.393896, market_mass_m=2000.0)
        for price in (0.0, 5.0, 15.0, 30.0, 75.0):
            want = oracles.mp_logistic_probability(price, 14.833127, -0.393896, 2000.0)
            assert model.probability(price) == pytest.approx(float(want), rel=1e-12)

    def test_strictly_increasing(self):
        model = LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0)
        probs = [model.probability(float(c)) for c in range(0, 61)]
        for lo, hi in zip(probs, probs[1:]):
            assert hi > lo

    def test_extreme_prices_stay_bounded(self):
        model = LogisticAcceptance(scale_s=2.0, bias_b=5.0, market_mass_m=10.0)
        assert 0.0 < model.probability(0.0) < 1.0
        assert model.probability(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_price_rejected(self):
        # the +-700 clamp must not turn NaN into a tiny probability
        for mass in (10.0, 0.0):
            model = LogisticAcceptance(scale_s=2.0, bias_b=5.0, market_mass_m=mass)
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    model.probability(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticAcceptance(scale_s=0.0, bias_b=0.0, market_mass_m=1.0)
        with pytest.raises(ValueError):
            LogisticAcceptance(scale_s=1.0, bias_b=0.0, market_mass_m=-2.0)
        for bad in ("15", True, None, 10**400):
            with pytest.raises(ValueError, match="scale_s"):
                LogisticAcceptance(scale_s=bad, bias_b=0.0, market_mass_m=1.0)
        model = LogisticAcceptance(scale_s=15, bias_b=np.float32(-0.5), market_mass_m=2000)
        assert model == LogisticAcceptance(15.0, -0.5, 2000.0)
        assert {type(v) for v in vars(model).values()} == {float}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bias_rejected(self, bad):
        with pytest.raises(ValueError, match="bias_b must be finite"):
            LogisticAcceptance(scale_s=15.0, bias_b=bad, market_mass_m=2000.0)


class TestTabulatedAcceptance:
    def test_lookup(self):
        model = TabulatedAcceptance({0: 0.1, 1: 0.25, 2: 0.6})
        assert model.probability(1) == 0.25
        assert model.probability(2.0) == 0.6

    def test_unknown_price_rejected(self):
        model = TabulatedAcceptance({0: 0.1, 1: 0.25})
        with pytest.raises(DataError):
            model.probability(3)
        with pytest.raises(DataError, match="price not in model: 0.5"):
            model.probability(0.5)

    def test_must_be_monotone(self):
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: 0.5, 1: 0.4})

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="needs at least one entry"):
            TabulatedAcceptance({})

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: -0.1, 1: 0.5})
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: 0.5, 1: 1.5})

    def test_plateau_allowed(self):
        model = TabulatedAcceptance({0: 0.3, 1: 0.3, 2: 0.3})
        assert model.probability(2) == 0.3

    def test_prices_are_integers(self):
        for bad in (1.7, 1.0, True, "1"):
            with pytest.raises(ValueError, match="price must be an integer"):
                TabulatedAcceptance({0: 0.1, bad: 0.5})
        with pytest.raises(ValueError, match="probability for price 1 must be a number"):
            TabulatedAcceptance({0: 0.1, 1: "0.5"})
        model = TabulatedAcceptance({np.int64(0): np.float32(0.5), 1: 1})
        assert [type(c) for c in model.entries] == [int, int]
        assert [type(p) for p in model.entries.values()] == [float, float]


class TestPriceGrid:
    def test_unit_step(self):
        grid = PriceGrid(0, 5)
        assert list(grid.prices()) == [0, 1, 2, 3, 4, 5]
        assert len(grid) == 6

    def test_coarse_step(self):
        grid = PriceGrid(5, 20, step=5)
        assert list(grid.prices()) == [5, 10, 15, 20]

    def test_single_price(self):
        grid = PriceGrid(7, 7)
        assert list(grid.prices()) == [7]

    def test_validation(self):
        with pytest.raises(ValueError):
            PriceGrid(10, 5)
        with pytest.raises(ValueError):
            PriceGrid(0, 10, step=3)
        with pytest.raises(ValueError):
            PriceGrid(0, 10, step=0)
        with pytest.raises(ValueError):
            PriceGrid(-2, 5)
        for bad in ((0.5, 10.5), (True, 10), (0, 10, 1.0), (0, "10"), (0, None)):
            with pytest.raises(ValueError, match="must be an integer"):
                PriceGrid(*bad)
        assert list(PriceGrid(np.int64(2), np.int64(4)).prices()) == [2, 3, 4]


class TestArrivalProfile:
    def test_window_counting(self):
        profile = ArrivalProfile(bucket_seconds=1200, rates=(6.0, 6.0), periodic=True)
        assert profile.expected_arrivals(0.0, 2400.0) == pytest.approx(12.0)
        assert profile.expected_arrivals(600.0, 1800.0) == pytest.approx(6.0)

    def test_periodic_wraps(self):
        profile = ArrivalProfile(bucket_seconds=100, rates=(2.0, 8.0), periodic=True)
        assert profile.expected_arrivals(0.0, 200.0) == pytest.approx(10.0)
        assert profile.expected_arrivals(150.0, 250.0) == pytest.approx(5.0)
        assert profile.expected_arrivals(0.0, 1000.0) == pytest.approx(50.0)

    def test_full_period_total(self):
        rates = (3.0, 1.5, 7.0, 2.25)
        profile = ArrivalProfile(bucket_seconds=300, rates=rates, periodic=True)
        assert profile.expected_arrivals(0.0, 1200.0) == pytest.approx(sum(rates))

    def test_additive_over_adjacent_windows(self):
        rng = np.random.default_rng(7)
        rates = tuple(float(r) for r in rng.uniform(0.0, 9.0, size=12))
        profile = ArrivalProfile(bucket_seconds=450, rates=rates, periodic=True)
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(0.0, 3 * 450 * 12, size=3))
            whole = profile.expected_arrivals(float(a), float(c))
            split = profile.expected_arrivals(float(a), float(b)) + profile.expected_arrivals(float(b), float(c))
            assert abs(whole - split) < 1e-12 * max(1.0, whole)

    def test_monotone_in_window(self):
        profile = ArrivalProfile(bucket_seconds=60, rates=(0.0, 5.0, 2.0), periodic=True)
        prev = 0.0
        for end in np.linspace(0.0, 540.0, 70):
            cur = profile.expected_arrivals(0.0, float(end))
            assert cur >= prev - 1e-12
            prev = cur

    def test_empty_window(self):
        profile = ArrivalProfile(bucket_seconds=60, rates=(5.0,))
        assert profile.expected_arrivals(30.0, 30.0) == 0.0

    def test_non_periodic_bounds(self):
        profile = ArrivalProfile(bucket_seconds=60, rates=(5.0, 3.0), periodic=False)
        assert profile.expected_arrivals(0.0, 120.0) == pytest.approx(8.0)
        with pytest.raises(DataError):
            profile.expected_arrivals(0.0, 121.0)

    def test_time_at_inverts_cumulative(self):
        """_time_at maps cumulative intensity back to seconds into the span,
        and never into the inside of a zero-rate bucket."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            buckets = int(rng.integers(1, 12))
            width = int(rng.choice([1, 60, 1200]))
            rates = rng.uniform(0.1, 9.0, buckets)
            rates[rng.random(buckets) < 0.4] = 0.0
            rates[rng.integers(buckets)] = float(rng.uniform(0.1, 9.0))  # one live bucket
            periodic = bool(rng.random() < 0.5)
            profile = ArrivalProfile(width, tuple(rates.tolist()), periodic=periodic)
            total = float(np.sum(rates))
            prefix = np.concatenate(([0.0], np.cumsum(rates)))
            r = np.concatenate((rng.uniform(0.0, total, 200), prefix))
            t = profile._time_at(r)
            assert np.all((t >= 0.0) & (t <= profile.span_seconds))
            back = np.array([profile.expected_arrivals(0.0, float(x)) for x in t])
            np.testing.assert_allclose(back, r, rtol=0, atol=1e-12 * total)
            k = np.minimum(t // width, buckets - 1).astype(int)
            assert not np.any((t > k * width) & (rates[k] == 0.0))
            # and forward then back is the identity inside live buckets
            live = np.flatnonzero(rates)
            s = (live[rng.integers(len(live), size=50)] + rng.random(50)) * width
            fwd = np.array([profile.expected_arrivals(0.0, float(x)) for x in s])
            np.testing.assert_allclose(profile._time_at(fwd), s, rtol=0,
                                       atol=1e-9 * profile.span_seconds)

    def test_span_and_mean_rate(self):
        profile = ArrivalProfile(bucket_seconds=1200, rates=(6.0, 6.0))
        assert profile.span_seconds == 2400.0
        assert profile.mean_rate_per_hour() == pytest.approx(18.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProfile(bucket_seconds=0, rates=(1.0,))
        with pytest.raises(ValueError):
            ArrivalProfile(bucket_seconds=60, rates=())
        with pytest.raises(ValueError):
            ArrivalProfile(bucket_seconds=60, rates=(1.0, -0.5))
        for bad in (0.5, 60.0, True, "60"):
            with pytest.raises(ValueError, match="bucket_seconds must be an integer"):
                ArrivalProfile(bucket_seconds=bad, rates=(1.0,))
        for bad in ("no", 0, 1.0, None):
            with pytest.raises(ValueError, match="periodic must be a bool"):
                ArrivalProfile(bucket_seconds=60, rates=(1.0,), periodic=bad)
        assert ArrivalProfile(60, (1.0,), periodic=np.bool_(True)).periodic is True
        for bad in (("6", 1.0), (2.0, True)):
            with pytest.raises(ValueError, match="rates must be a number"):
                ArrivalProfile(bucket_seconds=60, rates=bad)
        profile = ArrivalProfile(np.int64(60), np.array([1.5, 2.0], dtype=np.float32))
        assert type(profile.bucket_seconds) is int
        assert profile.rates == (1.5, 2.0) and type(profile.rates[0]) is float


class TestSerialization:
    def test_profile_round_trip(self):
        profile = ArrivalProfile(bucket_seconds=300, rates=(1.0, 2.5, 0.0), periodic=True)
        doc = profile_to_dict(profile)
        back = profile_from_dict(doc)
        assert back.bucket_seconds == profile.bucket_seconds
        assert back.rates == profile.rates
        assert back.periodic is True

    def test_logistic_round_trip(self):
        model = LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0)
        back = model_from_dict(model_to_dict(model))
        assert isinstance(back, LogisticAcceptance)
        for price in (0.0, 10.0, 33.0):
            assert back.probability(price) == model.probability(price)

    def test_tabulated_round_trip(self):
        model = TabulatedAcceptance({0: 0.05, 5: 0.4, 9: 0.9})
        back = model_from_dict(model_to_dict(model))
        assert isinstance(back, TabulatedAcceptance)
        assert back.probability(5) == 0.4

    def test_grid_round_trip(self):
        grid = PriceGrid(5, 20, step=5)
        back = grid_from_dict(grid_to_dict(grid))
        assert list(back.prices()) == list(grid.prices())

    def test_malformed_documents_rejected(self):
        with pytest.raises(DataError):
            model_from_dict({"kind": "mystery"})
        with pytest.raises(DataError):
            model_from_dict({})
        with pytest.raises(DataError):
            profile_from_dict({"bucket_seconds": 60})
        with pytest.raises(DataError):
            grid_from_dict({"min_price": 0})

    def test_unknown_model_type(self):
        with pytest.raises(TypeError, match="unknown acceptance model type"):
            model_to_dict(AcceptanceModel())
        with pytest.raises(DataError, match="^unknown acceptance model type: 'nope'$"):
            model_from_dict({"type": "nope"})



_MODEL = LogisticAcceptance(scale_s=15.0, bias_b=0.0, market_mass_m=1.0)
_GRID = PriceGrid(min_price=0, max_price=10)
# constructor -> keyword arguments that build it
_VALID = {
    ArrivalProfile: {"bucket_seconds": 60, "rates": (1.0,)},
    LogisticAcceptance: {"scale_s": 15.0, "bias_b": 0.0, "market_mass_m": 1.0},
    PriceGrid: {"min_price": 0, "max_price": 10},
    DeadlineProblem: {"n_tasks": 2, "n_intervals": 2, "interval_seconds": 60,
                      "profile": ArrivalProfile(60, (1.0,), periodic=True),
                      "model": _MODEL, "grid": _GRID},
    BudgetProblem: {"n_tasks": 2, "budget": 10, "model": _MODEL, "grid": _GRID,
                    "mean_rate": 1.0},
    FixedRateMarket: {"workers_per_interval": 1.0},
    ArrivalBasedMarket: {"mean_rate_per_hour": 1.0},
    TradeoffProblem: {"n_tasks": 2, "alpha": 1.0, "model": _MODEL, "grid": _GRID,
                      "market": ArrivalBasedMarket(1.0)},
    FixedPrice: {"price": 5},
    SimulationConfig: {"trials": 1, "seed": 0},
}
_OUT_OF_DOMAIN = [
    (ArrivalProfile, "bucket_seconds", 0, ">= 1"),
    (LogisticAcceptance, "scale_s", math.inf, "positive and finite"),
    (LogisticAcceptance, "bias_b", math.nan, "finite"),
    (LogisticAcceptance, "market_mass_m", -1.0, "finite and >= 0"),
    (PriceGrid, "min_price", -1, ">= 0"),
    (PriceGrid, "step", 0, ">= 1"),
    (DeadlineProblem, "n_tasks", 0, ">= 1"),
    (DeadlineProblem, "n_intervals", 0, ">= 1"),
    (DeadlineProblem, "interval_seconds", 0, ">= 1"),
    (DeadlineProblem, "start_offset_seconds", -1, ">= 0"),
    (DeadlineProblem, "epsilon", 1.0, "in [0, 1); 0 disables truncation"),
    (DeadlineProblem, "existence_alpha", math.inf, "finite and >= 0"),
    (DeadlineProblem, "penalty", math.nan, "finite and >= 0"),
    (BudgetProblem, "n_tasks", 0, ">= 1"),
    (BudgetProblem, "budget", -1, ">= 0"),
    (BudgetProblem, "mean_rate", 0, "positive and finite"),
    (FixedRateMarket, "workers_per_interval", -math.inf, "positive and finite"),
    (ArrivalBasedMarket, "mean_rate_per_hour", math.nan, "positive and finite"),
    (TradeoffProblem, "n_tasks", 0, ">= 1"),
    (TradeoffProblem, "alpha", -math.inf, "finite and >= 0"),
    (FixedPrice, "price", -1, ">= 0"),
    (SimulationConfig, "trials", 0, ">= 1"),
    (SimulationConfig, "seed", 2**63, "in [0, 2**63)"),
]


class TestFieldDomains:
    """Every stored field outside its domain raises DomainError as
    '<field> must be <phrase>', whichever constructor stores it."""

    @pytest.mark.parametrize("cls, name, value, phrase", _OUT_OF_DOMAIN,
                             ids=[f"{c.__name__}.{n}" for c, n, _, _ in _OUT_OF_DOMAIN])
    def test_out_of_domain_field(self, cls, name, value, phrase):
        cls(**_VALID[cls])
        with pytest.raises(DomainError) as info:
            cls(**{**_VALID[cls], name: value})
        assert str(info.value) == f"{name} must be {phrase}"

    def test_types_are_checked_before_domains(self):
        with pytest.raises(DomainError, match="^max_price must be an integer, got 2.5$"):
            PriceGrid(min_price=-1, max_price=2.5)
