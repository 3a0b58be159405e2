"""Market primitives: Poisson helpers, acceptance models, grids, profiles."""

import math

import numpy as np
import pytest

import oracles
from crowdpricer import (
    ArrivalProfile,
    DataError,
    LogisticAcceptance,
    PriceGrid,
    TabulatedAcceptance,
    poisson_pmf,
    poisson_tail,
    truncation_threshold,
)
from crowdpricer.market import (
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

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            truncation_threshold(5.0, 0.0)
        with pytest.raises(ValueError):
            truncation_threshold(5.0, 1.0)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticAcceptance(scale_s=0.0, bias_b=0.0, market_mass_m=1.0)
        with pytest.raises(ValueError):
            LogisticAcceptance(scale_s=1.0, bias_b=0.0, market_mass_m=-2.0)


class TestTabulatedAcceptance:
    def test_lookup(self):
        model = TabulatedAcceptance({0: 0.1, 1: 0.25, 2: 0.6})
        assert model.probability(1) == 0.25
        assert model.probability(2.0) == 0.6

    def test_unknown_price_rejected(self):
        model = TabulatedAcceptance({0: 0.1, 1: 0.25})
        with pytest.raises(DataError):
            model.probability(3)

    def test_must_be_monotone(self):
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: 0.5, 1: 0.4})

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: -0.1, 1: 0.5})
        with pytest.raises(ValueError):
            TabulatedAcceptance({0: 0.5, 1: 1.5})

    def test_plateau_allowed(self):
        model = TabulatedAcceptance({0: 0.3, 1: 0.3, 2: 0.3})
        assert model.probability(2) == 0.3


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
