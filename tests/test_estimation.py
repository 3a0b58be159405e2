"""Data ingestion and model fitting from marketplace observations."""

import math

import numpy as np
import pytest

import oracles
from crowdpricer import (
    ArrivalProfile,
    DataError,
    FitResult,
    TaskGroupObservation,
    derive_acceptance_model,
    fit_periodic_profile,
    fit_wage_utility,
    load_arrival_csv,
    load_observations_csv,
    write_arrival_csv,
)
from crowdpricer.errors import DomainError
from crowdpricer.estimation import load_acceptance_table


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadArrivalCsv:
    def test_negative_time_rejected(self, tmp_path):
        p = write_csv(tmp_path / "neg.csv", "t_seconds,count\n-600,1\n0,2\n")
        with pytest.raises(DataError, match="row 2: t_seconds must be non-negative"):
            load_arrival_csv(p)

    def test_three_row_example(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "t_seconds,count\n0,5\n1200,7\n2400,0\n")
        prof = load_arrival_csv(p)
        assert prof.bucket_seconds == 1200
        assert prof.rates == (5.0, 7.0, 0.0)
        assert prof.periodic is False

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "t_seconds,count\n0,5\n")
        with pytest.raises(DataError, match="at least 2 rows"):
            load_arrival_csv(p)

    def test_round_trip(self, tmp_path):
        prof = ArrivalProfile(300, (0.0, 2.25, 17.5, 3.0))
        p = tmp_path / "rt.csv"
        write_arrival_csv(prof, str(p))
        back = load_arrival_csv(str(p))
        assert back.bucket_seconds == prof.bucket_seconds
        assert back.rates == prof.rates

    def test_cumulative_snapshots(self, tmp_path):
        p = write_csv(
            tmp_path / "c.csv",
            "t_seconds,count\n0,10\n600,7\n1200,8\n1800,2\n")
        prof = load_arrival_csv(p, cumulative_snapshot=True)
        # decreases become rates; the increase clamps at zero
        assert prof.rates == (3.0, 0.0, 6.0)
        assert prof.bucket_seconds == 600

    def test_errors_name_the_row(self, tmp_path):
        cases = [
            ("wrong,header\n0,1\n600,2\n", "row 1"),
            ("t_seconds,count\n0,1,9\n600,2\n", "row 2"),
            ("t_seconds,count\n0,1\nabc,2\n", "row 3"),
            ("t_seconds,count\n0,1\n600,xyz\n", "row 3"),
            ("t_seconds,count\n0,1\n600,-4\n", "row 3"),
            ("t_seconds,count\n600,1\n0,2\n", "row 3"),
            ("t_seconds,count\n0,1\n600,2\n1300,3\n", "row 4"),
            # the blank line is row 3, so the bad spacing is on row 5
            ("t_seconds,count\n0,5\n\n600,6\n1300,7\n", "row 5: spacing 700"),
            # int() and float() read these, but a CSV number is plain ASCII decimal
            ("t_seconds,count\n0,1\n1_200,2\n", "row 3: t_seconds must be an integer"),
            ("t_seconds,count\n0,1\n600,\u0667\n", "row 3: count must be a number"),
        ]
        for text, needle in cases:
            p = write_csv(tmp_path / "bad.csv", text)
            with pytest.raises(DataError, match=needle):
                load_arrival_csv(p)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_arrival_csv(p)

    def test_trailing_blank_line_tolerated(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "t_seconds,count\n0,1\n600,2\n\n")
        assert load_arrival_csv(p).rates == (1.0, 2.0)

    def test_fuzzed_conformant_files_load(self, tmp_path):
        rng = np.random.default_rng(19)
        for trial in range(25):
            bucket = int(rng.integers(1, 4)) * 300
            m = int(rng.integers(2, 40))
            rates = [round(float(r), 4) for r in rng.uniform(0.0, 50.0, m)]
            lines = ["t_seconds,count"]
            lines += [f"{i * bucket},{r!r}" for i, r in enumerate(rates)]
            p = write_csv(tmp_path / f"f{trial}.csv", "\n".join(lines) + "\n")
            prof = load_arrival_csv(p)
            assert prof.bucket_seconds == bucket
            assert prof.rates == tuple(rates)


class TestLoadAcceptanceTable:
    def test_constructor_error_names_the_file(self, tmp_path):
        p = write_csv(tmp_path / "down.csv", "price_cents,probability\n0,0.5\n1,0.4\n")
        with pytest.raises(DataError) as info:
            load_acceptance_table(p)
        assert str(info.value) == (f"{p}: probabilities must be non-decreasing in price: "
                                   f"p(1)=0.4 < p(0)=0.5")


class TestFitPeriodicProfile:
    def test_two_profile_average(self):
        a = ArrivalProfile(600, (2.0, 4.0))
        b = ArrivalProfile(600, (4.0, 8.0))
        out = fit_periodic_profile([a, b], period_buckets=2)
        assert out.rates == (3.0, 6.0)
        assert out.periodic is True
        assert out.bucket_seconds == 600

    def test_folding_within_one_profile(self):
        prof = ArrivalProfile(600, (1.0, 2.0, 3.0, 4.0))
        out = fit_periodic_profile([prof], period_buckets=2)
        assert out.rates == (2.0, 3.0)

    def test_idempotent(self):
        prof = ArrivalProfile(600, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        once = fit_periodic_profile([prof], period_buckets=3)
        twice = fit_periodic_profile([once], period_buckets=3)
        assert twice.rates == once.rates

    def test_commutes_with_uniform_scaling(self):
        rng = np.random.default_rng(3)
        rates = tuple(float(r) for r in rng.uniform(0.0, 9.0, 12))
        prof = ArrivalProfile(60, rates)
        scaled = ArrivalProfile(60, tuple(2.5 * r for r in rates))
        a = fit_periodic_profile([prof], period_buckets=4)
        b = fit_periodic_profile([scaled], period_buckets=4)
        for x, y in zip(a.rates, b.rates):
            assert y == pytest.approx(2.5 * x, rel=1e-12)

    @pytest.mark.parametrize("period", [1, 3, 7, 72, 199, 504])
    def test_bit_for_bit_the_per_rate_loop(self, weekly_profile, period):
        # rates over 1e-300..1e300, so any other order of addition shows
        rng = np.random.default_rng(period)
        wide = ArrivalProfile(1200, tuple(np.exp(rng.uniform(-690.0, 690.0, 1009)).tolist()))
        for profiles in ([weekly_profile], [weekly_profile, wide], [wide]):
            got = fit_periodic_profile(profiles, period_buckets=period).rates
            want = oracles.folded_rates([p.rates for p in profiles], period)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_periodic_profile([], period_buckets=2)
        a = ArrivalProfile(600, (1.0, 2.0))
        b = ArrivalProfile(300, (1.0, 2.0))
        with pytest.raises(DataError, match="bucket size"):
            fit_periodic_profile([a, b], period_buckets=2)
        with pytest.raises(DataError, match="shorter than the period"):
            fit_periodic_profile([a], period_buckets=5)

    def test_period_of_no_buckets_is_a_domain_error(self):
        with pytest.raises(DomainError, match="period_buckets must be >= 1, got 0"):
            fit_periodic_profile([ArrivalProfile(600, (1.0, 2.0))], 0)

    @pytest.mark.parametrize("period", [True, 2.0, 2.5, "2"])
    def test_period_that_is_not_an_integer_is_a_domain_error(self, period):
        # True would fold as a period of 1; the others raised bare TypeErrors
        with pytest.raises(DomainError) as info:
            fit_periodic_profile([ArrivalProfile(600, (1.0, 2.0))], period)
        assert str(info.value) == f"period_buckets must be an integer, got {period!r}"

    def test_numpy_integer_period(self):
        prof = ArrivalProfile(600, (1.0, 2.0, 3.0, 4.0))
        assert fit_periodic_profile([prof], np.int64(2)).rates == (2.0, 3.0)


class TestLoadObservationsCsv:
    def test_parses_rows(self, tmp_path):
        p = write_csv(
            tmp_path / "o.csv",
            "wage_per_second,workload_per_hour,task_type\n"
            "0.001,120.5,audio\n0.002,95.0,audio\n")
        obs = load_observations_csv(p)
        assert len(obs) == 2
        assert obs[0] == TaskGroupObservation(0.001, 120.5, "audio")

    def test_errors(self, tmp_path):
        cases = [
            ("bad,header,x\n0.1,2,a\n", "row 1"),
            ("wage_per_second,workload_per_hour,task_type\n0.1,2\n", "row 2"),
            ("wage_per_second,workload_per_hour,task_type\n0.1,0,a\n", "positive"),
            ("wage_per_second,workload_per_hour,task_type\nnan,2,a\n", "finite"),
            ("wage_per_second,workload_per_hour,task_type\n0.1,2,\n", "non-empty"),
            ("wage_per_second,workload_per_hour,task_type\n", "no observation rows"),
        ]
        for text, needle in cases:
            p = write_csv(tmp_path / "bad.csv", text)
            with pytest.raises(DataError, match=needle):
                load_observations_csv(p)


class TestFitWageUtility:
    def test_two_points_fit_exactly(self):
        obs = [
            TaskGroupObservation(0.001, math.exp(0.001 * 500 + 2.0), "t"),
            TaskGroupObservation(0.004, math.exp(0.004 * 500 + 2.0), "t"),
        ]
        fit = fit_wage_utility(obs)
        assert fit.linear_coefficient == pytest.approx(500.0, abs=1e-9)
        assert fit.bias == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_recovers_reference_coefficients(self):
        wages = [0.0005, 0.001, 0.0015, 0.002, 0.003, 0.0045]
        obs = [
            TaskGroupObservation(w, math.exp(809.0 * w + 6.28), "writing")
            for w in wages
        ]
        fit = fit_wage_utility(obs)
        assert fit.linear_coefficient == pytest.approx(809.0, abs=1e-9)
        assert fit.bias == pytest.approx(6.28, abs=1e-9)
        assert fit.n_points == 6

    def test_matches_high_precision_ols(self):
        rng = np.random.default_rng(47)
        types = ["a", "b", "c"]
        obs = []
        for _ in range(40):
            w = float(rng.uniform(0.0002, 0.006))
            t = types[int(rng.integers(0, 3))]
            base = {"a": 5.1, "b": 6.0, "c": 7.3}[t]
            y = 700.0 * w + base + float(rng.normal(0.0, 0.15))
            obs.append(TaskGroupObservation(w, math.exp(y), t))
        fit = fit_wage_utility(obs, task_type="b")
        rows = []
        targets = []
        for o in obs:
            dummy = [1.0 if o.task_type == t else 0.0 for t in types]
            rows.append([o.wage_per_second] + dummy)
            targets.append(math.log(o.workload_per_hour))
        beta = oracles.mp_ols(rows, targets)
        assert fit.linear_coefficient == pytest.approx(beta[0], abs=1e-10)
        for i, t in enumerate(types):
            assert fit.intercepts[t] == pytest.approx(beta[1 + i], abs=1e-10)
        assert fit.bias == fit.intercepts["b"]

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(53)
        obs = [
            TaskGroupObservation(
                float(rng.uniform(0.0005, 0.005)),
                math.exp(float(rng.uniform(3.0, 8.0))),
                "t",
            )
            for _ in range(30)
        ]
        fit = fit_wage_utility(obs)
        wages = np.array([o.wage_per_second for o in obs])
        y = np.array([math.log(o.workload_per_hour) for o in obs])
        resid = y - (fit.linear_coefficient * wages + fit.bias)
        assert abs(float(resid @ wages)) < 1e-9
        assert abs(float(resid.sum())) < 1e-9

    def test_degenerate_design_rejected(self):
        obs = [
            TaskGroupObservation(0.002, 100.0, "t"),
            TaskGroupObservation(0.002, 140.0, "t"),
            TaskGroupObservation(0.002, 90.0, "t"),
        ]
        with pytest.raises(DataError, match="degenerate"):
            fit_wage_utility(obs)

    def test_type_selection(self):
        obs = [
            TaskGroupObservation(0.001, 50.0, "a"),
            TaskGroupObservation(0.002, 70.0, "a"),
            TaskGroupObservation(0.001, 90.0, "b"),
            TaskGroupObservation(0.003, 120.0, "b"),
        ]
        with pytest.raises(DataError, match="multiple task types"):
            fit_wage_utility(obs)
        fit = fit_wage_utility(obs, task_type="a")
        assert fit.bias == fit.intercepts["a"]
        with pytest.raises(DataError, match="not present"):
            fit_wage_utility(obs, task_type="zzz")

    def test_too_few_observations(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_wage_utility([TaskGroupObservation(0.001, 50.0, "t")])


def reference_fit():
    return FitResult(
        linear_coefficient=809.0, bias=6.28, intercepts={"writing": 6.28},
        r_squared=1.0, n_points=6)


class TestDeriveAcceptanceModel:
    def test_reference_derivation(self):
        derived = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0)
        model = derived.model
        assert model.scale_s == pytest.approx(12000.0 / 809.0, rel=1e-12)
        assert model.market_mass_m == 2000.0
        assert model.bias_b == pytest.approx(math.log(360.0) - 6.28, rel=1e-12)
        # the conventional rounded parameters are within 5 percent
        assert abs(model.scale_s - 15.0) / 15.0 < 0.05
        assert abs(model.bias_b - (-0.39)) / 0.39 < 0.05
        assert abs(model.market_mass_m - 2000.0) / 2000.0 < 0.05

    def test_doubling_market_doubles_mass(self):
        a = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0)
        b = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=12000.0)
        assert b.model.market_mass_m == 2 * a.model.market_mass_m

    def test_probabilities_match_first_principles(self):
        derived = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0)
        alpha, bias = 809.0, 6.28
        mass_k = 6000.0 * 120.0
        for c in (5.0, 10.0, 20.0):
            u = c * alpha / (100.0 * 120.0) + bias
            want = math.exp(u) / (math.exp(u) + mass_k)
            got = derived.model.probability(c)
            assert abs(got - want) / want < 0.01
            assert got == pytest.approx(want, rel=1e-12)

    def test_normalization_does_not_change_probabilities(self):
        a = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0,
            mass_normalization_seconds=360.0)
        b = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0,
            mass_normalization_seconds=100.0)
        assert a.model.market_mass_m != b.model.market_mass_m
        for c in (0.0, 5.0, 15.0, 40.0):
            assert a.model.probability(c) == pytest.approx(
                b.model.probability(c), rel=1e-12)

    def test_derivation_record_is_complete(self):
        derived = derive_acceptance_model(
            reference_fit(), task_seconds=120.0, market_total_per_hour=6000.0)
        d = derived.derivation
        assert d["alpha_per_dollar_second"] == 809.0
        assert d["competing_workload_per_hour"] == 720000.0
        assert d["market_mass_m"] == 2000.0

    def test_non_positive_slope_rejected(self):
        bad = FitResult(
            linear_coefficient=-3.0, bias=1.0, intercepts={"t": 1.0},
            r_squared=0.5, n_points=4)
        with pytest.raises(DataError, match="positive"):
            derive_acceptance_model(bad, task_seconds=60.0, market_total_per_hour=100.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            derive_acceptance_model(
                reference_fit(), task_seconds=0.0, market_total_per_hour=100.0)
        with pytest.raises(ValueError):
            derive_acceptance_model(
                reference_fit(), task_seconds=60.0, market_total_per_hour=0.0)
        with pytest.raises(ValueError):
            derive_acceptance_model(
                reference_fit(), task_seconds=60.0, market_total_per_hour=100.0,
                mass_normalization_seconds=-1.0)
