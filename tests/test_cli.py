"""End-to-end command line checks, run through subprocess."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdpricer
import crowdpricer.deadline as deadline
import crowdpricer.estimation as estimation
import crowdpricer.simulate as simulate
from conftest import cli_env

HELP_DIR = Path(__file__).parent / "data" / "help"

# 12 tasks over 2 hours, six 1200 s intervals at 6 arrivals each.
PROB_FLAGS = [
    "--tasks", "12", "--deadline-hours", "2", "--intervals", "6",
    "--arrival-csv", "arr.csv", "--acceptance-table", "tab.csv",
    "--max-price", "20", "--epsilon", "0",
]


def run_cli(cwd, *argv):
    return subprocess.run(
        [sys.executable, "-m", "crowdpricer", *argv],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def load(ws, name):
    return json.loads((ws / name).read_text())


# Reruns are byte-identical, so any test may (re)produce a shared document.
PRODUCERS = {
    "pol.json": ["solve-deadline", *PROB_FLAGS, "--out", "pol.json"],
    "alloc.json": ["solve-budget", "--tasks", "8", "--budget", "90",
                   "--acceptance-table", "tab.csv", "--max-price", "20",
                   "--min-price", "1", "--mean-rate", "30", "--out", "alloc.json"],
    "rep.json": ["simulate", "--policy", "pol.json", "--trials", "400",
                 "--seed", "9", "--out", "rep.json"],
    "base.json": ["baseline", *PROB_FLAGS, "--confidence", "0.9",
                  "--compare-policy", "pol.json", "--trials", "300",
                  "--seed", "2", "--out", "base.json"],
    "to_zero.json": ["tradeoff", "--tasks", "5", "--alpha", "0",
                     "--variant", "arrival", "--rate", "30",
                     "--acceptance-table", "tab.csv", "--max-price", "20",
                     "--min-price", "1", "--out", "to_zero.json"],
    "prof.json": ["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "3",
                  "--csv-out", "fold.csv", "--out", "prof.json"],
    "model.json": ["fit", "acceptance", "--csv", "obs.csv",
                   "--task-seconds", "120", "--market-total", "6000",
                   "--out", "model.json"],
}


def ensure(ws, name):
    if not (ws / name).exists():
        for dep in (a for a in PRODUCERS[name] if a.endswith(".json") and a != name):
            ensure(ws, dep)
        r = run_cli(ws, *PRODUCERS[name])
        assert r.returncode == 0, r.stderr
    return load(ws, name)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with input CSVs and one pre-solved policy document."""
    root = tmp_path_factory.mktemp("cli")
    (root / "arr.csv").write_text(
        "t_seconds,count\n" + "".join(f"{i * 1200},6.0\n" for i in range(6)))
    (root / "tab.csv").write_text(
        "price_cents,probability\n"
        + "".join(f"{c},{0.05 + 0.035 * c}\n" for c in range(21)))
    (root / "sat.csv").write_text(
        "price_cents,probability\n" + "".join(f"{c},1.0\n" for c in range(7)))
    (root / "obs.csv").write_text(
        "wage_per_second,workload_per_hour,task_type\n"
        + "".join(f"{w},{math.exp(809.0 * w + 6.28)},writing\n"
                  for w in (0.0005, 0.001, 0.002, 0.003)))
    (root / "cum.csv").write_text("t_seconds,count\n0,10\n900,7\n1800,8\n2700,2\n")
    (root / "bad.csv").write_text("t_seconds,count\n0,1\n")
    r = run_cli(root, "solve-deadline", *PROB_FLAGS, "--out", "pol.json")
    assert r.returncode == 0, r.stderr
    return root


class TestTopLevel:
    def test_version_matches_package(self, ws):
        r = run_cli(ws, "--version")
        assert r.returncode == 0
        assert r.stdout.strip() == crowdpricer.__version__

    def test_no_command_is_usage_error(self, ws):
        r = run_cli(ws)
        assert r.returncode == 2
        assert "usage:" in r.stderr

    @pytest.mark.parametrize("golden, argv", [
        ("root.txt", ["--help"]),
        ("solve-deadline.txt", ["solve-deadline", "--help"]),
        ("solve-budget.txt", ["solve-budget", "--help"]),
        ("simulate.txt", ["simulate", "--help"]),
        ("baseline.txt", ["baseline", "--help"]),
        ("tradeoff.txt", ["tradeoff", "--help"]),
        ("fit.txt", ["fit", "--help"]),
        ("fit-arrival.txt", ["fit", "arrival", "--help"]),
        ("fit-acceptance.txt", ["fit", "acceptance", "--help"]),
    ])
    def test_help_matches_snapshot(self, ws, golden, argv):
        r = run_cli(ws, *argv)
        assert r.returncode == 0
        assert r.stdout == (HELP_DIR / golden).read_text()


class TestSolveDeadline:
    def test_output_document_shape(self, ws):
        doc = load(ws, "pol.json")
        assert sorted(doc) == [
            "manifest", "opt", "price", "problem", "schema_version", "summary"]
        man = doc["manifest"]
        assert sorted(man) == [
            "command", "input_digests", "resolved_parameters", "tool_version"]
        assert man["command"] == "solve-deadline"
        assert man["tool_version"] == crowdpricer.__version__
        assert "out" in man["resolved_parameters"]
        want = hashlib.sha256((ws / "arr.csv").read_bytes()).hexdigest()
        assert man["input_digests"]["arr.csv"] == want

    def test_solver_choice_does_not_change_policy(self, ws):
        for solver in ("simple", "efficient"):
            r = run_cli(ws, "solve-deadline", *PROB_FLAGS,
                        "--solver", solver, "--out", f"pol_{solver}.json")
            assert r.returncode == 0, r.stderr
        a = load(ws, "pol_simple.json")
        b = load(ws, "pol_efficient.json")
        # The manifest records the resolved flags, so it is the one part
        # allowed to differ between solver choices.
        del a["manifest"], b["manifest"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_rerun_is_byte_identical(self, ws):
        argv = ["solve-deadline", *PROB_FLAGS, "--out", "pol_rerun.json"]
        assert run_cli(ws, *argv).returncode == 0
        first = (ws / "pol_rerun.json").read_bytes()
        assert run_cli(ws, *argv).returncode == 0
        assert (ws / "pol_rerun.json").read_bytes() == first

    def test_matches_library_solver(self, ws):
        doc = load(ws, "pol.json")
        _, policy = deadline.policy_from_dict(doc)
        problem = deadline.problem_from_dict(doc["problem"])
        want = deadline.solve_efficient(problem)
        assert np.array_equal(np.asarray(policy.price), np.asarray(want.price))
        assert np.allclose(np.asarray(policy.opt), np.asarray(want.opt), atol=1e-9)

    def test_missing_arrival_csv_is_usage_error(self, ws):
        r = run_cli(ws, "solve-deadline", "--tasks", "5")
        assert r.returncode == 2
        assert "--arrival-csv" in r.stderr

    def test_bound_runs_penalty_calibration(self, ws):
        r = run_cli(ws, "solve-deadline", *PROB_FLAGS,
                    "--bound", "0.5", "--out", "pol_cal.json")
        assert r.returncode == 0, r.stderr
        # the calibrated penalty is the program's choice: no warning about it
        assert "UserWarning" not in r.stderr
        doc = load(ws, "pol_cal.json")
        cal = doc["summary"]["calibration"]
        assert cal["bound"] == 0.5
        assert cal["achieved"] <= 0.5
        assert doc["summary"]["expected_remaining"] == cal["achieved"]
        # re-solving at the reported penalty reproduces the achieved value
        problem = deadline.problem_from_dict(doc["problem"])
        assert problem.penalty == doc["summary"]["penalty_cents"]
        ev = deadline.evaluate_policy_exact(problem, deadline.solve_efficient(problem))
        assert ev.expected_remaining == pytest.approx(cal["achieved"], rel=1e-12)

    def test_calibrated_penalty_below_top_price_does_not_warn(self, ws):
        r = run_cli(ws, "solve-deadline", *PROB_FLAGS,
                    "--bound", "4", "--out", "pol_cal4.json")
        assert r.returncode == 0, r.stderr
        assert load(ws, "pol_cal4.json")["summary"]["penalty_cents"] < 20
        assert "UserWarning" not in r.stderr

    def test_infeasible_bound_exits_4(self, ws):
        # price-capped logistic market cannot push remaining below 0.5
        r = run_cli(ws, "solve-deadline", "--tasks", "12", "--deadline-hours", "2",
                    "--intervals", "6", "--arrival-csv", "arr.csv",
                    "--acceptance", "15,-0.39,2000", "--max-price", "20",
                    "--epsilon", "0", "--bound", "0.5")
        assert r.returncode == 4
        assert "infeasible" in r.stderr

    def test_malformed_csv_exits_3(self, ws):
        r = run_cli(ws, "solve-deadline", "--tasks", "2", "--deadline-hours", "1",
                    "--intervals", "2", "--arrival-csv", "bad.csv",
                    "--acceptance", "15,-0.39,2000", "--max-price", "5")
        assert r.returncode == 3
        assert "at least 2 rows" in r.stderr


class TestSimulate:
    def test_policy_report_shape(self, ws):
        doc = ensure(ws, "rep.json")
        assert sorted(doc) == [
            "aggregates", "config", "manifest", "schema_version",
            "strategy_descriptor"]
        assert doc["config"] == {"trials": 400, "seed": 9, "parallel": False}
        _, policy = deadline.policy_from_dict(load(ws, "pol.json"))
        assert doc["strategy_descriptor"] == "policy:" + policy.problem_digest[:12]
        assert doc["manifest"]["command"] == "simulate"

    def test_rerun_byte_identical(self, ws):
        argv = ["simulate", "--policy", "pol.json", "--trials", "100",
                "--seed", "3", "--out", "rep_rerun.json"]
        assert run_cli(ws, *argv).returncode == 0
        first = (ws / "rep_rerun.json").read_bytes()
        assert run_cli(ws, *argv).returncode == 0
        assert (ws / "rep_rerun.json").read_bytes() == first

    def test_monte_carlo_agrees_with_exact_evaluation(self, ws):
        agg = ensure(ws, "rep.json")["aggregates"]
        doc = load(ws, "pol.json")
        _, policy = deadline.policy_from_dict(doc)
        problem = deadline.problem_from_dict(doc["problem"])
        ev = simulate.evaluate_policy_exact(problem, policy)
        assert abs(agg["mean_cost"] - ev.expected_cost) <= 3 * agg["se_cost"]
        assert (abs(agg["mean_remaining"] - ev.expected_remaining)
                <= 3 * agg["se_remaining"])

    def test_policy_problem_digest_mismatch_exits_3(self, ws):
        (ws / "arr_other.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},7.0\n" for i in range(6)))
        flags = list(PROB_FLAGS)
        flags[flags.index("arr.csv")] = "arr_other.csv"
        r = run_cli(ws, "simulate", "--policy", "pol.json", *flags, "--trials", "10")
        assert r.returncode == 3
        assert "mismatch" in r.stderr
        # the message names the digest the policy was solved for
        _, policy = deadline.policy_from_dict(load(ws, "pol.json"))
        assert policy.problem_digest in r.stderr

    def test_fixed_price_saturated_market(self, ws):
        r = run_cli(ws, "simulate", "--fixed-price", "4", "--tasks", "5",
                    "--deadline-hours", "1", "--intervals", "2",
                    "--arrival-csv", "arr.csv", "--acceptance-table", "sat.csv",
                    "--max-price", "6", "--epsilon", "0", "--trials", "50",
                    "--seed", "1", "--out", "rep_sat.json")
        assert r.returncode == 0, r.stderr
        agg = load(ws, "rep_sat.json")["aggregates"]
        assert agg["mean_cost"] == 20.0
        assert agg["se_cost"] == 0.0
        assert agg["completion_rate"] == 1.0
        assert agg["mean_remaining"] == 0.0

    def test_per_trial_json_and_csv(self, ws):
        r = run_cli(ws, "simulate", "--fixed-price", "4", "--tasks", "5",
                    "--deadline-hours", "1", "--intervals", "2",
                    "--arrival-csv", "arr.csv", "--acceptance-table", "sat.csv",
                    "--max-price", "6", "--epsilon", "0", "--trials", "50",
                    "--seed", "1", "--per-trial", "--csv", "trials.csv",
                    "--out", "rep_pt.json")
        assert r.returncode == 0, r.stderr
        doc = load(ws, "rep_pt.json")
        assert len(doc["per_trial"]) == 50
        lines = (ws / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,cost_cents,remaining,completion_seconds"
        assert len(lines) == 51

    def test_allocation_round_trip(self, ws):
        alloc = ensure(ws, "alloc.json")["allocation"]
        r = run_cli(ws, "simulate", "--alloc", "alloc.json", "--arrival-csv",
                    "arr.csv", "--periodic", "--trials", "300", "--seed", "4",
                    "--out", "rep_alloc.json")
        assert r.returncode == 0, r.stderr
        doc = load(ws, "rep_alloc.json")
        parts = ",".join(f"{e['price']}x{e['count']}" for e in alloc["entries"])
        assert doc["strategy_descriptor"] == f"allocation:{parts}"
        agg = doc["aggregates"]
        # every slot fills under a periodic profile, so cost is deterministic
        assert agg["mean_cost"] == alloc["total_cost_cents"]
        assert (abs(agg["mean_workers"] - alloc["expected_workers"])
                <= 3 * agg["se_workers"])

    def test_alloc_rejects_model_flags(self, ws):
        ensure(ws, "alloc.json")
        r = run_cli(ws, "simulate", "--alloc", "alloc.json", "--arrival-csv",
                    "arr.csv", "--acceptance-table", "tab.csv", "--trials", "10")
        assert r.returncode == 2
        assert "cannot be combined" in r.stderr


class TestSolveBudget:
    def test_allocation_document(self, ws):
        r = run_cli(ws, "solve-budget", "--tasks", "8", "--budget", "90",
                    "--acceptance-table", "tab.csv", "--max-price", "20",
                    "--min-price", "1", "--mean-rate", "30", "--out", "alloc_doc.json")
        assert r.returncode == 0, r.stderr
        doc = load(ws, "alloc_doc.json")
        assert sorted(doc) == [
            "allocation", "manifest", "method", "problem", "schema_version"]
        assert doc["method"] == "lp"
        alloc = doc["allocation"]
        assert sum(e["count"] for e in alloc["entries"]) == 8
        assert alloc["total_cost_cents"] <= 90
        assert len(alloc["entries"]) <= 2
        for e in alloc["entries"]:
            assert 1 <= e["price"] <= 20

    def test_infeasible_budget_exits_4(self, ws):
        r = run_cli(ws, "solve-budget", "--tasks", "10", "--budget", "5",
                    "--acceptance-table", "tab.csv", "--max-price", "20",
                    "--min-price", "1", "--mean-rate", "30")
        assert r.returncode == 4
        assert "budget below minimum" in r.stderr


class TestBaseline:
    def test_document_and_stdout_agree(self, ws):
        (ws / "base.json").unlink(missing_ok=True)
        r = run_cli(ws, *PRODUCERS["base.json"])
        assert r.returncode == 0, r.stderr
        doc = load(ws, "base.json")
        assert sorted(doc) == [
            "baseline", "comparison", "manifest", "schema_version", "simulation"]
        base = doc["baseline"]
        assert f"baseline_price_cents: {base['price_cents']}" in r.stdout
        assert base["completion_probability"] >= 0.9
        assert base["price_floor_cents"] < base["price_cents"]
        comp = doc["comparison"]
        assert comp["cost_reduction"] == pytest.approx(
            1.0 - comp["dynamic_expected_cost_cents"]
            / comp["fixed_expected_cost_cents"], rel=1e-12)

    def test_price_brackets_the_confidence(self, ws):
        doc = ensure(ws, "base.json")
        problem = deadline.problem_from_dict(load(ws, "pol.json")["problem"])
        price = doc["baseline"]["price_cents"]
        assert simulate.completion_probability_fixed(problem, price) >= 0.9
        assert simulate.completion_probability_fixed(problem, price - 1) < 0.9

    def test_dynamic_cost_is_the_exact_policy_cost(self, ws):
        doc = ensure(ws, "base.json")
        pol_doc = load(ws, "pol.json")
        _, policy = deadline.policy_from_dict(pol_doc)
        problem = deadline.problem_from_dict(pol_doc["problem"])
        ev = simulate.evaluate_policy_exact(problem, policy)
        assert doc["comparison"]["dynamic_expected_cost_cents"] == pytest.approx(
            ev.expected_cost, rel=1e-12)

    def test_bad_confidence_exits_5(self, ws):
        r = run_cli(ws, "baseline", *PROB_FLAGS, "--confidence", "1.0",
                    "--trials", "10")
        assert r.returncode == 5
        assert "confidence" in r.stderr


class TestTradeoff:
    def test_zero_alpha_picks_cheapest_price(self, ws):
        doc = ensure(ws, "to_zero.json")
        assert doc["prices"][1:] == [1] * 5
        assert doc["values"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_per_task_value_matches_scalar_search(self, ws):
        r = run_cli(ws, "tradeoff", "--tasks", "4", "--alpha", "12",
                    "--variant", "arrival", "--rate", "30",
                    "--acceptance-table", "tab.csv", "--max-price", "20",
                    "--min-price", "1", "--out", "to_arr.json")
        assert r.returncode == 0, r.stderr
        doc = load(ws, "to_arr.json")
        entries = {int(k): v for k, v in doc["problem"]["model"]["entries"].items()}
        want = min(c + (12.0 / 30.0) / entries[c] for c in range(1, 21))
        assert doc["values"][1] == pytest.approx(want, rel=1e-12)
        for n in range(2, 5):
            assert doc["values"][n] == pytest.approx(n * doc["values"][1], rel=1e-12)

    def test_fixed_rate_variant(self, ws):
        r = run_cli(ws, "tradeoff", "--tasks", "3", "--alpha", "40",
                    "--variant", "fixed-rate", "--rate", "0.15",
                    "--acceptance-table", "tab.csv", "--max-price", "20",
                    "--min-price", "1", "--out", "to_fr.json")
        assert r.returncode == 0, r.stderr
        assert "premise" not in r.stderr
        doc = load(ws, "to_fr.json")
        assert all(1 <= c <= 20 for c in doc["prices"][1:])
        values = doc["values"]
        assert all(values[n] > values[n - 1] for n in range(1, 4))


class TestFit:
    def test_arrival_periodic_fold(self, ws):
        (ws / "prof.json").unlink(missing_ok=True)
        prof = ensure(ws, "prof.json")["profile"]
        assert prof == {"bucket_seconds": 1200, "periodic": True,
                        "rates": [6.0, 6.0, 6.0]}
        assert (ws / "fold.csv").read_text() == (
            "t_seconds,count\n0,6.0\n1200,6.0\n2400,6.0\n")

    def test_arrival_rerun_byte_identical(self, ws):
        argv = ["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "3",
                "--out", "prof_rerun.json"]
        assert run_cli(ws, *argv).returncode == 0
        first = (ws / "prof_rerun.json").read_bytes()
        assert run_cli(ws, *argv).returncode == 0
        assert (ws / "prof_rerun.json").read_bytes() == first

    def test_arrival_cumulative_snapshots(self, ws):
        r = run_cli(ws, "fit", "arrival", "--csv", "cum.csv", "--cumulative",
                    "--out", "cprof.json")
        assert r.returncode == 0, r.stderr
        prof = load(ws, "cprof.json")["profile"]
        assert prof == {"bucket_seconds": 900, "periodic": False,
                        "rates": [3.0, 0.0, 6.0]}

    def test_acceptance_recovers_generating_curve(self, ws):
        doc = ensure(ws, "model.json")
        fit = doc["fit"]
        assert fit["linear_coefficient"] == pytest.approx(809.0, rel=1e-9)
        assert fit["bias"] == pytest.approx(6.28, rel=1e-9)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        # the emitted model must equal the library derivation on the same fit
        obs = estimation.load_observations_csv(str(ws / "obs.csv"))
        derived = estimation.derive_acceptance_model(
            estimation.fit_wage_utility(obs), 120.0, 6000.0).model
        assert doc["model"]["scale_s"] == pytest.approx(derived.scale_s, rel=1e-12)
        assert doc["model"]["bias_b"] == pytest.approx(derived.bias_b, rel=1e-12)
        assert doc["model"]["market_mass_m"] == pytest.approx(
            derived.market_mass_m, rel=1e-12)

    def test_acceptance_bad_row_exits_3(self, ws):
        (ws / "obs_bad.csv").write_text(
            "wage_per_second,workload_per_hour,task_type\n0.001,-5,writing\n")
        r = run_cli(ws, "fit", "acceptance", "--csv", "obs_bad.csv",
                    "--task-seconds", "120", "--market-total", "6000")
        assert r.returncode == 3
        assert "row 2" in r.stderr
        assert "positive" in r.stderr

    def test_fit_requires_subcommand(self, ws):
        r = run_cli(ws, "fit")
        assert r.returncode == 2


class TestManifests:
    @pytest.mark.parametrize("name", [
        "pol.json", "alloc.json", "rep.json", "base.json", "to_zero.json",
        "prof.json", "model.json"])
    def test_every_document_embeds_a_manifest(self, ws, name):
        doc = ensure(ws, name)
        man = doc["manifest"]
        assert sorted(man) == [
            "command", "input_digests", "resolved_parameters", "tool_version"]
        assert man["tool_version"] == crowdpricer.__version__
        assert "out" in man["resolved_parameters"]
        for fname, digest in man["input_digests"].items():
            want = hashlib.sha256((ws / fname).read_bytes()).hexdigest()
            assert digest == want
