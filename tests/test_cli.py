"""End-to-end command line checks, run through subprocess."""

import argparse
import contextlib
import errno
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdpricer
import crowdpricer.cli as cli
import crowdpricer.deadline as deadline
import crowdpricer.estimation as estimation
import crowdpricer.jsonstream as jsonstream
import crowdpricer.market as market
import crowdpricer.simulate as simulate
from conftest import REPO_ROOT, cli_env

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


def exit_code(argv):
    """What cli.main returns, or the code it exits with on a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def parsers(parser=None):
    """Each parser that `cli._build_parser` builds, by the name of its help
    snapshot: `root`, or its command words joined by '-'."""
    parser = parser or cli._build_parser()
    found = {"-".join(parser.prog.split()[1:]) or "root": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= parsers(sub)
    return found


def noted_flags(command):
    """The flags of `command` that `cli._Noted` records as given."""
    return {a.option_strings[0] for a in parsers()[command]._actions
            if isinstance(a, cli._Noted)}


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

    HELP = [
        ("root.txt", ["--help"]),
        ("solve-deadline.txt", ["solve-deadline", "--help"]),
        ("solve-budget.txt", ["solve-budget", "--help"]),
        ("simulate.txt", ["simulate", "--help"]),
        ("baseline.txt", ["baseline", "--help"]),
        ("tradeoff.txt", ["tradeoff", "--help"]),
        ("fit.txt", ["fit", "--help"]),
        ("fit-arrival.txt", ["fit", "arrival", "--help"]),
        ("fit-acceptance.txt", ["fit", "acceptance", "--help"]),
    ]

    @pytest.mark.parametrize("golden, argv", HELP)
    def test_help_matches_snapshot(self, ws, golden, argv):
        r = run_cli(ws, *argv)
        assert r.returncode == 0
        assert r.stdout == (HELP_DIR / golden).read_text()

    def test_one_snapshot_per_parser(self):
        # a parser added to the command table needs a snapshot, and the
        # snapshot a case above
        snapshots = sorted(path.name for path in HELP_DIR.iterdir())
        assert snapshots == sorted(f"{name}.txt" for name in parsers())
        assert snapshots == sorted(golden for golden, _ in self.HELP)


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
        assert r.stderr == ""
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
        assert r.stderr == ""

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

    def test_malformed_acceptance_table_exits_3(self, ws):
        (ws / "dup.csv").write_text("price_cents,probability\n0,0.1\n1,0.2\n\n1,0.3\n")
        (ws / "hdr.csv").write_text("price,probability\n0,0.1\n")
        for name, row in (("dup.csv", "row 5: duplicate price 1"), ("hdr.csv", "row 1")):
            flags = [name if f == "tab.csv" else f for f in PROB_FLAGS]
            r = run_cli(ws, "solve-deadline", *flags)
            assert r.returncode == 3, r.stderr
            assert f"{name}: {row}" in r.stderr

    def test_penalty_with_bound_is_usage_error(self, ws):
        r = run_cli(ws, "solve-deadline", *PROB_FLAGS, "--penalty", "30", "--bound", "0.5")
        assert r.returncode == 2
        assert "--penalty and --bound are mutually exclusive" in r.stderr

    def test_acceptance_needs_three_values(self, ws, monkeypatch, capsys):
        monkeypatch.chdir(ws)
        flags = [{"--acceptance-table": "--acceptance", "tab.csv": "15,-0.39"}.get(f, f)
                 for f in PROB_FLAGS]
        assert cli.main(["solve-deadline", *flags]) == 3
        assert capsys.readouterr().err == (
            "error: --acceptance expects 'S,B,M' (scale, bias, market mass), "
            "got '15,-0.39'\n")

    def test_bound_reuses_the_last_probe(self, ws, monkeypatch):
        """solve-deadline --bound writes the policy and evaluation of the
        calibration's last accepted probe: one solve per probe, none after."""
        calls = {"solve": 0, "probe_eval": 0, "cli_eval": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "solve_efficient", counted("solve", deadline.solve_efficient))
        monkeypatch.setattr(deadline, "evaluate_policy_exact",
                            counted("probe_eval", deadline.evaluate_policy_exact))
        monkeypatch.setattr(cli, "evaluate_policy_exact",
                            counted("cli_eval", cli.evaluate_policy_exact))
        monkeypatch.chdir(ws)
        argv = ["solve-deadline", *PROB_FLAGS, "--bound", "0.5", "--out", "pol_reuse.json"]
        assert cli.main(argv) == 0
        assert calls["probe_eval"] >= 2
        assert calls["solve"] == calls["probe_eval"]
        assert calls["cli_eval"] == 0
        summary = load(ws, "pol_reuse.json")["summary"]
        assert summary["calibration"]["achieved"] == summary["expected_remaining"]


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
        ev = deadline.evaluate_policy_exact(problem, policy)
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

    @pytest.mark.parametrize("price, grid, shown", [
        ("60", [], "0..20 step 1"),
        ("5", ["--min-price", "2", "--price-step", "2"], "2..20 step 2"),
    ], ids=["above-max", "between-steps"])
    def test_fixed_price_off_the_grid_exits_3(self, ws, monkeypatch, capsys, price, grid, shown):
        monkeypatch.chdir(ws)
        assert cli.main(["simulate", "--fixed-price", price, *PROB_FLAGS, *grid,
                         "--trials", "10", "--out", "rep_off_grid.json"]) == 3
        assert capsys.readouterr().err == (
            f"error: --fixed-price {price} is not on the price grid {shown}\n")
        assert not (ws / "rep_off_grid.json").exists()

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

    @pytest.mark.parametrize("entries, reason", [
        ([{"price": 11, "count": 0}], "bad allocation entry (11, 0)"),
        ([{"price": -1, "count": 2}], "bad allocation entry (-1, 2)"),
        ([], "allocation needs at least one entry"),
        ([{"price": 11, "count": 2.7}, {"price": 12, "count": 2}],
         "count must be an integer, got 2.7"),
        ([{"price": 11, "count": True}], "count must be an integer, got True"),
    ], ids=["count-0", "price-negative", "empty", "count-2.7", "count-true"])
    def test_alloc_bad_entry_exits_3(self, ws, monkeypatch, capsys, entries, reason):
        doc = ensure(ws, "alloc.json")
        doc["allocation"]["entries"] = entries
        (ws / "alloc_bad.json").write_text(json.dumps(doc))
        monkeypatch.chdir(ws)
        assert cli.main(["simulate", "--alloc", "alloc_bad.json", "--arrival-csv",
                         "arr.csv", "--trials", "10"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: alloc_bad.json: bad allocation document: {reason}"]

    @pytest.mark.parametrize("model, reason", [
        ({"type": "logistic", "scale_s": -1.0, "bias_b": 0.0, "market_mass_m": 1.0},
         "bad acceptance model document: scale_s must be positive and finite"),
        ({"type": "nope"}, "unknown acceptance model type: 'nope'"),
    ], ids=["bad-model", "unknown-type"])
    def test_alloc_bad_model_names_the_file(self, ws, monkeypatch, capsys, model, reason):
        doc = ensure(ws, "alloc.json")
        doc["problem"]["model"] = model
        (ws / "alloc_model.json").write_text(json.dumps(doc))
        monkeypatch.chdir(ws)
        assert cli.main(["simulate", "--alloc", "alloc_model.json", "--arrival-csv",
                         "arr.csv", "--trials", "10"]) == 3
        assert capsys.readouterr().err == f"error: alloc_model.json: {reason}\n"

    def test_alloc_without_arrival_csv_is_usage_error(self, ws):
        ensure(ws, "alloc.json")
        r = run_cli(ws, "simulate", "--alloc", "alloc.json", "--trials", "10")
        assert r.returncode == 2
        assert "--alloc needs --arrival-csv for worker arrivals" in r.stderr

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
        ev = deadline.evaluate_policy_exact(problem, policy)
        assert doc["comparison"]["dynamic_expected_cost_cents"] == pytest.approx(
            ev.expected_cost, rel=1e-12)

    def test_comparison_against_a_zero_fixed_cost_exits_3(self, tmp_path, monkeypatch, capsys):
        # confidence 0 picks price 0, whose expected cost is 0: no cost reduction exists
        monkeypatch.chdir(tmp_path)
        flags = ["--tasks", "20", "--deadline-hours", "2", "--intervals", "6",
                 "--arrival-csv", str(REPO_ROOT / "data" / "arrival_weekly.csv"), "--periodic",
                 "--acceptance", "15,-0.39,2000", "--max-price", "50"]
        assert cli.main(["solve-deadline", *flags, "--out", "p.json"]) == 0
        capsys.readouterr()
        argv = ["baseline", *flags, "--confidence", "0", "--compare-policy", "p.json",
                "--out", "base.json"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: cost reduction is undefined against a fixed-price cost of 0.0"]
        assert not (tmp_path / "base.json").exists()


class TestPolicyMarket:
    """A policy read with problem flags (`simulate --policy`, `baseline
    --compare-policy`) must have been solved for the market they describe:
    the members that simulating or evaluating it reads besides its prices.
    The grid, penalty, epsilon and existence alpha may differ.  A later
    occurrence of a flag overrides an earlier one, so each case appends its
    change to PROB_FLAGS."""

    @pytest.mark.parametrize("solved_with", [
        ["--bound", "0.5"], ["--epsilon", "1e-6"], ["--existence-alpha", "1"],
        ["--min-price", "2", "--price-step", "2"],
    ], ids=["bound", "epsilon", "existence-alpha", "grid"])
    def test_a_policy_simulates_with_its_market_flags(self, ws, monkeypatch, capsys,
                                                      solved_with):
        monkeypatch.chdir(ws)
        assert cli.main(["solve-deadline", *PROB_FLAGS, *solved_with, "--out", "pol_m.json"]) == 0
        runs = []
        for flags in ([], PROB_FLAGS, ["--arrival-csv", "arr.csv"]):
            capsys.readouterr()
            assert cli.main(["simulate", "--policy", "pol_m.json", *flags,
                             "--trials", "50", "--seed", "5"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["manifest"]
            runs.append(doc)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        capsys.readouterr()
        assert cli.main(["baseline", *PROB_FLAGS, "--confidence", "0.5",
                         "--compare-policy", "pol_m.json"]) == 0

    @pytest.mark.parametrize("extra", [["--max-price", "30"], ["--penalty", "5"]],
                             ids=["grid-past-the-table", "penalty-below-top-price"])
    def test_simulate_builds_only_the_market_from_its_flags(self, ws, monkeypatch, capsys,
                                                            extra):
        # the table covers prices 0..20, so a grid to 30 is no valid problem,
        # and a penalty of 5 would be warned about; neither is read here
        monkeypatch.chdir(ws)
        ensure(ws, "pol.json")
        runs = []
        for flags in ([], [*PROB_FLAGS, *extra]):
            capsys.readouterr()
            assert cli.main(["simulate", "--policy", "pol.json", *flags,
                             "--trials", "50", "--seed", "5"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            doc = json.loads(out)
            del doc["manifest"]
            runs.append(doc)
        assert runs[1] == runs[0]

    # a profile of twice the horizon, so that a longer horizon or a later
    # start changes the one member and leaves a valid problem
    FLAGS = ["arr_long.csv" if f == "arr.csv" else f for f in PROB_FLAGS]
    MISMATCHES = {
        "n_tasks": ["--tasks", "13"],
        "n_intervals": ["--deadline-hours", "1", "--intervals", "3"],
        "interval_seconds": ["--deadline-hours", "3"],
        "start_offset_seconds": ["--start-offset", "1200"],
        "profile": ["--periodic"],
        "model": ["--acceptance-table", "tab_other.csv"],
    }

    @pytest.mark.parametrize("command", ["simulate", "baseline"])
    @pytest.mark.parametrize("member", list(MISMATCHES))
    def test_a_changed_member_exits_3_naming_it(self, ws, monkeypatch, capsys, command,
                                                member):
        (ws / "arr_long.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},6.0\n" for i in range(12)))
        (ws / "tab_other.csv").write_text(
            "price_cents,probability\n"
            + "".join(f"{c},{0.04 + 0.035 * c}\n" for c in range(21)))
        monkeypatch.chdir(ws)
        assert cli.main(["solve-deadline", *self.FLAGS, "--out", "pol_long.json"]) == 0
        capsys.readouterr()
        flags = [*self.FLAGS, *self.MISMATCHES[member]]
        argv = (["simulate", "--policy", "pol_long.json", *flags, "--trials", "10"]
                if command == "simulate" else
                ["baseline", *flags, "--confidence", "0.1", "--compare-policy", "pol_long.json"])
        assert cli.main(argv) == 3
        _, policy = deadline.policy_from_dict(load(ws, "pol_long.json"))
        assert capsys.readouterr().err == (
            f"error: policy/problem mismatch: pol_long.json was solved for problem "
            f"{policy.problem_digest}, whose {member} differs from the flags\n")

    @pytest.mark.parametrize("member, change", [
        ("n_tasks", ["--tasks", "13"]),  # the scan: 0.998985 < 0.999 at the top price
        ("interval_seconds", ["--deadline-hours", "3"]),  # the scan: the profile runs out
    ], ids=["n_tasks", "interval_seconds"])
    def test_baseline_reports_a_mismatch_before_its_scan(self, ws, monkeypatch, capsys,
                                                         member, change):
        # the fixed-price scan on these flags fails, so it must not run first
        monkeypatch.chdir(ws)
        assert cli.main(["baseline", *PROB_FLAGS, *change, "--compare-policy", "pol.json"]) == 3
        _, policy = deadline.policy_from_dict(load(ws, "pol.json"))
        assert capsys.readouterr().err == (
            f"error: policy/problem mismatch: pol.json was solved for problem "
            f"{policy.problem_digest}, whose {member} differs from the flags\n")

    @pytest.mark.parametrize("arrivals", [["arr_other.csv"], ["arr.csv", "--periodic"]],
                             ids=["rates", "periodic"])
    def test_a_changed_arrival_profile_exits_3(self, ws, monkeypatch, capsys, arrivals):
        (ws / "arr_other.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},7.0\n" for i in range(6)))
        monkeypatch.chdir(ws)
        assert cli.main(["simulate", "--policy", "pol.json", "--arrival-csv", *arrivals,
                         "--trials", "10"]) == 3
        assert "whose profile differs from the flags" in capsys.readouterr().err

    @pytest.mark.parametrize("solved_with, given, code, message", [
        (["--start-offset", "1200"], ["--start-offset", "0"], 3,
         "whose start_offset_seconds differs from the flags"),
        ([], ["--tasks", "13"], 3, "whose n_tasks differs from the flags"),
        ([], ["--deadline-hours", "3"], 2, "error: missing --intervals"),
    ], ids=["start-offset-0", "tasks", "deadline-hours"])
    def test_a_member_given_alone_is_compared(self, ws, monkeypatch, capsys, solved_with,
                                              given, code, message):
        # a flag counts as given at its default value too; a member given only
        # some of its flags names the missing one
        (ws / "arr_long.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},6.0\n" for i in range(12)))
        monkeypatch.chdir(ws)
        assert cli.main(["solve-deadline", *self.FLAGS, *solved_with, "--out", "pol_alone.json"]) == 0
        capsys.readouterr()
        assert exit_code(["simulate", "--policy", "pol_alone.json", *given, "--trials", "10"]) == code
        assert message in capsys.readouterr().err


class TestSimulateFlags:
    """Each flag that describes a deadline problem, given a value other than
    its default, changes what `simulate` reports or exits 2 or 3, in every
    mode: no flag is dropped silently.  The grid, penalty, epsilon and
    existence-alpha flags only shaped a policy's prices, so `simulate
    --policy` accepts them unread; a fixed-price run reads them, which a
    value out of their domain shows."""

    MODES = {
        "policy": ["--policy", "pol.json"],
        "policy-with-market": ["--policy", "pol.json", *PROB_FLAGS],
        "alloc": ["--alloc", "alloc.json", "--arrival-csv", "arr.csv"],
        "fixed-price": ["--fixed-price", "4", *PROB_FLAGS],
    }
    VALUES = {
        "--tasks": ["13"], "--deadline-hours": ["1"], "--intervals": ["3"],
        "--arrival-csv": ["arr_other.csv"], "--cumulative": [], "--periodic": [],
        "--acceptance": ["15,-0.39,2000"], "--acceptance-table": ["tab_other.csv"],
        "--max-price": ["30"], "--min-price": ["21"], "--price-step": ["0"],
        "--epsilon": ["-1"], "--existence-alpha": ["-1"], "--start-offset": ["1200"],
        "--penalty": ["-1"],
    }
    UNREAD = {"--max-price", "--min-price", "--price-step", "--penalty", "--epsilon",
              "--existence-alpha"}
    # --periodic changes nothing within the profile's span, so this case
    # runs both sides past it, where the run without it exits 3
    ALONGSIDE = {("fixed-price", "--periodic"): ["--deadline-hours", "3"]}

    def test_values_cover_every_problem_flag(self):
        assert set(self.VALUES) == noted_flags("simulate")

    @pytest.mark.parametrize("command", ["solve-deadline", "simulate", "baseline"])
    def test_market_flags_are_noted_problem_flags(self, command):
        # a flag misspelt in `_MARKET` or in the parser's table fails here,
        # not with exit 2 at run time
        market = {flag for member in cli._MARKET for flag in cli._flags(member)}
        assert market <= noted_flags(command)

    @staticmethod
    def outcome(argv):
        """The exit code and the report without its manifest (None on an error)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = exit_code(["simulate", *argv, "--trials", "40", "--seed", "5"])
        if code != 0:
            return code, None
        doc = json.loads(out.getvalue())
        del doc["manifest"]
        return code, doc

    @pytest.mark.parametrize("flag", list(VALUES))
    @pytest.mark.parametrize("mode", list(MODES))
    def test_a_flag_changes_the_report_or_exits(self, ws, monkeypatch, mode, flag):
        ensure(ws, "alloc.json")
        (ws / "arr_other.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},7.0\n" for i in range(6)))
        (ws / "tab_other.csv").write_text(
            "price_cents,probability\n"
            + "".join(f"{c},{0.04 + 0.035 * c}\n" for c in range(21)))
        monkeypatch.chdir(ws)
        base = [*self.MODES[mode], *self.ALONGSIDE.get((mode, flag), [])]
        changed = [*base, flag, *self.VALUES[flag]]
        if flag == "--acceptance" and "--acceptance-table" in base:  # the two exclude each other
            at = changed.index("--acceptance-table")
            del changed[at:at + 2]
        before, after = self.outcome(base), self.outcome(changed)
        if mode.startswith("policy") and flag in self.UNREAD:
            assert after == before and after[0] == 0
        else:
            assert after[0] in (2, 3) or (after[0] == 0 and after != before), after


class TestProbabilityRange:
    """Reported probabilities lie in [0, 1], also where the evaluators' sum
    of the masses left below N rounds to 1.0000000000000002."""

    ARRIVALS = ["--arrival-csv", str(REPO_ROOT / "data" / "arrival_weekly.csv"), "--periodic"]

    def test_every_price_meets_a_zero_confidence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["baseline", "--tasks", "20", "--deadline-hours", "6", "--intervals", "12",
                *self.ARRIVALS, "--acceptance", "20,5,100000", "--max-price", "20",
                "--confidence", "0", "--out", "base.json"]
        assert cli.main(argv) == 0
        base = load(tmp_path, "base.json")["baseline"]
        assert base["price_cents"] == 0
        assert base["completion_probability"] == 0.0

    def test_solve_deadline_completion_probability(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["solve-deadline", "--tasks", "20", "--deadline-hours", "2", "--intervals", "6",
                *self.ARRIVALS, "--acceptance", "10,3,50000", "--max-price", "5",
                "--out", "pol.json"]
        assert cli.main(argv) == 0
        assert load(tmp_path, "pol.json")["summary"]["completion_probability"] == 0.0

    def test_evaluation_caps_pr_any_remaining_at_one(self):
        ev = deadline.PolicyEvaluation(0.0, 20.0, 1.0000000000000002)
        assert ev.pr_any_remaining == 1.0


class TestFlagDomains:
    """A flag value outside its domain exits 3 with one error line naming the
    flag or the input, before any solve and without writing a document."""

    @staticmethod
    def flags(flag, value):
        """PROB_FLAGS with `flag` set to `value`."""
        i = PROB_FLAGS.index(flag) + 1
        return [*PROB_FLAGS[:i], value, *PROB_FLAGS[i + 1:]]

    FIT = ["fit", "acceptance", "--csv", "obs.csv", "--task-seconds", "120",
           "--market-total", "6000"]
    BIG = "9" * 400  # an integer past the float range
    TRADEOFF = ["tradeoff", "--alpha", "1", "--variant", "arrival", "--rate", "30",
                "--acceptance", "15,-0.39,2000"]
    BUDGET = ["solve-budget", "--acceptance-table", "tab.csv", "--max-price", "20"]

    @pytest.mark.parametrize("argv, needle", [
        (["baseline", *PROB_FLAGS, "--confidence", "1.0", "--trials", "10"], "confidence"),
        (["baseline", *PROB_FLAGS, "--confidence", "-0.1"], "confidence"),
        (["baseline", *flags("--arrival-csv", "arrzero.csv"), "--confidence", "0"],
         "profile has no arrivals"),
        (["baseline", *PROB_FLAGS, "--trials", "0"], "trials"),
        (["baseline", *PROB_FLAGS, "--trials", "5", "--seed", "-1"], "seed"),
        (["baseline", *PROB_FLAGS, "--penalty", "-1"], "penalty must be"),
        (["solve-deadline", *PROB_FLAGS, "--bound", "-1"], "bound must be"),
        (["solve-deadline", *PROB_FLAGS, "--bound", "nan"], "bound must be"),
        (["solve-deadline", *PROB_FLAGS, "--bound", "inf"], "bound must be"),
        (["solve-deadline", *PROB_FLAGS, "--bound", "0.5", "--bound-tol", "2"],
         "bound tolerance"),
        (["solve-deadline", *flags("--deadline-hours", "inf")], "deadline of inf hours"),
        (["solve-deadline", *flags("--deadline-hours", "1e300")], "past 2**53 s"),
        (["solve-deadline", *flags("--intervals", "0")], "--intervals"),
        ([*FIT, "--task-seconds", "nan"], "task_seconds"),
        ([*FIT, "--market-total", "inf"], "market_total_per_hour"),
        ([*FIT, "--mass-normalization", "nan"], "mass_normalization_seconds"),
        ([*FIT, "--task-seconds", "1e308"], "scale_s = 100 * task_seconds / alpha"),
        ([*FIT, "--task-seconds", "5e-324"], "scale_s = 100 * task_seconds / alpha"),
        ([*FIT, "--market-total", "1e308"],
         "market_mass_m = market_total_per_hour * task_seconds / mass_normalization_seconds"),
        ([*FIT, "--mass-normalization", "1e-320"],
         "market_mass_m = market_total_per_hour * task_seconds / mass_normalization_seconds"),
        (["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "0"], "period_buckets"),
        (["solve-deadline", *PROB_FLAGS, "--penalty", "1e308"],
         "bad problem: penalty 1e+308 with existence_alpha 0.0 gives costs past the float range"),
        (["solve-deadline", *PROB_FLAGS, "--existence-alpha", "1e308"],
         "bad problem: penalty 200.0 with existence_alpha 1e+308 gives costs past the float range"),
        (["solve-deadline", *flags("--epsilon", "1e-320")],
         "bad problem: epsilon 1e-320 is too small"),
        (["solve-budget", "--tasks", "3", "--budget", "30", "--acceptance-table", "tab.csv",
          "--max-price", "20", "--mean-rate", "1e-320"],
         "mean_rate 1e-320 puts the expected latency"),
        (["solve-deadline", *flags("--max-price", BIG)],
         "bad price grid: max_price is past the float range"),
        ([*TRADEOFF, "--tasks", "5", "--max-price", BIG],
         "bad price grid: max_price is past the float range"),
        (["solve-deadline", *flags("--tasks", BIG)],
         "bad problem: n_tasks is past the float range"),
        ([*TRADEOFF, "--tasks", BIG, "--max-price", "20"],
         "bad problem: n_tasks is past the float range"),
        ([*BUDGET, "--tasks", BIG, "--budget", BIG],
         "bad problem: n_tasks is past the float range"),
        ([*BUDGET, "--tasks", "8", "--budget", BIG], "bad problem: budget is past the float range"),
        (["solve-deadline", *flags("--intervals", BIG)],
         "bad problem: --intervals is past the float range"),
        (["simulate", "--policy", "pol.json", "--trials", BIG], "trials is past the float range"),
        (["simulate", "--alloc", "alloc_big.json", "--arrival-csv", "arr.csv", "--trials", "10"],
         "alloc_big.json: bad allocation document: price is past the float range"),
    ], ids=["baseline-confidence-1.0", "baseline-confidence--0.1", "baseline-zero-arrivals",
            "baseline-trials-0", "baseline-seed--1", "baseline-penalty--1", "bound--1",
            "bound-nan", "bound-inf",
            "bound-tol-2", "deadline-hours-inf", "deadline-hours-1e300", "intervals-0", "task-seconds-nan",
            "market-total-inf", "mass-normalization-nan", "task-seconds-1e308",
            "task-seconds-5e-324", "market-total-1e308", "mass-normalization-1e-320",
            "period-buckets-0", "penalty-1e308", "existence-alpha-1e308", "epsilon-1e-320",
            "mean-rate-1e-320", "max-price-big", "tradeoff-max-price-big", "tasks-big",
            "tradeoff-tasks-big", "budget-tasks-big", "budget-big", "intervals-big",
            "trials-big", "alloc-price-big"])
    def test_exits_3_naming_the_flag(self, ws, monkeypatch, capsys, argv, needle):
        (ws / "arrzero.csv").write_text(
            "t_seconds,count\n" + "".join(f"{i * 1200},0\n" for i in range(6)))
        alloc = ensure(ws, "alloc.json")
        alloc["allocation"]["entries"][0]["price"] = int(self.BIG)
        (ws / "alloc_big.json").write_text(json.dumps(alloc))
        solves = []
        for name in ("solve_efficient", "solve_simple"):
            monkeypatch.setattr(cli, name, lambda problem: solves.append(problem))
        monkeypatch.chdir(ws)
        assert cli.main([*argv, "--out", "domain.json"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0], err
        assert solves == []
        assert not (ws / "domain.json").exists()


class TestCoverage:
    """A tabulated acceptance model must give every grid price a probability."""

    @pytest.mark.parametrize("argv", [
        ["solve-budget", "--tasks", "2", "--budget", "20", "--mean-rate", "30"],
        ["tradeoff", "--tasks", "2", "--alpha", "1", "--variant", "arrival", "--rate", "30"],
    ], ids=["solve-budget", "tradeoff"])
    def test_table_missing_a_grid_price_exits_3(self, ws, monkeypatch, capsys, argv):
        (ws / "gap.csv").write_text("price_cents,probability\n0,0.1\n1,0.2\n3,0.4\n")
        monkeypatch.chdir(ws)
        assert cli.main([*argv, "--acceptance-table", "gap.csv", "--max-price", "3"]) == 3
        assert capsys.readouterr().err == (
            "error: bad problem: tabulated model has no probability for 1 grid "
            "price(s), the first being 2\n")

    @pytest.mark.parametrize("argv", [
        ["solve-deadline", "--tasks", "5", "--deadline-hours", "2", "--intervals", "6",
         "--arrival-csv", "arr.csv"],
        ["tradeoff", "--tasks", "5", "--alpha", "3", "--variant", "arrival", "--rate", "300"],
    ], ids=["solve-deadline", "tradeoff"])
    @pytest.mark.parametrize("top", [10, 300], ids=["1e10", "1e300"])
    def test_huge_grid_is_refused_in_memory_of_the_table(self, ws, monkeypatch, capsys, argv,
                                                          top):
        # 10**top + 1 grid prices: a list of the missing ones would not fit in
        # memory, and len() of the range stops at 2**63
        (ws / "two.csv").write_text("price_cents,probability\n0,0.1\n1,0.2\n")
        monkeypatch.chdir(ws)
        argv = [*argv, "--acceptance-table", "two.csv", "--max-price", str(10**top)]
        assert cli.main(argv) == 3  # the first call also builds the parser
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert capsys.readouterr().err == (
            f"error: bad problem: tabulated model has no probability for {10**top - 1} grid "
            "price(s), the first being 2\n")


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

    def test_arrival_single_csv_periodic(self, ws, monkeypatch):
        monkeypatch.chdir(ws)
        assert cli.main(["fit", "arrival", "--csv", "arr.csv", "--periodic",
                         "--out", "pprof.json"]) == 0
        assert load(ws, "pprof.json")["profile"] == {
            "bucket_seconds": 1200, "periodic": True, "rates": [6.0] * 6}

    @pytest.mark.parametrize("csvs, period, reason", [
        (["arr.csv", "cum.csv"], "2", "profiles disagree on bucket size: 900 vs 1200"),
        (["arr.csv"], "7", "profile with 6 buckets is shorter than the period (7)"),
    ], ids=["bucket-sizes", "short"])
    def test_arrival_errors_name_the_csvs(self, ws, monkeypatch, capsys, csvs, period,
                                          reason):
        monkeypatch.chdir(ws)
        argv = ["fit", "arrival", *(a for c in csvs for a in ("--csv", c)),
                "--period-buckets", period]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: {', '.join(csvs)}: {reason}\n"

    def test_arrival_bad_period_names_the_flag_not_the_csv(self, ws, monkeypatch, capsys):
        monkeypatch.chdir(ws)
        assert cli.main(["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "0"]) == 3
        err = capsys.readouterr().err
        assert err == "error: --period-buckets: period_buckets must be >= 1, got 0\n"
        assert "arr.csv" not in err

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


def summary_lines(doc):
    """The stdout summary that `--out` prints, rebuilt from the document."""
    cmd = doc["manifest"]["command"]
    if cmd == "solve-deadline":
        s = doc["summary"]
        lines = [f"opt_cost_cents: {s['opt_cost_cents']:.6f}",
                 f"expected_cost_cents: {s['expected_cost_cents']:.6f}",
                 f"expected_remaining: {s['expected_remaining']:.6g}",
                 f"completion_probability: {s['completion_probability']:.6g}",
                 f"penalty_cents: {s['penalty_cents']:.6f}"]
        if s["calibration"] is not None:
            lines.append(f"calibration_achieved: {s['calibration']['achieved']:.6g}")
    elif cmd == "solve-budget":
        a = doc["allocation"]
        lines = ["allocation: " + ", ".join(f"{e['count']} @ {e['price']}"
                                            for e in a["entries"]),
                 f"total_cost_cents: {a['total_cost_cents']}",
                 f"expected_workers: {a['expected_workers']:.6f}",
                 f"expected_latency_hours: {a['expected_latency_hours']:.6f}"]
        if "lp_comparison" in doc:
            lines.append(f"lp_gap_expected_workers: {doc['lp_comparison']['gap']:.6f}")
    elif cmd == "simulate":
        g = doc["aggregates"]
        lines = [f"strategy: {doc['strategy_descriptor']}",
                 f"mean_cost: {g['mean_cost']:.6f} (se {g['se_cost']:.6f})",
                 f"mean_remaining: {g['mean_remaining']:.6f}",
                 f"completion_rate: {g['completion_rate']:.6f}"]
        if g["mean_completion_seconds"] is not None:
            lines.append(f"mean_completion_seconds: {g['mean_completion_seconds']:.3f}")
    elif cmd == "baseline":
        b, floor = doc["baseline"], doc["baseline"]["price_floor_cents"]
        lines = [f"baseline_price_cents: {b['price_cents']}",
                 f"completion_probability: {b['completion_probability']:.6g}",
                 f"expected_cost_cents: {b['expected_cost_cents']:.6f}",
                 "price_floor_cents: " + ("none" if floor is None else f"{floor:.6f}")]
        if doc["comparison"] is not None:
            lines.append(f"cost_reduction: {doc['comparison']['cost_reduction']:.6g}")
    elif cmd == "tradeoff":
        n = doc["problem"]["n_tasks"]
        lines = [f"price_at_{n}_remaining: {doc['prices'][n]}",
                 f"total_expected_cost_cents: {doc['values'][n]:.6f}"]
    elif cmd == "fit-arrival":
        p = doc["profile"]
        lines = [f"buckets: {len(p['rates'])} x {p['bucket_seconds']}s",
                 f"mean_rate_per_hour: "
                 f"{market.profile_from_dict(p).mean_rate_per_hour():.6f}"]
    else:
        assert cmd == "fit-acceptance"
        f, m = doc["fit"], doc["model"]
        lines = [f"linear_coefficient: {f['linear_coefficient']:.6f}",
                 f"bias: {f['bias']:.6f}",
                 f"r_squared: {f['r_squared']:.6f}",
                 f"model: logistic scale_s={m['scale_s']:.6f} bias_b={m['bias_b']:.6f} "
                 f"market_mass_m={m['market_mass_m']:.6f}"]
    return lines


class TestCsvInput:
    """Every command that reads a CSV rejects text that is not UTF-8 with
    exit 3 and one error line naming the file."""

    @pytest.mark.parametrize("argv", [
        ["solve-deadline", *("latin1.csv" if a == "arr.csv" else a for a in PROB_FLAGS)],
        ["solve-budget", "--tasks", "8", "--budget", "90", "--acceptance-table", "latin1.csv",
         "--max-price", "20"],
        ["tradeoff", "--tasks", "5", "--alpha", "0", "--variant", "arrival", "--rate", "30",
         "--acceptance-table", "latin1.csv", "--max-price", "20"],
        ["fit", "arrival", "--csv", "latin1.csv"],
        ["fit", "acceptance", "--csv", "latin1.csv", "--task-seconds", "120",
         "--market-total", "6000"],
    ], ids=["solve-deadline", "solve-budget", "tradeoff", "fit-arrival", "fit-acceptance"])
    def test_non_utf8_file_exits_3(self, ws, monkeypatch, capsys, argv):
        monkeypatch.chdir(ws)
        (ws / "latin1.csv").write_bytes(b"t_seconds,count\n0,6\n1200,6\xff\n")
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: latin1.csv: not valid UTF-8: 'utf-8' codec can't decode")

    def test_a_quoted_header_prints_on_one_line(self, ws, monkeypatch, capsys):
        # the csv reader takes the whole file after an opening quote as one field
        monkeypatch.chdir(ws)
        (ws / "quoted.csv").write_text('"t_seconds,count\n0,6\n1200,6\n')
        assert cli.main(["fit", "arrival", "--csv", "quoted.csv"]) == 3
        assert capsys.readouterr().err == (
            "error: quoted.csv: row 1: header must be 't_seconds,count', "
            "got 't_seconds,count\\n0,6\\n1200,6\\n'\n")


    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("argv", [
        ["solve-deadline", *PROB_FLAGS],
        ["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "3"],
    ], ids=["arrival-csv", "fit-arrival"])
    def test_a_pipe_reads_as_the_file_does(self, ws, monkeypatch, capsys, argv):
        # a pipe can be read once: the digest comes from the bytes parsed
        monkeypatch.chdir(ws)
        assert cli.main(argv) == 0
        want = json.loads(capsys.readouterr().out)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (ws / "arr.csv").read_bytes())
            os.close(write_end)
            pipe = f"/dev/fd/{read_end}"
            assert cli.main([pipe if a == "arr.csv" else a for a in argv]) == 0
        finally:
            os.close(read_end)
        got = json.loads(capsys.readouterr().out)
        assert got["manifest"].pop("input_digests")[pipe] == \
            want["manifest"].pop("input_digests")["arr.csv"]
        params = got["manifest"]["resolved_parameters"]
        key = "arrival_csv" if argv[0] == "solve-deadline" else "csv"
        params[key] = want["manifest"]["resolved_parameters"][key]
        assert got == want


class TestPipeline:
    """Every command runs through one pipeline.  With --out, stdout is the
    summary, each line a document value in its format; without it, stdout
    is the document itself."""

    CASES = {
        **PRODUCERS,
        "pol_bound.json": ["solve-deadline", *PROB_FLAGS, "--bound", "0.5",
                           "--out", "pol_bound.json"],
        "alloc_exact.json": [*PRODUCERS["alloc.json"][:-2], "--exact",
                             "--out", "alloc_exact.json"],
        "rep_alloc.json": ["simulate", "--alloc", "alloc.json", "--arrival-csv", "arr.csv",
                           "--periodic", "--trials", "300", "--seed", "4",
                           "--out", "rep_alloc.json"],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_stdout_is_the_summary_or_the_document(self, ws, monkeypatch, capsys, name):
        ensure(ws, "alloc.json")
        argv = self.CASES[name]
        monkeypatch.chdir(ws)
        capsys.readouterr()
        assert cli.main(argv) == 0
        doc = load(ws, name)
        assert capsys.readouterr().out.splitlines() == summary_lines(doc)
        assert cli.main(argv[:-2]) == 0
        doc["manifest"]["resolved_parameters"]["out"] = None
        out = capsys.readouterr().out
        assert out == rows_layout(doc)
        assert json.loads(out) == doc

    def test_an_unexpected_error_exits_5_naming_its_type(self, ws, monkeypatch, capsys):
        def fail(problem):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(cli, "solve_tradeoff", fail)
        monkeypatch.chdir(ws)
        assert cli.main(PRODUCERS["to_zero.json"][:-2]) == 5
        captured = capsys.readouterr()
        assert captured.err == "error: RuntimeError: solver broke\n"
        assert captured.out == ""


class TestCpuKernels:
    """`solve-deadline` on the README's day flags under two OpenBLAS kernels,
    chosen per process by OPENBLAS_CORETYPE (an OpenBLAS that ignores it runs
    its own kernel twice).  The kernel, like numpy's CPU dispatch of np.exp
    and np.log, may move the last bits of `opt`, but not a price; one kernel
    reruns byte for byte."""

    DAY = ["solve-deadline", "--tasks", "200", "--deadline-hours", "24", "--intervals", "72",
           "--arrival-csv", str(REPO_ROOT / "data" / "arrival_weekly.csv"), "--periodic",
           "--acceptance", "15,-0.39,2000", "--max-price", "50"]

    def solve(self, tmp_path, coretype):
        r = subprocess.run([sys.executable, "-m", "crowdpricer", *self.DAY], capture_output=True,
                           cwd=tmp_path, env={**cli_env(), "OPENBLAS_CORETYPE": coretype})
        assert r.returncode == 0, r.stderr
        return r.stdout

    def test_kernels_agree_on_prices_and_within_rounding_on_opt(self, tmp_path):
        skylake = self.solve(tmp_path, "SkylakeX")
        assert self.solve(tmp_path, "SkylakeX") == skylake
        a, b = json.loads(skylake), json.loads(self.solve(tmp_path, "Prescott"))
        assert a["price"] == b["price"]
        assert np.allclose(a["opt"], b["opt"], rtol=1e-13, atol=0)


class TestWarnings:
    """A warning is about the user's input: it prints as one line, with no
    source location or source line."""

    @pytest.mark.parametrize("argv, message", [
        (["solve-deadline", *PROB_FLAGS, "--penalty", "5"],
         "penalty 5.0 below grid.max_price 20: top prices can never pay off"),
        (["tradeoff", "--tasks", "5", "--alpha", "3", "--variant", "fixed-rate",
          "--rate", "300", "--acceptance", "15,-0.39,2000", "--max-price", "50"],
         "fixed-rate premise strained: max lambda*p(c) = 6.084 > 0.2, "
         "multiple completions per interval are likely"),
    ], ids=["penalty", "fixed-rate-premise"])
    def test_one_line(self, ws, argv, message):
        r = run_cli(ws, *argv, "--out", "warned.json")
        assert r.returncode == 0
        assert r.stderr == f"warning: {message}\n"

    def test_a_fixed_price_run_is_not_warned_about_the_penalty(self, ws):
        # a fixed price charges no penalty; a solve on the same flags does
        flags = [*PROB_FLAGS, "--penalty", "5"]
        fixed = run_cli(ws, "simulate", "--fixed-price", "10", *flags, "--trials", "10",
                        "--out", "fixed.json")
        solved = run_cli(ws, "solve-deadline", *flags, "--out", "warned.json")
        assert (fixed.returncode, fixed.stderr) == (0, "")
        assert (solved.returncode, solved.stderr) == (
            0, "warning: penalty 5.0 below grid.max_price 20: top prices can never pay off\n")

    def test_a_baseline_is_not_warned_about_the_penalty(self, ws):
        # the baseline prices at one fixed price too: its document ignores the penalty
        argv = ["baseline", *PROB_FLAGS, "--confidence", "0.9", "--trials", "20"]
        plain = run_cli(ws, *argv, "--out", "base_plain.json")
        warned = run_cli(ws, *argv, "--penalty", "5", "--out", "base_pen.json")
        assert (warned.returncode, warned.stderr) == (0, "")
        docs = [load(ws, name) for name in ("base_plain.json", "base_pen.json")]
        for doc in docs:
            del doc["manifest"]
        assert docs[0] == docs[1] and plain.stdout == warned.stdout

    def test_main_restores_the_formatter(self, ws, monkeypatch, capsys):
        before = warnings.formatwarning
        monkeypatch.chdir(ws)
        assert cli.main(["fit", "arrival", "--csv", "bad.csv"]) == 3
        assert warnings.formatwarning is before


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


@pytest.fixture(scope="module")
def policy_doc():
    """A policy document on the grid of the benchmark's large workload."""
    problem = crowdpricer.DeadlineProblem(
        n_tasks=700, n_intervals=144, interval_seconds=600,
        profile=crowdpricer.ArrivalProfile(600, (3.0,), periodic=True),
        model=crowdpricer.LogisticAcceptance(15.0, -0.39, 2000.0),
        grid=crowdpricer.PriceGrid(0, 100))
    rng = np.random.default_rng(3)
    policy = deadline.DeadlinePolicy(
        price=rng.integers(0, 101, (701, 144)), opt=rng.random((701, 145)) * 1e4,
        problem_digest=deadline.problem_digest(problem))
    doc = deadline.policy_to_dict(problem, policy)
    doc["manifest"] = {"command": "solve-deadline", "input_digests": {}}
    return doc


class TestWriter:
    """cli._emit streams the bytes of json.dumps(doc, sort_keys=True,
    indent=2), each matrix member one row per line, with no full text in
    memory and no partial file on an encoding error."""

    @staticmethod
    def expected(doc):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_file_bytes_and_mode_match_a_plain_write(self, policy_doc, tmp_path):
        out = tmp_path / "pol.json"
        cli._emit(policy_doc, str(out))
        assert out.read_bytes() == rows_layout(policy_doc).encode()
        assert json.loads(out.read_bytes()) == policy_doc
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "pol.json"]

    def test_stdout_bytes_match(self, capsys):
        doc = {"b": [1, 2.5, None], "a": {"z": "é", "y": []}}
        cli._emit(doc, None)
        assert capsys.readouterr().out == self.expected(doc)

    def test_any_list_of_lists_is_written_one_row_per_line(self, capsys):
        # the layout follows the shape alone: rows need not be numbers or of one length
        doc = {"m": [[1, [2, "é"]], [], [{"b": None, "a": True}, 2.5]], "n": [[1, 2], [3]]}
        cli._emit(doc, None)
        out = capsys.readouterr().out
        assert out == ('{\n  "m": [\n    [1, [2, "\\u00e9"]],\n    [],\n'
                       '    [{"a": true, "b": null}, 2.5]\n  ],\n'
                       '  "n": [\n    [1, 2],\n    [3]\n  ]\n}\n')
        assert out == rows_layout(doc)
        assert json.loads(out) == doc

    def test_peak_memory_is_independent_of_document_size(self, policy_doc, tmp_path):
        # the whole text of this document is about 3.5 MB
        tracemalloc.start()
        try:
            cli._emit(policy_doc, str(tmp_path / "pol.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_matrix_rows_take_a_third_less_text(self, policy_doc, tmp_path):
        out = tmp_path / "pol.json"
        cli._emit(policy_doc, str(out))
        assert out.stat().st_size <= 0.7 * len(self.expected(policy_doc))

    def test_peak_memory_of_a_member_that_is_not_a_matrix(self, tmp_path):
        # the whole text of this document is about 5 MB, none of it matrix rows
        rng = np.random.default_rng(5)
        doc = {"per_trial": [{"cost": c, "remaining": r, "completion_seconds": None}
                             for c, r in zip(rng.random(50_000).tolist(),
                                             rng.integers(0, 9, 50_000).tolist())]}
        tracemalloc.start()
        try:
            cli._emit(doc, str(tmp_path / "rep.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "rep.json").read_text() == self.expected(doc)

    def test_a_policy_in_the_earlier_layout_reads_alike(self, ws, monkeypatch, capsys):
        # json.dump's layout, one entry per line, as earlier versions wrote policies
        monkeypatch.chdir(ws)
        assert cli.main(["solve-deadline", *PROB_FLAGS, "--bound", "0.5",
                         "--out", "pol_rows.json"]) == 0
        (ws / "pol_entries.json").write_text(self.expected(load(ws, "pol_rows.json")))
        assert (ws / "pol_entries.json").stat().st_size > (ws / "pol_rows.json").stat().st_size
        runs = []
        for name in ("pol_rows.json", "pol_entries.json"):
            docs = []
            for argv in (["simulate", "--policy", name, "--trials", "200", "--seed", "3"],
                         ["baseline", *PROB_FLAGS, "--confidence", "0.5",
                          "--compare-policy", name]):
                capsys.readouterr()
                assert cli.main(argv) == 0
                doc = json.loads(capsys.readouterr().out)
                del doc["manifest"]
                docs.append(doc)
            runs.append(docs)
        assert runs[1] == runs[0]
        assert runs[0][1]["comparison"] is not None

    def test_encoding_error_keeps_the_existing_file(self, tmp_path):
        out = tmp_path / "pol.json"
        out.write_bytes(b'{"old": true}\n')
        # sorted keys put the long list first, so the encoder has written
        # well past one buffer when it meets the object
        doc = {"data": list(range(50_000)), "manifest": {"bad": object()}}
        with pytest.raises(TypeError):
            cli._emit(doc, str(out))
        assert out.read_bytes() == b'{"old": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["pol.json"]

    def test_outputs_leave_the_umask_alone(self, ws, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("the process umask was changed")

        monkeypatch.chdir(ws)
        monkeypatch.setattr(os, "umask", umask)
        t = tmp_path
        for argv in (["solve-deadline", *PROB_FLAGS, "--out", f"{t}/pol.json"],
                     ["simulate", "--policy", "pol.json", "--trials", "20",
                      "--csv", f"{t}/trials.csv", "--out", f"{t}/rep.json"],
                     ["fit", "arrival", "--csv", "arr.csv", "--csv-out", f"{t}/prof.csv",
                      "--out", f"{t}/prof.json"]):
            assert cli.main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pol.json", "prof.csv", "prof.json", "rep.json", "trials.csv"]

    def test_mode_follows_a_restrictive_umask(self, ws, tmp_path):
        code = ("import os, sys; import crowdpricer.cli as cli; os.umask(0o077); "
                "open(sys.argv[1], 'w').close(); sys.exit(cli.main(sys.argv[2:]))")
        plain, out = tmp_path / "plain.json", tmp_path / "prof.json"
        r = subprocess.run([sys.executable, "-c", code, str(plain), "fit", "arrival", "--csv",
                            "arr.csv", "--out", str(out)], capture_output=True, text=True,
                           cwd=ws, env=cli_env())
        assert r.returncode == 0, r.stderr
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "prof.json"]

    @pytest.mark.parametrize("out, code", [("missing/p.json", errno.ENOENT),
                                           ("dir", errno.EISDIR)], ids=["missing-dir", "a-dir"])
    def test_an_unwritable_out_is_named_as_given(self, ws, monkeypatch, capsys, tmp_path,
                                                 out, code):
        monkeypatch.chdir(ws)
        (tmp_path / "dir").mkdir()
        out = tmp_path / out
        assert cli.main(["solve-deadline", *PROB_FLAGS, "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(code)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]  # no temporary file is left
        assert list((tmp_path / "dir").iterdir()) == []


_NAN = object()


def plain(value):
    """value with numpy rows and matrices as lists and every NaN as `_NAN`,
    so that == compares decoded documents."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return _NAN
    return value


def is_rows(value) -> bool:
    """Whether value is a non-empty list of lists, whatever they hold."""
    return isinstance(value, list) and bool(value) and all(isinstance(row, list) for row in value)


def render(pairs, indent, ensure_ascii, matrix_rows=False) -> bytes:
    """The object json.dumps writes in the given layout, nested keys sorted,
    with the members in the given order and any repeated keys kept.  With
    matrix_rows (and an indent), each member that is a list of rows
    (`is_rows`) is written one row per line, each row's keys sorted."""
    if indent is None:
        dump = functools.partial(json.dumps, separators=(",", ":"), ensure_ascii=ensure_ascii)
        text = "{" + ",".join(f"{dump(k)}:{dump(v)}" for k, v in pairs) + "}"
    else:
        dump = functools.partial(json.dumps, indent=indent, ensure_ascii=ensure_ascii,
                                 sort_keys=True)
        pad = "\n" + " " * indent

        def member(v):
            if matrix_rows and is_rows(v):
                rows = (json.dumps(row, sort_keys=True, ensure_ascii=ensure_ascii) for row in v)
                return "[" + ",".join(pad + " " * indent + row for row in rows) + pad + "]"
            return dump(v).replace(chr(10), pad)

        text = "{" + ",".join(f"{pad}{dump(k)}: {member(v)}" for k, v in pairs)
        text += "\n}" if pairs else "}"
    return (text + "\n").encode()


def rows_layout(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=2) writes it, but each
    top-level member that is a non-empty list of lists one row per line, and
    a final newline: what cli._emit writes, rendered independently of it."""
    return render(sorted(doc.items()), 2, True, matrix_rows=True).decode()


# ints stay within 2**53, so a row that mixes them with floats converts exactly
_scalars = (st.none() | st.booleans() | st.integers(-2**53, 2**53) | st.floats()
            | st.text(max_size=6))
_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
_matrices = st.one_of(
    st.integers(0, 4).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-2**62, 2**62), min_size=cols, max_size=cols), max_size=4)),
    st.integers(0, 4).flatmap(lambda cols: st.lists(
        st.lists(st.floats(), min_size=cols, max_size=cols), max_size=4)),
    st.lists(st.lists(st.integers(-9, 9) | st.floats(-9, 9), max_size=3), max_size=3),
)
_members = st.lists(st.tuples(
    st.sampled_from(["price", "opt", "problem"]) | st.text(max_size=4),
    _matrices | st.lists(st.floats(), max_size=4) | _values), max_size=4)


class TestOutputPaths:
    """An output flag that names the same file as an input or as another
    output exits 2 naming both flags, before anything is written."""

    @pytest.mark.parametrize("argv, flags", [
        (["simulate", "--policy", "pol.json", "--trials", "3", "--csv", "pol.json",
          "--out", "rep.json"], ("--csv", "--policy")),
        (["simulate", "--policy", "pol.json", "--trials", "3", "--csv", "rep.json",
          "--out", "./rep.json"], ("--out", "--csv")),
        (["fit", "arrival", "--csv", "arr.csv", "--csv-out", "arr.csv"], ("--csv-out", "--csv")),
    ], ids=["csv-over-policy", "csv-and-out", "csv-out-over-csv"])
    def test_exits_2_naming_both_flags(self, ws, tmp_path, monkeypatch, capsys, argv, flags):
        for name in ("pol.json", "arr.csv"):  # copies, so a failure clobbers no shared input
            (tmp_path / name).write_bytes((ws / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert f"error: {flags[0]} and {flags[1]} name the same file" in err
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_exits_2_before_the_command_runs(self, ws, tmp_path, monkeypatch, capsys):
        def unreachable(problem):
            raise AssertionError("the solver ran")

        for name in ("arr.csv", "tab.csv"):
            (tmp_path / name).write_bytes((ws / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "solve_efficient", unreachable)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve-deadline", *PROB_FLAGS, "--out", "arr.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith("error: --out and --arrival-csv name the same file: arr.csv")
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


class TestOutputKinds:
    """Every output (`--out`, `simulate --csv`, `fit arrival --csv-out`) is
    written by `cli._write`: a regular file is replaced whole or not at all,
    and a pipe or a symlink is written in place, the pipe's reader getting
    the bytes a file gets and the link kept.  An `--out` that names the file
    standard output writes is not opened: the document goes to stdout, with
    no summary after it."""

    ARGV = ["solve-deadline", *PROB_FLAGS, "--out"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_gets_the_bytes_a_file_gets(self, ws, tmp_path, monkeypatch):
        monkeypatch.chdir(ws)
        out = tmp_path / "pol.json"
        assert cli.main([*self.ARGV, str(out)]) == 0
        want = out.read_bytes()
        out.unlink()
        os.mkfifo(out)
        got = []
        reader = threading.Thread(target=lambda: got.append(out.read_bytes()), daemon=True)
        reader.start()
        assert cli.main([*self.ARGV, str(out)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [want]
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pol.json"]

    def test_a_symlink_is_kept_and_its_target_written(self, ws, tmp_path, monkeypatch):
        monkeypatch.chdir(ws)
        link, target = tmp_path / "pol.json", tmp_path / "target.json"
        assert cli.main([*self.ARGV, str(link)]) == 0
        want = link.read_bytes()
        link.unlink()
        target.write_text("{}")
        link.symlink_to(target)
        assert cli.main([*self.ARGV, str(link)]) == 0
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pol.json", "target.json"]

    def test_a_csv_that_fails_midway_keeps_the_earlier_csv(self, ws, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.chdir(ws)
        csv = tmp_path / "trials.csv"
        csv.write_text("earlier\n")
        rows = simulate.SimulationReport._rows

        def full_disk(report):
            yield from itertools.islice(rows(report), 5)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(simulate.SimulationReport, "_rows", full_disk)
        assert cli.main(["simulate", "--policy", "pol.json", "--trials", "50",
                         "--csv", str(csv)]) == 5
        assert capsys.readouterr().err.endswith(
            f"error: cannot write {csv}: {os.strerror(errno.ENOSPC)}\n")
        assert csv.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]

    FIT = ["fit", "arrival", "--csv", "arr.csv", "--period-buckets", "3", "--out"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_naming_stdout_writes_one_document_there(self, ws):
        r = run_cli(ws, *self.FIT, "/dev/stdout")
        assert (r.returncode, r.stderr) == (0, "")
        doc = json.loads(r.stdout)
        assert doc["manifest"]["resolved_parameters"]["out"] == "/dev/stdout"
        assert r.stdout == rows_layout(doc)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_naming_stdout_appends_where_stdout_appends(self, ws, tmp_path):
        log = tmp_path / "log"
        log.write_text("earlier line\n")
        with open(log, "a") as fh:
            r = subprocess.run([sys.executable, "-m", "crowdpricer", *self.FIT, "/dev/stdout"],
                               stdout=fh, stderr=subprocess.PIPE, text=True, cwd=ws,
                               env=cli_env())
        assert (r.returncode, r.stderr) == (0, "")
        first, rest = log.read_text().split("\n", 1)
        assert first == "earlier line"
        assert json.loads(rest)["profile"]["rates"] == [6.0, 6.0, 6.0]


class TestRepeatedRuns:
    """`cli.main` may run many commands in one process: it builds its parser
    once, and a parse leaves nothing in the parser for the next one."""

    TRADEOFF = PRODUCERS["to_zero.json"][:-2]

    def test_no_parser_is_left_for_the_collector(self, ws, monkeypatch, capsys):
        monkeypatch.chdir(ws)
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it would free
        try:
            for _ in range(2):
                assert cli.main(self.TRADEOFF) == 0
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_a_reused_parser_keeps_no_appended_values(self, ws, monkeypatch, capsys):
        for name in ("a.csv", "b.csv"):
            (ws / name).write_bytes((ws / "arr.csv").read_bytes())
        monkeypatch.chdir(ws)
        fit = ["fit", "arrival", "--csv", "a.csv", "--csv", "b.csv", "--period-buckets", "3"]
        outs = []
        for argv in (fit, self.TRADEOFF, fit):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2]
        assert json.loads(outs[2])["manifest"]["resolved_parameters"]["csv"] == ["a.csv", "b.csv"]

    PENALTY = "penalty 5.0 below grid.max_price 20: top prices can never pay off"

    def test_each_run_prints_its_own_warnings(self, ws):
        # the filter a command line starts with shows each warning once per location
        code = ("import sys, warnings; import crowdpricer.cli as cli; "
                "warnings.simplefilter('default'); "
                "sys.exit(sum(cli.main(sys.argv[1:]) for _ in range(3)))")
        r = subprocess.run([sys.executable, "-c", code, "solve-deadline", *PROB_FLAGS,
                            "--penalty", "5"], capture_output=True, text=True, cwd=ws,
                           env=cli_env())
        assert (r.returncode, r.stderr) == (0, f"warning: {self.PENALTY}\n" * 3)

    def test_the_callers_filters_apply(self, ws, monkeypatch, capsys):
        monkeypatch.chdir(ws)
        argv = ["solve-deadline", *PROB_FLAGS, "--penalty", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert [cli.main(argv) for _ in range(2)] == [0, 0]
        assert [str(w.message) for w in caught] == [self.PENALTY] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 5
        assert capsys.readouterr().err.endswith(f"error: UserWarning: {self.PENALTY}\n")


class TestReader:
    """cli._read_json decodes what json.load decodes, numbers in rows, from
    chunks of any size, and places every error where json.loads does."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader") / "doc.json"

    @staticmethod
    def read(path, chunk, digests=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonstream, "READ_CHUNK", chunk)
            return cli._read_json(str(path), {} if digests is None else digests)

    def assert_reads_like_json_loads(self, path, data, chunk):
        path.write_bytes(data)
        try:  # json.load on a file opened as UTF-8 text
            want = json.loads(data.decode())
        except json.JSONDecodeError as exc:
            message = f"{path}: not valid JSON: {exc}"
        except UnicodeDecodeError:
            message = f"{path}: not valid UTF-8"
        else:
            digests = {}
            assert plain(self.read(path, chunk, digests)) == plain(want)
            assert digests == {str(path): hashlib.sha256(data).hexdigest()}
            return
        with pytest.raises(crowdpricer.DataError) as info:
            self.read(path, chunk)
        assert str(info.value).startswith(message)

    @settings(max_examples=25)
    @given(pairs=_members, indent=st.sampled_from([None, 2, 4]),
           ensure_ascii=st.booleans(), matrix_rows=st.booleans(), chunk=st.integers(1, 7))
    def test_matches_json_loads_on_every_cut(self, path, pairs, indent, ensure_ascii,
                                             matrix_rows, chunk):
        data = render(pairs, indent, ensure_ascii, matrix_rows)
        self.assert_reads_like_json_loads(path, data, chunk)
        for cut in range(len(data)):
            self.assert_reads_like_json_loads(path, data[:cut], chunk)

    @pytest.mark.parametrize("text", [
        '{"a": 1} x', '{"a": 1}{}', '{"a": 1,}', '{"a" 1}', '{"a": 1 "b": 2}', "{1: 2}",
        '{"a": [[1, 2] [3]]}', '{"a": [[1, 2],]}', '{"a": [[1, 2], [3, 4]] ]}',
        '\ufeff{"a": 1}', "", "  \n ", '\n\n  {"a":\n [[1, 2],\n [3, tru]]}',
        '{"a": "\\ud834\\udd1e é", "a": [[NaN, -Infinity], [1e3, -0.0]]}',
        '{"a": [], "b": [[]], "c": [[], []], "d": [1, [2]], "e": [[true]]}',
        '{"a": 1.5e+300, "b": [2.5, -1E-7, 0.25], "c": -12}', '{"a": [[1, [2]]]}',
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_structure_and_errors_match_json_loads(self, path, text, chunk):
        self.assert_reads_like_json_loads(path, text.encode(), chunk)

    def test_a_top_level_value_that_is_not_an_object_is_rejected(self, path):
        path.write_text("[1, 2]")
        with pytest.raises(crowdpricer.DataError, match="expected a JSON object"):
            cli._read_json(str(path), {})

    @staticmethod
    def write_later(fifo, text):
        """A started thread that writes text to the named pipe fifo once a
        reader opens it."""
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        return writer

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_an_invalid_document_in_a_pipe(self, tmp_path, monkeypatch, capsys):
        # a pipe cannot be read again, so json.loads cannot say where the error is
        fifo = tmp_path / "doc.fifo"
        os.mkfifo(fifo)
        writer = self.write_later(fifo, '{"a": 1,}')
        with pytest.raises(crowdpricer.DataError) as info:
            cli._read_json(str(fifo), {})
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(info.value) == f"{fifo}: not valid JSON"
        monkeypatch.chdir(tmp_path)
        writer = self.write_later(fifo, '{"a": 1,}')
        assert cli.main(["simulate", "--trials", "10", "--policy", "doc.fifo"]) == 3
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().err == "error: doc.fifo: not valid JSON\n"

    @staticmethod
    def reference(member):
        """What the reader made of an array member before it decoded matrices
        into one buffer: each item through `_numeric_row`, then `np.stack`
        if every item became a numpy row and all have one length."""
        rows = [jsonstream._numeric_row(item) for item in member]
        matrix = bool(rows) and all(
            isinstance(row, np.ndarray) and len(row) == len(rows[0]) for row in rows)
        return np.stack(rows) if matrix else rows

    @staticmethod
    def assert_identical(got, want):
        """got equals want in type, and every numpy array in dtype, shape and bytes."""
        assert type(got) is type(want), (got, want)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        elif isinstance(want, list):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                TestReader.assert_identical(g, w)
        else:
            assert plain(got) == plain(want)

    @pytest.mark.parametrize("member", [
        "[[1, 2, 3], [4, 5, 6]]", "[[1.5, -2.0], [NaN, Infinity], [1e300, -0.0]]",
        "[[1, 2], [3, 4], [0.5, 1e-7]]", "[[0.5, 1e-7], [1, 2], [3, 4]]",
        "[[9007199254740993, 1], [2.5, 2], [9223372036854775809, 3], [-4, 5]]",
        "[[1, -2], [9223372036854775808, 3]]", "[[9223372036854775808, 3], [1, -2]]",
        "[[]]", "[[], []]", "[[1, 2], [3]]", "[[1, 2], [0.5, 1], [3]]", "[[], [1]]",
        "[[1, [2]], [3, 4]]", "[[1, 2], [[3], 4]]", "[[1, 2], [true, 1]]",
        "[[true, false], [1, 2]]", "[[1.5, false]]", "[1, 2]", "[]", '[[1, 2], "x"]',
        "[[1, 2], null, [3, 4]]", '[{"a": [1]}, [1]]', "[[18446744073709551616, 1]]",
    ], ids=["int", "float", "int-then-float", "float-then-int", "int-float-uint-int",
            "int-then-uint64", "uint64-then-int", "one-empty-row", "two-empty-rows",
            "unequal-lengths", "promoted-then-unequal", "empty-then-not", "nested-item",
            "nested-first-item", "bool-row-last", "bool-row-first", "float-and-bool",
            "flat-numbers", "empty", "string-item", "null-item", "object-item",
            "past-uint64"])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_an_array_member_reads_as_its_rows_stacked(self, path, member, chunk):
        path.write_text(f'{{"m": {member}, "n": 1}}')
        got = self.read(path, chunk)["m"]
        self.assert_identical(got, self.reference(json.loads(member)))

    @pytest.mark.parametrize("edit", [
        # JavaScript's JSON.stringify writes 0.0 as 0
        lambda doc: doc["opt"].__setitem__(0, [0] * len(doc["opt"][0])),
        lambda doc: doc.__setitem__("price", [np.array(row) for row in doc["price"]]),
    ], ids=["int-opt-row", "numpy-price-rows"])
    def test_policy_from_dict_reads_nested_lists_as_the_reader_does(self, ws, path, edit):
        doc = load(ws, "pol.json")
        edit(doc)
        path.write_text(json.dumps(plain(doc)))
        read = cli._read_json(str(path), {})
        _, policy = deadline.policy_from_dict(doc)
        for name in ("price", "opt"):
            self.assert_identical(getattr(policy, name), read[name])

    def test_reading_holds_each_matrix_once(self, policy_doc, tmp_path):
        # rows go straight into one buffer per matrix, and the price grid
        # check builds no price-sized remainder
        path = tmp_path / "pol.json"
        cli._emit(policy_doc, str(path))
        tracemalloc.start()
        try:
            doc = cli._read_json(str(path), {})
            _, policy = deadline.policy_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (policy.price.nbytes + policy.opt.nbytes)

    def test_reading_a_policy_needs_no_object_per_entry(self, policy_doc, tmp_path):
        # json.load peaks at 7.5 MB on this document
        path = tmp_path / "pol.json"
        cli._emit(policy_doc, str(path))
        tracemalloc.start()
        try:
            doc = cli._read_json(str(path), {})
            _, policy = deadline.policy_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20
        assert doc["price"].dtype == np.int64 and doc["opt"].dtype == np.float64
        assert np.array_equal(policy.price, policy_doc["price"])
        assert np.array_equal(policy.opt, policy_doc["opt"])


class TestPolicyInput:
    """simulate --policy and baseline --compare-policy reject a policy
    document that is malformed or off the problem's grid with exit 3 and one
    error line naming the file."""

    COMMANDS = (["simulate", "--trials", "10", "--policy"],
                ["baseline", *PROB_FLAGS, "--confidence", "0.9", "--compare-policy"])

    @staticmethod
    def edited(ws, edit):
        doc = load(ws, "pol.json")
        edit(doc)
        return json.dumps(doc)

    def assert_rejected(self, ws, monkeypatch, capsys, text, reason):
        monkeypatch.chdir(ws)
        (ws / "pol_bad.json").write_text(text)
        for argv in self.COMMANDS:
            assert cli.main([*argv, "pol_bad.json"]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert "pol_bad.json: " in err[0] and reason in err[0]

    def test_off_grid_price_and_nan_opt(self, ws, monkeypatch, capsys):
        def edit(doc):
            doc["price"][12][0] = -50
            doc["opt"][3][2] = math.nan
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit),
                             "policy document: price -50 at (n=12, t=0) is not on the price grid")

    @pytest.mark.parametrize("name, n, t, value, reason", [
        ("price", 4, 5, 21, "price 21 at (n=4, t=5) is not on the price grid"),
        ("price", 4, 5, 2.5, "price 2.5 at (n=4, t=5) is not on the price grid"),
        ("opt", 3, 2, math.nan, "opt nan at (n=3, t=2) is not finite"),
        ("opt", 0, 6, -math.inf, "opt -inf at (n=0, t=6) is not finite"),
        # a bool is not a number, though numpy reads [true, 1] as [1, 1]
        ("price", 1, 0, True, "price is not a 13x6 matrix"),
        ("price", 12, 5, False, "price is not a 13x6 matrix"),
        ("opt", 3, 2, True, "opt is not a 13x7 matrix"),
        ("opt", 0, 6, False, "opt is not a 13x7 matrix"),
    ])
    def test_invalid_entry(self, ws, monkeypatch, capsys, name, n, t, value, reason):
        def edit(doc):
            doc[name][n][t] = value
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit), reason)

    @pytest.mark.parametrize("edit, reason", [
        (lambda doc: doc["price"][5].pop(), "price is not a 13x6 matrix"),
        (lambda doc: doc["price"][4].__setitem__(2, "7"), "price is not a 13x6 matrix"),
        (lambda doc: doc["opt"][4].__setitem__(2, None), "opt is not a 13x7 matrix"),
        (lambda doc: doc["price"][4].__setitem__(2, {}), "price is not a 13x6 matrix"),
        (lambda doc: doc.__setitem__("price", []), "price is not a 13x6 matrix"),
    ], ids=["ragged", "string", "null", "object", "empty"])
    def test_malformed_matrix(self, ws, monkeypatch, capsys, edit, reason):
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit), reason)

    LOGISTIC = {"type": "logistic", "scale_s": 15.0, "bias_b": -0.39, "market_mass_m": 2000.0}

    @pytest.mark.parametrize("path, value, reason", [
        (["n_tasks"], 12.9, "n_tasks must be an integer, got 12.9"),
        (["interval_seconds"], 1200.7, "interval_seconds must be an integer, got 1200.7"),
        (["grid", "max_price"], 20.5, "max_price must be an integer, got 20.5"),
        (["profile", "periodic"], "no", "periodic must be a bool, got 'no'"),
        (["model"], {**LOGISTIC, "scale_s": "15"}, "scale_s must be a number, got '15'"),
        (["model"], {**LOGISTIC, "bias_b": True}, "bias_b must be a number, got True"),
        (["penalty"], True, "penalty must be a number, got True"),
        (["penalty"], None, "penalty must be a number, got None"),
        (["profile", "rates"], ["6", True], "rates must be a number, got '6'"),
        (["model", "entries"], [], "bad acceptance model document"),
    ], ids=["n_tasks", "interval_seconds", "max_price", "periodic", "scale_s", "bias_b",
            "penalty", "null-penalty", "rates", "entries"])
    def test_problem_value_of_the_wrong_type(self, ws, monkeypatch, capsys, path, value,
                                             reason):
        def edit(doc):
            functools.reduce(dict.get, path[:-1], doc["problem"])[path[-1]] = value
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit), reason)

    @pytest.mark.parametrize("value", ["1", True, 1.9], ids=["string", "bool", "fraction"])
    def test_schema_version_of_the_wrong_type(self, ws, monkeypatch, capsys, value):
        def edit(doc):
            doc["schema_version"] = value
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit),
                             f"schema_version must be an integer, got {value!r}")

    def test_calibrated_penalty_below_top_price_reads_without_a_warning(self, ws):
        r = run_cli(ws, "solve-deadline", *PROB_FLAGS, "--bound", "4", "--out", "pol_cal4.json")
        assert r.returncode == 0, r.stderr
        assert load(ws, "pol_cal4.json")["problem"]["penalty"] < 20
        for argv in self.COMMANDS:
            r = run_cli(ws, *argv, "pol_cal4.json", "--out", "read_cal4.json")
            assert r.returncode == 0, r.stderr
            assert r.stderr == ""

    def test_repeated_tabulated_price(self, ws, monkeypatch, capsys):
        # "01" and "1" would name one price; only the key model_to_dict writes is read
        def edit(doc):
            doc["problem"]["model"]["entries"]["01"] = 0.35
        self.assert_rejected(ws, monkeypatch, capsys, self.edited(ws, edit),
                             "tabulated price '01' must be written '1'")

    @pytest.mark.parametrize("text, reason", [
        ("[1, 2]", "pol_bad.json: expected a JSON object at the top level"),
        (None, "pol_bad.json: not valid JSON: Extra data"),
    ], ids=["top-level-array", "trailing-garbage"])
    def test_malformed_document(self, ws, monkeypatch, capsys, text, reason):
        text = text or (ws / "pol.json").read_text() + "x"
        self.assert_rejected(ws, monkeypatch, capsys, text, reason)


# ---------------------------------------------------------------------------
# A derandomized fuzz of the command line.

# flag values by kind: a few valid ones and malformed ones.  Sizes stay
# small or past the float range, because a large valid size is an expensive
# input, not a bad one.
_FUZZ_VALUES = {
    "size": ["0", "1", "3", "12", "-1", "2.5", "x", "", "1e3", "0x10", "9" * 400],
    "int": ["0", "1", "600", "-5", "2.5", "x", "", "99999999999999999999", "9" * 400],
    "real": ["0", "0.5", "1", "2", "-1", "5e-324", "1e308", "nan", "inf", "-inf", "x", ""],
    "text": ["", "x", "1,2", "15,-0.39,2000", "nan,0,1", "1,2,3,4", "0,0,0", "inf,1,1"],
}
# CSV fields and text spliced into documents
_FUZZ_TOKENS = ["0", "-1", "2.5", "1e400", "nan", "inf", "", "x", "1_0", "٣", " 5 ",
                "0x10", '"', ",", "\n", "{", "]", "null", "true", "1e-400", "9" * 400]


class TestFuzz:
    """Malformed flags and documents given to cli.main in-process: every run
    exits 0, 2, 3 or 4 with no traceback, and 3, 4 and 5 print one error
    line.  Exit 5 is kept for the failures named in EXIT_5."""

    EXIT_5 = {
        "an output that cannot be written": "error: cannot write ",
        "an exact budget DP past its work cap": "error: instance too large for exact solver: ",
    }
    FILES = {"arr": "arr.csv", "tab": "tab.csv", "obs": "obs.csv", "pol": "pol.json",
             "alloc": "alloc.json"}
    # (flag, valid value, kind); a flag named "?--flag" is given in a quarter
    # of the runs only, and a None value is then drawn from its kind
    PROBLEM = [("--tasks", "12", "size"), ("--deadline-hours", "2", "real"),
               ("--intervals", "6", "size"), ("--arrival-csv", "arr", "file"),
               ("--acceptance-table", "tab", "file"), ("--max-price", "20", "size"),
               ("?--acceptance", "15,-0.39,2000", "text"), ("?--min-price", "1", "size"),
               ("?--price-step", "2", "size"), ("?--epsilon", "0", "real"),
               ("?--penalty", None, "real"), ("?--existence-alpha", "0.5", "real"),
               ("?--start-offset", "600", "int"), ("?--periodic", None, "switch"),
               ("?--cumulative", None, "switch")]
    COMMANDS = {
        "solve-deadline": [*PROBLEM, ("?--bound", "0.5", "real"),
                           ("?--bound-tol", None, "real"), ("?--solver", "simple", "text")],
        "simulate": [("--policy", "pol", "file"), ("--trials", "20", "size"),
                     ("?--fixed-price", "5", "size"), ("?--alloc", "alloc", "file"),
                     ("?--seed", None, "int"), ("?--per-trial", None, "switch"),
                     ("?--csv", None, "out"), ("?--arrival-csv", "arr", "file"),
                     ("?--tasks", "12", "size"), ("?--start-offset", "0", "int"),
                     ("?--periodic", None, "switch"), ("?--epsilon", "0", "real")],
        "simulate --alloc": [("--alloc", "alloc", "file"), ("--arrival-csv", "arr", "file"),
                             ("--trials", "20", "size"), ("?--periodic", None, "switch"),
                             ("?--tasks", "12", "size"), ("?--start-offset", "0", "int"),
                             ("?--epsilon", "0", "real")],
        "baseline": [*PROBLEM, ("--confidence", "0.9", "real"),
                     ("?--compare-policy", "pol", "file"), ("?--trials", "20", "size"),
                     ("?--seed", None, "int")],
        "solve-budget": [("--tasks", "8", "size"), ("--budget", "90", "int"),
                         ("--acceptance-table", "tab", "file"), ("--max-price", "20", "size"),
                         ("--min-price", "1", "size"), ("--mean-rate", "30", "real"),
                         ("?--acceptance", None, "text"), ("?--exact", None, "switch")],
        "tradeoff": [("--tasks", "5", "size"), ("--alpha", "1", "real"),
                     ("--variant", "arrival", "text"), ("--rate", "30", "real"),
                     ("--acceptance-table", "tab", "file"), ("--max-price", "20", "size"),
                     ("--min-price", "1", "size")],
        "fit arrival": [("--csv", "arr", "file"), ("?--csv", "arr", "file"),
                        ("?--period-buckets", "3", "int"), ("?--periodic", None, "switch"),
                        ("?--cumulative", None, "switch"), ("?--csv-out", None, "out")],
        "fit acceptance": [("--csv", "obs", "file"), ("--task-seconds", "120", "real"),
                           ("--market-total", "6000", "real"),
                           ("?--mass-normalization", None, "real"),
                           ("?--task-type", "writing", "text")],
    }

    @pytest.fixture(scope="class")
    def fuzz_dir(self, ws):
        ensure(ws, "alloc.json")
        return ws

    @staticmethod
    def mutated(data, text: str) -> bytes:
        """text with one edit: cut short, a token spliced in, a line
        dropped, or a byte that is not UTF-8 spliced in."""
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["cut", "splice", "drop", "byte"]))
        if edit == "cut":
            return text[:at].encode()
        if edit == "drop":
            lines = text.splitlines(keepends=True)
            del lines[data.draw(st.integers(0, len(lines) - 1))]
            return "".join(lines).encode()
        if edit == "byte":
            return text[:at].encode() + b"\xff" + text[at:].encode()
        token = data.draw(st.sampled_from(_FUZZ_TOKENS) | st.text(max_size=3))
        cut = data.draw(st.integers(at, min(len(text), at + 4)))  # replace 0-4 chars
        return (text[:at] + token + text[cut:]).encode()

    @staticmethod
    def edited_json(data, text: str) -> bytes:
        """The JSON document with one member or entry replaced or deleted."""
        doc = json.loads(text)
        paths, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            kids = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else ())
            for key, kid in kids:
                paths.append((*path, key))
                stack.append(((*path, key), kid))
        *parents, key = data.draw(st.sampled_from(sorted(paths, key=repr)))
        node = doc
        for step in parents:
            node = node[step]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_values)
        return json.dumps(doc).encode()

    def value(self, data, ws, kind, valid, bad):
        """A value for a flag of `kind`: `valid`, or when `bad` (or when
        there is no valid value) one drawn from the kind's values; a file is
        then a broken copy of `valid`'s document, a missing file, a directory
        or an empty file."""
        if kind == "out":
            return str(ws / data.draw(st.sampled_from(["fz_side.csv", "missing/fz.csv", "."])))
        if kind == "file":
            if not bad:
                return str(ws / self.FILES[valid])
            how = data.draw(st.sampled_from(["edit", "edit", "json", "missing", "dir", "empty"]))
            if how in ("missing", "dir", "empty"):
                return {"missing": str(ws / "no_such_file"), "dir": str(ws),
                        "empty": os.devnull}[how]
            text = (ws / self.FILES[valid]).read_text()
            if how == "json" and valid in ("pol", "alloc"):
                body = self.edited_json(data, text)
            else:
                body = self.mutated(data, text)
            path = ws / f"fz_{valid}{Path(self.FILES[valid]).suffix}"
            path.write_bytes(body)
            return str(path)
        if bad or valid is None:
            return data.draw(st.sampled_from(_FUZZ_VALUES[kind]))
        return valid

    def argv(self, data, ws, command, broken=None):
        """`command` with its flags valid apart from up to two, each left
        out or given a malformed value; or apart from the document of the
        flag `broken` only."""
        spec = self.COMMANDS[command]
        if broken is None:
            bad = set(data.draw(st.lists(st.integers(0, len(spec) - 1), max_size=2)))
        else:
            bad = {[flag.lstrip("?") for flag, _, _ in spec].index(broken)}
        argv = [word for word in command.split() if not word.startswith("-")]
        for i, (flag, valid, kind) in enumerate(spec):
            optional = flag.startswith("?") and i not in bad
            if optional and data.draw(st.sampled_from([True, True, True, False])):
                continue
            if i in bad and broken is None and data.draw(st.sampled_from([0, 1, 2])) == 0:
                continue  # left out
            argv.append(flag.lstrip("?"))
            if kind != "switch":
                argv.append(self.value(data, ws, kind, valid, i in bad))
        out = data.draw(st.sampled_from([None, None, None, "fz_out.json", "fz_out.json",
                                         "fz_out.json", "missing/fz.json", "."]))
        if out is not None:
            argv += ["--out", str(ws / out)]
        if data.draw(st.sampled_from([False] * 9 + [True])):
            argv.insert(data.draw(st.integers(0, len(argv))), data.draw(
                st.sampled_from(["--bogus", "-x", "--", "--tasks", "--out"])))
        return argv

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True):
            warnings.simplefilter("always")  # as on a command line: not raised
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, err.getvalue()

    def check(self, argv):
        code, err = self.run(argv)
        assert "Traceback" not in err, (argv, err)
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        if code in (3, 4, 5):
            errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
            assert len(errors) == 1 and errors[0].startswith("error: "), (argv, err)
            if code == 5:
                assert errors[0].startswith(tuple(self.EXIT_5.values())), (argv, err)

    @settings(max_examples=120)
    @given(data=st.data())
    def test_malformed_flags_and_documents(self, fuzz_dir, data):
        command = data.draw(st.sampled_from(sorted(self.COMMANDS)))
        self.check(self.argv(data, fuzz_dir, command))

    @settings(max_examples=80)
    @given(data=st.data())
    def test_malformed_documents(self, fuzz_dir, data):
        command, flag = data.draw(st.sampled_from([
            ("solve-deadline", "--arrival-csv"), ("solve-deadline", "--acceptance-table"),
            ("simulate", "--policy"), ("simulate --alloc", "--alloc"),
            ("baseline", "--compare-policy"), ("solve-budget", "--acceptance-table"),
            ("fit arrival", "--csv"), ("fit acceptance", "--csv")]))
        self.check(self.argv(data, fuzz_dir, command, broken=flag))

    @pytest.mark.parametrize("name, argv", [
        ("an output that cannot be written",
         ["fit", "arrival", "--csv", "arr.csv", "--out", "missing/p.json"]),
        ("an exact budget DP past its work cap",
         ["solve-budget", "--tasks", "8", "--budget", "99999999", "--acceptance-table",
          "tab.csv", "--max-price", "20", "--exact"]),
    ], ids=["unwritable-out", "exact-dp-cap"])
    def test_each_exit_5_case_happens(self, fuzz_dir, monkeypatch, name, argv):
        monkeypatch.chdir(fuzz_dir)
        code, err = self.run(argv)
        assert code == 5 and err.startswith(self.EXIT_5[name]), err
