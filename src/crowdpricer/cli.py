"""Command line front end.

Every document-producing command embeds a run manifest (command name,
resolved parameters, sha256 of each input file, tool version) and writes JSON
with sorted keys, so re-running the same invocation on the same inputs yields
byte-identical output.

Exit codes: 0 success, 2 bad command line, 3 bad input data, 4 infeasible
instance, 5 anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys

from . import __version__
from .budget import BudgetProblem, solve_static_exact, solve_static_lp
from .deadline import (
    DeadlineProblem,
    calibrate_penalty,
    evaluate_policy_exact,
    policy_from_dict,
    policy_to_dict,
    problem_digest,
    problem_to_dict,
    solve_efficient,
    solve_simple,
    with_chosen_penalty,
)
from .errors import CrowdPricerError, DataError, InfeasibleError
from .estimation import (
    derive_acceptance_model,
    fit_periodic_profile,
    fit_wage_utility,
    load_arrival_csv,
    load_observations_csv,
    write_arrival_csv,
)
from .market import (
    ArrivalProfile,
    LogisticAcceptance,
    PriceGrid,
    TabulatedAcceptance,
    grid_to_dict,
    model_from_dict,
    model_to_dict,
    profile_to_dict,
)
from .simulate import (
    FixedPrice,
    SimulationConfig,
    baseline_fixed_price,
    cost_reduction,
    evaluate_fixed_price,
    price_floor_c0,
    report_to_dict,
    simulate_budget,
    simulate_deadline,
    write_trials_csv,
)
from .tradeoff import (
    ArrivalBasedMarket,
    FixedRateMarket,
    TradeoffProblem,
    solve_tradeoff,
)

DOC_SCHEMA = 1

# flags that define a deadline problem; their presence in `simulate --policy`
# triggers a cross-check against the problem embedded in the policy file
_CORE_PROBLEM_FLAGS = (
    ("--tasks", "tasks"),
    ("--deadline-hours", "deadline_hours"),
    ("--intervals", "intervals"),
    ("--arrival-csv", "arrival_csv"),
    ("--acceptance", "acceptance"),
    ("--acceptance-table", "acceptance_table"),
    ("--max-price", "max_price"),
)


# ---------------------------------------------------------------------------
# Small IO helpers.


def _digest_file(path: str, digests: dict[str, str]) -> None:
    try:
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, digests: dict[str, str]) -> dict:
    _digest_file(path, digests)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    return doc


def _manifest(args: argparse.Namespace, digests: dict[str, str]) -> dict:
    params = {
        k: v
        for k, v in vars(args).items()
        if not k.startswith("_") and k not in ("func", "command")
    }
    # nested subparsers cannot overwrite `command` (argparse only applies a
    # parser default when the attribute is absent), so fit subcommands carry
    # their name in _command instead
    return {
        "command": getattr(args, "_command", args.command),
        "resolved_parameters": params,
        "input_digests": digests,
        "tool_version": __version__,
    }


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _say(args: argparse.Namespace, line: str) -> None:
    # human summary goes to stdout only when the document went to a file
    if args.out is not None:
        print(line)


# ---------------------------------------------------------------------------
# Building blocks shared across subcommands.


def _parse_acceptance_triple(text: str) -> LogisticAcceptance:
    parts = text.split(",")
    if len(parts) != 3:
        raise DataError(
            f"--acceptance expects 'S,B,M' (scale, bias, market mass), got {text!r}"
        )
    try:
        s, b, m = (float(x) for x in parts)
        return LogisticAcceptance(scale_s=s, bias_b=b, market_mass_m=m)
    except ValueError as exc:
        raise DataError(f"bad --acceptance triple {text!r}: {exc}") from exc


def _load_acceptance_table(path: str) -> TabulatedAcceptance:
    entries: dict[int, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["price_cents", "probability"]:
            raise DataError(
                f"{path}: row 1: header must be 'price_cents,probability'"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"{path}: row {row_no}: expected 2 fields")
            try:
                c, p = int(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}: row {row_no}: bad numeric field") from None
            if c in entries:
                raise DataError(f"{path}: row {row_no}: duplicate price {c}")
            entries[c] = p
    try:
        return TabulatedAcceptance(entries=entries)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _build_model(args: argparse.Namespace, digests: dict[str, str]):
    if args.acceptance is not None:
        return _parse_acceptance_triple(args.acceptance)
    _digest_file(args.acceptance_table, digests)
    return _load_acceptance_table(args.acceptance_table)


def _build_grid(args: argparse.Namespace) -> PriceGrid:
    try:
        return PriceGrid(
            min_price=args.min_price, max_price=args.max_price, step=args.price_step
        )
    except ValueError as exc:
        raise DataError(f"bad price grid: {exc}") from exc


def _load_profile(args: argparse.Namespace, digests: dict[str, str]) -> ArrivalProfile:
    _digest_file(args.arrival_csv, digests)
    profile = load_arrival_csv(args.arrival_csv, cumulative_snapshot=args.cumulative)
    if args.periodic:
        profile = dataclasses.replace(profile, periodic=True)
    return profile


def _interval_seconds(deadline_hours: float, intervals: int) -> int:
    per = deadline_hours * 3600.0 / intervals
    snapped = round(per)
    if snapped <= 0 or abs(per - snapped) > 1e-6:
        raise DataError(
            f"a deadline of {deadline_hours} hours does not split into "
            f"{intervals} whole-second intervals ({per:.6g}s each)"
        )
    return int(snapped)


def _build_deadline_problem(
    args: argparse.Namespace, digests: dict[str, str]
) -> DeadlineProblem:
    missing = [
        flag
        for flag, attr in _CORE_PROBLEM_FLAGS
        if attr not in ("acceptance", "acceptance_table")
        and getattr(args, attr) is None
    ]
    if args.acceptance is None and args.acceptance_table is None:
        missing.append("--acceptance or --acceptance-table")
    if missing:
        args._parser.error(f"missing {', '.join(missing)}")
    try:
        return DeadlineProblem(
            n_tasks=args.tasks,
            n_intervals=args.intervals,
            interval_seconds=_interval_seconds(args.deadline_hours, args.intervals),
            profile=_load_profile(args, digests),
            model=_build_model(args, digests),
            grid=_build_grid(args),
            penalty=args.penalty,
            start_offset_seconds=args.start_offset,
            existence_alpha=args.existence_alpha,
            epsilon=args.epsilon,
        )
    except ValueError as exc:
        raise DataError(f"bad problem: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_solve_deadline(args: argparse.Namespace) -> int:
    if args.bound is not None and args.penalty is not None:
        args._parser.error("--penalty and --bound are mutually exclusive")
    digests: dict[str, str] = {}
    problem = _build_deadline_problem(args, digests)
    solver = solve_simple if args.solver == "simple" else solve_efficient
    calibration = None
    if args.bound is not None:
        penalty, achieved = calibrate_penalty(
            problem, args.bound, tolerance=args.bound_tol, solver=solver
        )
        problem = with_chosen_penalty(problem, penalty)
        calibration = {
            "bound": args.bound,
            "tolerance": args.bound_tol,
            "achieved": achieved,
        }
    policy = solver(problem)
    ev = evaluate_policy_exact(problem, policy)
    doc = policy_to_dict(problem, policy)
    doc["manifest"] = _manifest(args, digests)
    doc["summary"] = {
        "opt_cost_cents": float(policy.opt[problem.n_tasks, 0]),
        "expected_cost_cents": ev.expected_cost,
        "expected_remaining": ev.expected_remaining,
        "completion_probability": 1.0 - ev.pr_any_remaining,
        "penalty_cents": problem.penalty,
        "calibration": calibration,
    }
    _emit(doc, args.out)
    _say(args, f"opt_cost_cents: {doc['summary']['opt_cost_cents']:.6f}")
    _say(args, f"expected_cost_cents: {ev.expected_cost:.6f}")
    _say(args, f"expected_remaining: {ev.expected_remaining:.6g}")
    _say(args, f"completion_probability: {1.0 - ev.pr_any_remaining:.6g}")
    _say(args, f"penalty_cents: {problem.penalty:.6f}")
    if calibration is not None:
        _say(args, f"calibration_achieved: {calibration['achieved']:.6g}")
    return 0


def _cmd_solve_budget(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    model = _build_model(args, digests)
    grid = _build_grid(args)
    try:
        problem = BudgetProblem(
            n_tasks=args.tasks,
            budget=args.budget,
            model=model,
            grid=grid,
            mean_rate=args.mean_rate,
        )
    except ValueError as exc:
        raise DataError(f"bad problem: {exc}") from exc
    alloc = solve_static_exact(problem) if args.exact else solve_static_lp(problem)
    doc = {
        "schema_version": DOC_SCHEMA,
        "manifest": _manifest(args, digests),
        "problem": {
            "n_tasks": problem.n_tasks,
            "budget": problem.budget,
            "mean_rate": problem.mean_rate,
            "model": model_to_dict(model),
            "grid": grid_to_dict(grid),
        },
        "method": "exact" if args.exact else "lp",
        "allocation": {
            "entries": [{"price": c, "count": k} for c, k in alloc.entries],
            "total_cost_cents": alloc.total_cost,
            "expected_workers": alloc.expected_workers,
            "expected_latency_hours": alloc.expected_latency_hours,
        },
    }
    if args.exact:
        # how much the rounded relaxation gives away against the true optimum
        lp = solve_static_lp(problem)
        doc["lp_comparison"] = {
            "expected_workers_lp": lp.expected_workers,
            "gap": lp.expected_workers - alloc.expected_workers,
        }
    _emit(doc, args.out)
    _say(args, "allocation: " + ", ".join(f"{k} @ {c}" for c, k in alloc.entries))
    _say(args, f"total_cost_cents: {alloc.total_cost}")
    _say(args, f"expected_workers: {alloc.expected_workers:.6f}")
    _say(args, f"expected_latency_hours: {alloc.expected_latency_hours:.6f}")
    if args.exact:
        _say(args, f"lp_gap_expected_workers: {doc['lp_comparison']['gap']:.6f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    try:
        config = SimulationConfig(
            trials=args.trials, seed=args.seed, parallel=args.parallel
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    if args.alloc is not None:
        extra = [
            flag
            for flag, attr in _CORE_PROBLEM_FLAGS
            if attr != "arrival_csv" and getattr(args, attr) is not None
        ]
        if extra:
            args._parser.error(
                f"{', '.join(extra)} cannot be combined with --alloc "
                f"(the allocation document embeds its model)"
            )
        if args.arrival_csv is None:
            args._parser.error("--alloc needs --arrival-csv for worker arrivals")
        raw = _read_json(args.alloc, digests)
        try:
            entries = tuple(
                (int(e["price"]), int(e["count"]))
                for e in raw["allocation"]["entries"]
            )
            model = model_from_dict(raw["problem"]["model"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.alloc}: bad allocation document: {exc}") from exc
        profile = _load_profile(args, digests)
        report = simulate_budget(entries, profile, model, config)
    elif args.policy is not None:
        problem, policy = policy_from_dict(_read_json(args.policy, digests))
        non_profile_flags = any(
            getattr(args, attr) is not None
            for _, attr in _CORE_PROBLEM_FLAGS
            if attr != "arrival_csv"
        )
        if non_profile_flags:
            flag_problem = _build_deadline_problem(args, digests)
            d_flags = problem_digest(flag_problem)
            if policy.problem_digest != d_flags:
                raise DataError(
                    f"policy/problem mismatch: {args.policy} was solved for "
                    f"problem {policy.problem_digest}, the flags describe "
                    f"{d_flags}"
                )
            problem = flag_problem
        elif args.arrival_csv is not None:
            profile = _load_profile(args, digests)
            if profile_to_dict(profile) != profile_to_dict(problem.profile):
                raise DataError(
                    f"arrival mismatch: {args.arrival_csv} (sha256 "
                    f"{digests[args.arrival_csv]}) differs from the profile "
                    f"the policy was solved for (problem digest "
                    f"{policy.problem_digest})"
                )
        report = simulate_deadline(problem, policy, config)
    else:
        problem = _build_deadline_problem(args, digests)
        try:
            strategy = FixedPrice(args.fixed_price)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        report = simulate_deadline(problem, strategy, config)

    doc = report_to_dict(report, include_per_trial=args.per_trial)
    doc["manifest"] = _manifest(args, digests)
    _emit(doc, args.out)
    if args.csv is not None:
        write_trials_csv(report, args.csv)
    agg = doc["aggregates"]
    _say(args, f"strategy: {report.strategy_descriptor}")
    _say(args, f"mean_cost: {agg['mean_cost']:.6f} (se {agg['se_cost']:.6f})")
    _say(args, f"mean_remaining: {agg['mean_remaining']:.6f}")
    _say(args, f"completion_rate: {agg['completion_rate']:.6f}")
    if agg["mean_completion_seconds"] is not None:
        _say(args, f"mean_completion_seconds: {agg['mean_completion_seconds']:.3f}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    problem = _build_deadline_problem(args, digests)
    price, prob = baseline_fixed_price(problem, args.confidence)
    ev = evaluate_fixed_price(problem, price)
    floor = price_floor_c0(problem)
    doc = {
        "schema_version": DOC_SCHEMA,
        "manifest": _manifest(args, digests),
        "baseline": {
            "price_cents": price,
            "completion_probability": prob,
            "confidence": args.confidence,
            "expected_cost_cents": ev.expected_cost,
            "expected_remaining": ev.expected_remaining,
            "price_floor_cents": floor,
        },
        "comparison": None,
        "simulation": None,
    }
    if args.compare_policy is not None:
        other_problem, other_policy = policy_from_dict(
            _read_json(args.compare_policy, digests)
        )
        ours, theirs = problem_to_dict(problem), problem_to_dict(other_problem)
        for key in (
            "n_tasks",
            "n_intervals",
            "interval_seconds",
            "start_offset_seconds",
            "profile",
            "model",
        ):
            if ours[key] != theirs[key]:
                raise DataError(
                    f"{args.compare_policy}: policy solved under a different "
                    f"market: '{key}' differs from the flags"
                )
        dyn = evaluate_policy_exact(other_problem, other_policy)
        doc["comparison"] = {
            "fixed_expected_cost_cents": ev.expected_cost,
            "dynamic_expected_cost_cents": dyn.expected_cost,
            "cost_reduction": cost_reduction(ev.expected_cost, dyn.expected_cost),
        }
    if args.trials is not None:
        config = SimulationConfig(
            trials=args.trials, seed=args.seed, parallel=args.parallel
        )
        report = simulate_deadline(problem, FixedPrice(price), config)
        doc["simulation"] = report_to_dict(report)
    _emit(doc, args.out)
    _say(args, f"baseline_price_cents: {price}")
    _say(args, f"completion_probability: {prob:.6g}")
    _say(args, f"expected_cost_cents: {ev.expected_cost:.6f}")
    floor_txt = "none" if floor is None else f"{floor:.6f}"
    _say(args, f"price_floor_cents: {floor_txt}")
    if doc["comparison"] is not None:
        _say(args, f"cost_reduction: {doc['comparison']['cost_reduction']:.6g}")
    return 0


def _cmd_fit_arrival(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    profiles = []
    for path in args.csv:
        _digest_file(path, digests)
        profiles.append(load_arrival_csv(path, cumulative_snapshot=args.cumulative))
    if args.period_buckets is not None:
        profile = fit_periodic_profile(profiles, args.period_buckets)
    elif len(profiles) > 1:
        raise DataError("combining multiple CSVs requires --period-buckets")
    else:
        profile = profiles[0]
        if args.periodic:
            profile = dataclasses.replace(profile, periodic=True)
    doc = {
        "schema_version": DOC_SCHEMA,
        "manifest": _manifest(args, digests),
        "profile": profile_to_dict(profile),
    }
    _emit(doc, args.out)
    if args.csv_out is not None:
        write_arrival_csv(profile, args.csv_out)
    _say(args, f"buckets: {len(profile.rates)} x {profile.bucket_seconds}s")
    _say(args, f"mean_rate_per_hour: {profile.mean_rate_per_hour():.6f}")
    return 0


def _cmd_fit_acceptance(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    _digest_file(args.csv, digests)
    observations = load_observations_csv(args.csv)
    fit = fit_wage_utility(observations, task_type=args.task_type)
    derived = derive_acceptance_model(
        fit,
        task_seconds=args.task_seconds,
        market_total_per_hour=args.market_total,
        mass_normalization_seconds=args.mass_normalization,
    )
    doc = {
        "schema_version": DOC_SCHEMA,
        "manifest": _manifest(args, digests),
        "fit": {
            "linear_coefficient": fit.linear_coefficient,
            "bias": fit.bias,
            "intercepts": fit.intercepts,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
        },
        "model": model_to_dict(derived.model),
        "derivation": derived.derivation,
    }
    _emit(doc, args.out)
    _say(args, f"linear_coefficient: {fit.linear_coefficient:.6f}")
    _say(args, f"bias: {fit.bias:.6f}")
    _say(args, f"r_squared: {fit.r_squared:.6f}")
    m = derived.model
    _say(
        args,
        f"model: logistic scale_s={m.scale_s:.6f} bias_b={m.bias_b:.6f} "
        f"market_mass_m={m.market_mass_m:.6f}",
    )
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    model = _build_model(args, digests)
    grid = _build_grid(args)
    try:
        market = (
            FixedRateMarket(workers_per_interval=args.rate)
            if args.variant == "fixed-rate"
            else ArrivalBasedMarket(mean_rate_per_hour=args.rate)
        )
        problem = TradeoffProblem(
            n_tasks=args.tasks, alpha=args.alpha, model=model, grid=grid, market=market
        )
    except ValueError as exc:
        raise DataError(f"bad problem: {exc}") from exc
    solution = solve_tradeoff(problem)
    doc = {
        "schema_version": DOC_SCHEMA,
        "manifest": _manifest(args, digests),
        "problem": {
            "n_tasks": problem.n_tasks,
            "alpha": problem.alpha,
            "variant": args.variant,
            "rate": args.rate,
            "model": model_to_dict(model),
            "grid": grid_to_dict(grid),
        },
        "prices": solution.prices.tolist(),
        "values": solution.values.tolist(),
    }
    _emit(doc, args.out)
    n = problem.n_tasks
    _say(args, f"price_at_{n}_remaining: {int(solution.prices[n])}")
    _say(args, f"total_expected_cost_cents: {float(solution.values[n]):.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_grid_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument(
        "--max-price", type=int, required=required, help="largest price in cents"
    )
    p.add_argument(
        "--min-price", type=int, default=0, help="smallest price in cents (default 0)"
    )
    p.add_argument(
        "--price-step", type=int, default=1, help="grid step in cents (default 1)"
    )


def _add_model_args(p: argparse.ArgumentParser, required: bool) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument(
        "--acceptance",
        metavar="S,B,M",
        help="logistic acceptance parameters: scale, bias, market mass",
    )
    g.add_argument(
        "--acceptance-table",
        metavar="FILE",
        help="CSV 'price_cents,probability' giving p(c) per grid price",
    )


def _add_profile_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument(
        "--arrival-csv",
        metavar="FILE",
        required=required,
        help="arrival CSV 't_seconds,count' at uniform spacing",
    )
    p.add_argument(
        "--cumulative",
        action="store_true",
        help="rows are remaining-task snapshots; use their decrements",
    )
    p.add_argument(
        "--periodic",
        action="store_true",
        help="repeat the profile beyond its span",
    )


def _add_deadline_problem_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--tasks", type=int, required=required, help="number of tasks")
    p.add_argument(
        "--deadline-hours", type=float, required=required, help="horizon length"
    )
    p.add_argument(
        "--intervals",
        type=int,
        required=required,
        help="number of posting intervals in the horizon",
    )
    _add_profile_args(p, required)
    _add_model_args(p, required)
    _add_grid_args(p, required)
    p.add_argument(
        "--epsilon",
        type=float,
        default=1e-9,
        help="transition truncation level (default 1e-9; 0 disables)",
    )
    p.add_argument(
        "--existence-alpha",
        type=float,
        default=0.0,
        help="extra terminal penalty weight charged once if anything is unfinished",
    )
    p.add_argument(
        "--start-offset",
        type=int,
        default=0,
        help="seconds into the profile at which the horizon starts",
    )
    p.add_argument(
        "--penalty",
        type=float,
        default=None,
        help="terminal cost per unfinished task (default 10 * max price)",
    )


def _add_sim_config_args(p: argparse.ArgumentParser, trials_required: bool) -> None:
    p.add_argument(
        "--trials",
        type=int,
        required=trials_required,
        default=None,
        help="number of Monte Carlo trials",
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    p.add_argument(
        "--parallel",
        action="store_true",
        help="run trials in a process pool (same results as serial)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdpricer",
        description="Pricing tools for batch crowdsourcing: deadline-optimal "
        "dynamic policies, budget allocations, baselines, simulators, and "
        "market model fitting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser(
        "solve-deadline",
        help="compute the cost-minimal dynamic pricing policy for a deadline",
    )
    _add_deadline_problem_args(sp, required=True)
    sp.add_argument(
        "--bound",
        type=float,
        default=None,
        help="calibrate the penalty so expected unfinished tasks stay within "
        "this bound (conflicts with --penalty)",
    )
    sp.add_argument(
        "--bound-tol",
        type=float,
        default=0.05,
        help="relative slack accepted below --bound (default 0.05)",
    )
    sp.add_argument(
        "--solver",
        choices=["simple", "efficient"],
        default="efficient",
        help="price search strategy (identical output)",
    )
    sp.add_argument("--out", metavar="FILE", default=None, help="policy JSON path")
    sp.set_defaults(func=_cmd_solve_deadline, _parser=sp)

    sp = sub.add_parser(
        "solve-budget", help="allocate a fixed budget over tasks to minimize latency"
    )
    sp.add_argument("--tasks", type=int, required=True, help="number of tasks")
    sp.add_argument("--budget", type=int, required=True, help="total budget in cents")
    _add_model_args(sp, required=True)
    _add_grid_args(sp, required=True)
    sp.add_argument(
        "--exact",
        action="store_true",
        help="integer-exact allocation by dynamic programming",
    )
    sp.add_argument(
        "--mean-rate",
        type=float,
        default=6000.0,
        help="worker arrivals per hour for the latency conversion (default 6000)",
    )
    sp.add_argument("--out", metavar="FILE", default=None, help="allocation JSON path")
    sp.set_defaults(func=_cmd_solve_budget, _parser=sp)

    sp = sub.add_parser(
        "simulate", help="Monte Carlo a policy, a fixed price, or an allocation"
    )
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--policy", metavar="FILE", help="policy JSON from solve-deadline")
    g.add_argument("--fixed-price", type=int, help="constant price in cents")
    g.add_argument("--alloc", metavar="FILE", help="allocation JSON from solve-budget")
    _add_deadline_problem_args(sp, required=False)
    _add_sim_config_args(sp, trials_required=True)
    sp.add_argument(
        "--per-trial", action="store_true", help="include per-trial rows in the JSON"
    )
    sp.add_argument(
        "--csv", metavar="FILE", default=None, help="also write per-trial rows as CSV"
    )
    sp.add_argument("--out", metavar="FILE", default=None, help="report JSON path")
    sp.set_defaults(func=_cmd_simulate, _parser=sp)

    sp = sub.add_parser(
        "baseline",
        help="cheapest fixed price meeting a completion-probability target",
    )
    _add_deadline_problem_args(sp, required=True)
    sp.add_argument(
        "--confidence",
        type=float,
        default=0.999,
        help="completion probability target (default 0.999)",
    )
    sp.add_argument(
        "--compare-policy",
        metavar="FILE",
        default=None,
        help="policy JSON to compute the cost reduction against",
    )
    _add_sim_config_args(sp, trials_required=False)
    sp.add_argument("--out", metavar="FILE", default=None, help="report JSON path")
    sp.set_defaults(func=_cmd_baseline, _parser=sp)

    sp = sub.add_parser("fit", help="estimate market inputs from observation CSVs")
    fit_sub = sp.add_subparsers(dest="fit_command", required=True, metavar="WHAT")

    fp = fit_sub.add_parser("arrival", help="arrival profile from traffic CSVs")
    fp.add_argument(
        "--csv",
        metavar="FILE",
        action="append",
        required=True,
        help="arrival CSV (repeatable)",
    )
    fp.add_argument(
        "--cumulative",
        action="store_true",
        help="rows are remaining-task snapshots; use their decrements",
    )
    fp.add_argument(
        "--period-buckets",
        type=int,
        default=None,
        help="fold onto this many buckets and average (required for multiple CSVs)",
    )
    fp.add_argument(
        "--periodic",
        action="store_true",
        help="mark a single-CSV profile as repeating",
    )
    fp.add_argument(
        "--csv-out",
        metavar="FILE",
        default=None,
        help="also write the fitted profile as an arrival CSV",
    )
    fp.add_argument("--out", metavar="FILE", default=None, help="profile JSON path")
    fp.set_defaults(func=_cmd_fit_arrival, _command="fit-arrival", _parser=fp)

    fp = fit_sub.add_parser(
        "acceptance", help="logistic acceptance model from task-group observations"
    )
    fp.add_argument(
        "--csv",
        metavar="FILE",
        required=True,
        help="CSV 'wage_per_second,workload_per_hour,task_type'",
    )
    fp.add_argument(
        "--task-type",
        default=None,
        help="task type whose intercept to use (required with multiple types)",
    )
    fp.add_argument(
        "--task-seconds",
        type=float,
        required=True,
        help="seconds of work per task",
    )
    fp.add_argument(
        "--market-total",
        type=float,
        required=True,
        help="market-wide task completions per hour",
    )
    fp.add_argument(
        "--mass-normalization",
        type=float,
        default=360.0,
        help="seconds used to normalize the competing mass (default 360; "
        "p(c) is invariant to this)",
    )
    fp.add_argument("--out", metavar="FILE", default=None, help="model JSON path")
    fp.set_defaults(func=_cmd_fit_acceptance, _command="fit-acceptance", _parser=fp)

    sp = sub.add_parser(
        "tradeoff",
        help="price the cost/completion-time tradeoff without a deadline",
    )
    sp.add_argument("--tasks", type=int, required=True, help="number of tasks")
    sp.add_argument(
        "--alpha",
        type=float,
        required=True,
        help="delay cost in cents per interval (fixed-rate) or per hour (arrival)",
    )
    sp.add_argument(
        "--variant",
        choices=["fixed-rate", "arrival"],
        required=True,
        help="market abstraction for the delay term",
    )
    sp.add_argument(
        "--rate",
        type=float,
        required=True,
        help="workers per interval (fixed-rate) or per hour (arrival)",
    )
    _add_model_args(sp, required=True)
    _add_grid_args(sp, required=True)
    sp.add_argument("--out", metavar="FILE", default=None, help="solution JSON path")
    sp.set_defaults(func=_cmd_tradeoff, _parser=sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CrowdPricerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
