"""Command line front end.

Every command runs through one pipeline in `main`.  It exits 2 if an output
path names an input or another output; then the command's handler reads its
inputs, recording the sha256 of each input file, and returns its document,
the object its side output writes (`_Command.side`) or None, and its summary
lines.  The pipeline embeds a run manifest (command name, resolved
parameters, input digests, tool version) in the document and writes it as
indented JSON with sorted keys, a list of lists (`price`) one row per line
(`jsonstream.write_document`), so re-running the same invocation on the same
inputs yields byte-identical output; then the side output, each file by
`_write`, and prints the summary only when the document went to a file.
`errors._bad_input` makes a reader's or a constructor's exception bad input
data, and `_read_document` names the file in every error about a policy or
allocation document.  A warning prints as one `warning: <message>` line.

Exit codes: 0 success, 2 bad command line, 3 bad input data, 4 infeasible
instance, 5 anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

from . import __version__
from .budget import BudgetProblem, _allocation_entries, solve_static_exact, solve_static_lp
from .deadline import (
    SCHEMA_VERSION,
    DeadlineProblem,
    _calibrated_solve,
    evaluate_policy_exact,
    policy_from_dict,
    policy_to_dict,
    solve_efficient,
    solve_simple,
)
from .errors import CrowdPricerError, DataError, InfeasibleError, _bad_input
from .estimation import (
    derive_acceptance_model,
    fit_periodic_profile,
    fit_wage_utility,
    load_acceptance_table,
    load_arrival_csv,
    load_observations_csv,
    write_arrival_csv,
)
from .jsonstream import JsonStream, write_document
from .market import (
    ArrivalProfile,
    LogisticAcceptance,
    PriceGrid,
    _require_int,
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

# The one statement of which flags set which member of a policy's market, all
# that simulating or evaluating a policy reads besides its prices (the grid,
# penalty, epsilon and existence alpha only shaped them).  A member needs a
# value for each of its flags ("A or B": for either); a flag with a default
# always has one.  `simulate --policy` builds and compares the members whose
# flags were given, `baseline --compare-policy` all six, and `simulate
# --alloc` takes the profile's flags and refuses every other problem flag.
_MARKET = {
    "n_tasks": ("--tasks",),
    "n_intervals": ("--intervals",),
    "interval_seconds": ("--deadline-hours", "--intervals"),
    "start_offset_seconds": ("--start-offset",),
    "profile": ("--arrival-csv", "--cumulative", "--periodic"),
    "model": ("--acceptance or --acceptance-table",),
}


# ---------------------------------------------------------------------------
# Small IO helpers.


def _read_csv(load, path: str, digests: dict[str, str], **kwargs):
    """`load(path, **kwargs)`, one of the estimation CSV loaders, with the
    sha256 of the bytes it parsed put into `digests`."""
    digest = hashlib.sha256()
    with _bad_input(f"cannot read {path}: ", OSError):
        result = load(path, digest=digest, **kwargs)
    digests[path] = digest.hexdigest()
    return result


def _read_json(path: str, digests: dict[str, str]) -> dict:
    """The JSON object in `path`, decoded as `json.load` decodes it except
    that each top-level array member goes through `jsonstream.numeric_matrix`
    item by item: rows of numbers of one length become a 2-D numpy array in
    one buffer, and any other array a list.  The file's sha256 goes into
    `digests`.  An invalid text is read again, whole, so that `json.loads`
    says what is wrong with it and where."""
    digest = hashlib.sha256()
    with (_bad_input(f"cannot read {path}: ", OSError),
          _bad_input(f"{path}: not valid UTF-8: ", UnicodeDecodeError),
          _bad_input(f"{path}: not valid JSON: ", json.JSONDecodeError),
          open(path, "rb") as fh):
        try:
            doc = JsonStream(fh, digest).document()
        except ValueError:  # a UnicodeDecodeError too, placed in the whole text
            if fh.seekable():
                fh.seek(0)
                json.loads(fh.read().decode())
            raise DataError(f"{path}: not valid JSON") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    digests[path] = digest.hexdigest()
    return doc


def _read_document(path: str, digests: dict[str, str], parse):
    """`parse` of the JSON object in `path`; every error it raises about
    the document names the file."""
    doc = _read_json(path, digests)
    with _bad_input(f"{path}: ", (DataError, KeyError, TypeError, ValueError)):
        return parse(doc)


def _allocation_from_dict(doc: dict):
    """The (price, count) entries and the acceptance model of an allocation
    document, as `solve-budget` writes it."""
    with _bad_input("bad allocation document: ", (KeyError, TypeError, ValueError)):
        entries = _allocation_entries(
            (e["price"], e["count"]) for e in doc["allocation"]["entries"]
        )
        return entries, model_from_dict(doc["problem"]["model"])


def _value(args: argparse.Namespace, flag: str):
    """The value of `flag`, or None where the command has no such flag."""
    return getattr(args, flag.lstrip("-").replace("-", "_"), None)


class _Noted(argparse.Action):
    """`store`, or `store_true` where `nargs=0`, that also notes the flag in
    the namespace's `_set_flags`, so that a flag on the command line counts
    as set whatever its value.  Each deadline-problem flag is one."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace._set_flags = [*getattr(namespace, "_set_flags", ()), self.option_strings[0]]


def _given(args: argparse.Namespace) -> list[str]:
    """The deadline-problem flags that the command line set, in order, once each."""
    return list(dict.fromkeys(getattr(args, "_set_flags", ())))


def _check_outputs(args: argparse.Namespace, outputs) -> None:
    """Exit 2 if an output flag names the same file as an input or as another output."""
    named = {}  # resolved path -> the first flag naming it; `fit --csv` is an input
    for flag in ("--policy", "--alloc", "--compare-policy", "--arrival-csv",
                 "--acceptance-table", "--csv", *outputs):
        for path in value if isinstance(value := _value(args, flag), list) else [value]:
            other = named.setdefault(os.path.realpath(path), flag) if path else flag
            if flag in outputs and other != flag:
                args._parser.error(f"{flag} and {other} name the same file: {path}")


def _write(path: str, fill: Callable[[str], None]) -> None:
    """Write `path` by `fill(name)`, which writes the file `name`.  A regular
    file, or a path that does not exist yet, is filled under a temporary name
    beside it and renamed into place, so a failure leaves neither a partial
    file nor a clobbered one.  A symlink, pipe or device is filled in place,
    as the shell's `>` fills it: the link is kept and a pipe's reader gets the
    bytes.  An OSError is a failure (exit 5) to write `path` as given."""
    try:
        if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
            return fill(path)  # a directory fails here with EISDIR
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        open(tmp, "x").close()  # O_EXCL: a name that is ours alone, mode 0o666 less the umask
        try:
            fill(tmp)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CrowdPricerError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(doc: dict, out: str | None) -> None:
    """Write doc with `jsonstream.write_document` to stdout, or to `out` by `_write`."""
    def fill(path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_document(doc, fh)
    if out is None:
        write_document(doc, sys.stdout)
    else:
        _write(out, fill)


# ---------------------------------------------------------------------------
# Building blocks shared across subcommands.


def _parse_acceptance_triple(text: str) -> LogisticAcceptance:
    parts = text.split(",")
    if len(parts) != 3:
        raise DataError(
            f"--acceptance expects 'S,B,M' (scale, bias, market mass), got {text!r}"
        )
    with _bad_input(f"bad --acceptance triple {text!r}: "):
        s, b, m = (float(x) for x in parts)
        return LogisticAcceptance(scale_s=s, bias_b=b, market_mass_m=m)


def _build_model(args: argparse.Namespace, digests: dict[str, str]):
    if args.acceptance is not None:
        return _parse_acceptance_triple(args.acceptance)
    return _read_csv(load_acceptance_table, args.acceptance_table, digests)


def _build_grid(args: argparse.Namespace) -> PriceGrid:
    with _bad_input("bad price grid: "):
        return PriceGrid(
            min_price=args.min_price, max_price=args.max_price, step=args.price_step
        )


def _load_profile(args: argparse.Namespace, path: str, digests: dict[str, str]) -> ArrivalProfile:
    profile = _read_csv(load_arrival_csv, path, digests, cumulative_snapshot=args.cumulative)
    return dataclasses.replace(profile, periodic=True) if args.periodic else profile


def _interval_seconds(deadline_hours: float, intervals: int) -> int:
    if _require_int("--intervals", intervals) < 1:  # the division overflows past the float range
        raise DataError(f"--intervals must be >= 1, got {intervals}")
    per = deadline_hours * 3600.0 / intervals
    snapped = round(per) if math.isfinite(per) else 0
    if snapped <= 0 or abs(per - snapped) > 1e-6:
        raise DataError(
            f"a deadline of {deadline_hours} hours does not split into "
            f"{intervals} whole-second intervals ({per:.6g}s each)"
        )
    return int(snapped)


def _flags(member: str) -> list[str]:
    """Every flag that sets `member` of `_MARKET`."""
    return [f for need in _MARKET[member] for f in need.split(" or ")]


def _require(args: argparse.Namespace, members, *flags: str) -> None:
    """Exit 2 naming each flag that `members` of `_MARKET` need, and each of
    `flags`, that has no value."""
    needs = dict.fromkeys([*(n for m in members for n in _MARKET[m]), *flags])
    missing = [n for n in needs if all(_value(args, f) is None for f in n.split(" or "))]
    if missing:
        args._parser.error(f"missing {', '.join(missing)}")


def _market(args: argparse.Namespace, digests: dict[str, str], members=_MARKET) -> dict:
    """`members` of `_MARKET` as the flags define them, as objects."""
    build = {
        "n_tasks": lambda: args.tasks,
        "n_intervals": lambda: args.intervals,
        "interval_seconds": lambda: _interval_seconds(args.deadline_hours, args.intervals),
        "start_offset_seconds": lambda: args.start_offset,
        "profile": lambda: _load_profile(args, args.arrival_csv, digests),
        "model": lambda: _build_model(args, digests),
    }
    with _bad_input("bad problem: "):
        return {member: build[member]() for member in members}


def _build_deadline_problem(
    args: argparse.Namespace, digests: dict[str, str]
) -> DeadlineProblem:
    _require(args, _MARKET, "--max-price")
    with _bad_input("bad problem: "):
        return DeadlineProblem(
            **_market(args, digests),
            grid=_build_grid(args),
            penalty=args.penalty,
            existence_alpha=args.existence_alpha,
            epsilon=args.epsilon,
        )


def _unpenalized_problem(args: argparse.Namespace, digests: dict[str, str]) -> DeadlineProblem:
    """The deadline problem of a run that charges no penalty and so is not warned about it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return _build_deadline_problem(args, digests)


def _check_market(path: str, problem: DeadlineProblem, policy, market: dict) -> None:
    """Exit 3 unless each member of `_MARKET` in `market` equals that of
    `problem`, the problem the policy in `path` was solved for."""
    for key in _MARKET:
        if key in market and market[key] != getattr(problem, key):
            raise DataError(f"policy/problem mismatch: {path} was solved for problem "
                            f"{policy.problem_digest}, whose {key} differs from the flags")


# ---------------------------------------------------------------------------
# Subcommand handlers: (flags, input digests) -> (document, the object that
# the command's side writer writes or None, summary lines).


def _cmd_solve_deadline(args: argparse.Namespace, digests: dict[str, str]):
    if args.bound is not None and args.penalty is not None:
        args._parser.error("--penalty and --bound are mutually exclusive")
    problem = _build_deadline_problem(args, digests)
    solver = solve_simple if args.solver == "simple" else solve_efficient
    calibration = None
    if args.bound is not None:
        # the last accepted probe is the answer: no second solve or evaluation
        achieved, problem, policy, ev = _calibrated_solve(
            problem, args.bound, args.bound_tol, solver
        )
        calibration = {
            "bound": args.bound,
            "tolerance": args.bound_tol,
            "achieved": achieved,
        }
    else:
        policy = solver(problem)
        ev = evaluate_policy_exact(problem, policy)
    doc = policy_to_dict(problem, policy)
    doc["summary"] = {
        "opt_cost_cents": float(policy.opt[problem.n_tasks, 0]),
        "expected_cost_cents": ev.expected_cost,
        "expected_remaining": ev.expected_remaining,
        "completion_probability": 1.0 - ev.pr_any_remaining,
        "penalty_cents": problem.penalty,
        "calibration": calibration,
    }
    summary = [
        f"opt_cost_cents: {doc['summary']['opt_cost_cents']:.6f}",
        f"expected_cost_cents: {ev.expected_cost:.6f}",
        f"expected_remaining: {ev.expected_remaining:.6g}",
        f"completion_probability: {1.0 - ev.pr_any_remaining:.6g}",
        f"penalty_cents: {problem.penalty:.6f}",
    ]
    if calibration is not None:
        summary.append(f"calibration_achieved: {calibration['achieved']:.6g}")
    return doc, None, summary


def _cmd_solve_budget(args: argparse.Namespace, digests: dict[str, str]):
    model = _build_model(args, digests)
    grid = _build_grid(args)
    with _bad_input("bad problem: "):
        problem = BudgetProblem(
            n_tasks=args.tasks,
            budget=args.budget,
            model=model,
            grid=grid,
            mean_rate=args.mean_rate,
        )
    alloc = solve_static_exact(problem) if args.exact else solve_static_lp(problem)
    doc = {
        "problem": {f.name: getattr(problem, f.name) for f in dataclasses.fields(problem)}
        | {"model": model_to_dict(model), "grid": grid_to_dict(grid)},
        "method": "exact" if args.exact else "lp",
        "allocation": {
            "entries": [{"price": c, "count": k} for c, k in alloc.entries],
            "total_cost_cents": alloc.total_cost,
            "expected_workers": alloc.expected_workers,
            "expected_latency_hours": alloc.expected_latency_hours,
        },
    }
    summary = [
        "allocation: " + ", ".join(f"{k} @ {c}" for c, k in alloc.entries),
        f"total_cost_cents: {alloc.total_cost}",
        f"expected_workers: {alloc.expected_workers:.6f}",
        f"expected_latency_hours: {alloc.expected_latency_hours:.6f}",
    ]
    if args.exact:
        # how much the rounded relaxation gives away against the true optimum
        lp = solve_static_lp(problem)
        doc["lp_comparison"] = {
            "expected_workers_lp": lp.expected_workers,
            "gap": lp.expected_workers - alloc.expected_workers,
        }
        summary.append(f"lp_gap_expected_workers: {doc['lp_comparison']['gap']:.6f}")
    return doc, None, summary


def _sim_config(args: argparse.Namespace) -> SimulationConfig:
    with _bad_input(""):
        return SimulationConfig(trials=args.trials, seed=args.seed, parallel=args.parallel)


def _cmd_simulate(args: argparse.Namespace, digests: dict[str, str]):
    config = _sim_config(args)
    if args.alloc is not None:
        refused = [f for f in _given(args) if f not in _flags("profile")]
        if refused:
            args._parser.error(f"{', '.join(refused)} cannot be combined with --alloc "
                               f"(it takes only {', '.join(_flags('profile'))})")
        if args.arrival_csv is None:
            args._parser.error("--alloc needs --arrival-csv for worker arrivals")
        entries, model = _read_document(args.alloc, digests, _allocation_from_dict)
        profile = _load_profile(args, args.arrival_csv, digests)
        report = simulate_budget(entries, profile, model, config)
    elif args.policy is not None:
        problem, policy = _read_document(args.policy, digests, policy_from_dict)
        # the members whose flags were given: the grid and penalty flags go unread
        members = [m for m in _MARKET if set(_flags(m)) & set(_given(args))]
        _require(args, members)
        _check_market(args.policy, problem, policy, _market(args, digests, members))
        report = simulate_deadline(problem, policy, config)
    else:
        problem = _unpenalized_problem(args, digests)
        with _bad_input(""):
            strategy = FixedPrice(args.fixed_price)
        if strategy.price not in (grid := problem.grid).prices():
            raise DataError(f"--fixed-price {strategy.price} is not on the price grid "
                            f"{grid.min_price}..{grid.max_price} step {grid.step}")
        report = simulate_deadline(problem, strategy, config)

    doc = report_to_dict(report, include_per_trial=args.per_trial)
    agg = doc["aggregates"]
    summary = [
        f"strategy: {report.strategy_descriptor}",
        f"mean_cost: {agg['mean_cost']:.6f} (se {agg['se_cost']:.6f})",
        f"mean_remaining: {agg['mean_remaining']:.6f}",
        f"completion_rate: {agg['completion_rate']:.6f}",
    ]
    if agg["mean_completion_seconds"] is not None:
        summary.append(f"mean_completion_seconds: {agg['mean_completion_seconds']:.3f}")
    return doc, report, summary


def _cmd_baseline(args: argparse.Namespace, digests: dict[str, str]):
    config = None if args.trials is None else _sim_config(args)
    problem = _unpenalized_problem(args, digests)
    if args.compare_policy is not None:  # a mismatch exits before the baseline's scan
        other_problem, other_policy = _read_document(args.compare_policy, digests,
                                                     policy_from_dict)
        _check_market(args.compare_policy, other_problem, other_policy, vars(problem))
    price, prob = baseline_fixed_price(problem, args.confidence)
    ev = evaluate_fixed_price(problem, price)
    floor = price_floor_c0(problem)
    doc = {
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
    summary = [
        f"baseline_price_cents: {price}",
        f"completion_probability: {prob:.6g}",
        f"expected_cost_cents: {ev.expected_cost:.6f}",
        f"price_floor_cents: {'none' if floor is None else f'{floor:.6f}'}",
    ]
    if args.compare_policy is not None:
        dyn = evaluate_policy_exact(other_problem, other_policy)
        doc["comparison"] = {
            "fixed_expected_cost_cents": ev.expected_cost,
            "dynamic_expected_cost_cents": dyn.expected_cost,
            "cost_reduction": cost_reduction(ev.expected_cost, dyn.expected_cost),
        }
        summary.append(f"cost_reduction: {doc['comparison']['cost_reduction']:.6g}")
    if config is not None:
        report = simulate_deadline(problem, FixedPrice(price), config)
        doc["simulation"] = report_to_dict(report)
    return doc, None, summary


def _cmd_fit_arrival(args: argparse.Namespace, digests: dict[str, str]):
    if args.period_buckets is not None and args.period_buckets < 1:  # a flag, before any file
        raise DataError(f"--period-buckets: period_buckets must be >= 1, got {args.period_buckets}")
    profiles = [_load_profile(args, path, digests) for path in args.csv]
    if args.period_buckets is not None:
        with _bad_input(f"{', '.join(args.csv)}: ", DataError):  # profiles that do not fold
            profile = fit_periodic_profile(profiles, args.period_buckets)
    elif len(profiles) > 1:
        raise DataError("combining multiple CSVs requires --period-buckets")
    else:
        profile = profiles[0]
    doc = {"profile": profile_to_dict(profile)}
    summary = [
        f"buckets: {len(profile.rates)} x {profile.bucket_seconds}s",
        f"mean_rate_per_hour: {profile.mean_rate_per_hour():.6f}",
    ]
    return doc, profile, summary


def _cmd_fit_acceptance(args: argparse.Namespace, digests: dict[str, str]):
    observations = _read_csv(load_observations_csv, args.csv, digests)
    fit = fit_wage_utility(observations, task_type=args.task_type)
    derived = derive_acceptance_model(
        fit,
        task_seconds=args.task_seconds,
        market_total_per_hour=args.market_total,
        mass_normalization_seconds=args.mass_normalization,
    )
    doc = {
        "fit": dataclasses.asdict(fit),
        "model": model_to_dict(derived.model),
        "derivation": derived.derivation,
    }
    m = derived.model
    summary = [
        f"linear_coefficient: {fit.linear_coefficient:.6f}",
        f"bias: {fit.bias:.6f}",
        f"r_squared: {fit.r_squared:.6f}",
        f"model: logistic scale_s={m.scale_s:.6f} bias_b={m.bias_b:.6f} "
        f"market_mass_m={m.market_mass_m:.6f}",
    ]
    return doc, None, summary


def _cmd_tradeoff(args: argparse.Namespace, digests: dict[str, str]):
    model = _build_model(args, digests)
    grid = _build_grid(args)
    with _bad_input("bad problem: "):
        market = (
            FixedRateMarket(workers_per_interval=args.rate)
            if args.variant == "fixed-rate"
            else ArrivalBasedMarket(mean_rate_per_hour=args.rate)
        )
        problem = TradeoffProblem(
            n_tasks=args.tasks, alpha=args.alpha, model=model, grid=grid, market=market
        )
    solution = solve_tradeoff(problem)
    doc = {
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
    n = problem.n_tasks
    summary = [
        f"price_at_{n}_remaining: {int(solution.prices[n])}",
        f"total_expected_cost_cents: {float(solution.values[n]):.6f}",
    ]
    return doc, None, summary


# ---------------------------------------------------------------------------
# Parser assembly: `_build_parser` builds every parser from `_FLAGS` and
# `_COMMANDS` in one loop.


# One row per distinct (flag, spec); a command may give a flag its own spec.
_FLAGS = {
    # the deadline-problem flags, each noted when the command line sets it
    **{flag: {"action": _Noted, **spec} for flag, spec in {
        "--tasks": dict(type=int, help="number of tasks"),
        "--deadline-hours": dict(type=float, help="horizon length"),
        "--intervals": dict(type=int, help="number of posting intervals in the horizon"),
        "--arrival-csv": dict(metavar="FILE",
                              help="arrival CSV 't_seconds,count' at uniform spacing"),
        "--cumulative": dict(nargs=0, default=False,
                             help="rows are remaining-task snapshots; use their decrements"),
        "--periodic": dict(nargs=0, default=False, help="repeat the profile beyond its span"),
        "--acceptance": dict(metavar="S,B,M",
                             help="logistic acceptance parameters: scale, bias, market mass"),
        "--acceptance-table": dict(
            metavar="FILE", help="CSV 'price_cents,probability' giving p(c) per grid price"),
        "--max-price": dict(type=int, help="largest price in cents"),
        "--min-price": dict(type=int, default=0, help="smallest price in cents (default 0)"),
        "--price-step": dict(type=int, default=1, help="grid step in cents (default 1)"),
        "--epsilon": dict(type=float, default=1e-9,
                          help="transition truncation level (default 1e-9; 0 disables)"),
        "--existence-alpha": dict(
            type=float, default=0.0,
            help="extra terminal penalty weight charged once if anything is unfinished"),
        "--start-offset": dict(type=int, default=0,
                               help="seconds into the profile at which the horizon starts"),
        "--penalty": dict(type=float,
                          help="terminal cost per unfinished task (default 10 * max price)"),
    }.items()},
    "--bound": dict(type=float, help="calibrate the penalty so expected unfinished tasks "
                    "stay within this bound (conflicts with --penalty)"),
    "--bound-tol": dict(type=float, default=0.05,
                        help="relative slack accepted below --bound (default 0.05)"),
    "--solver": dict(choices=["simple", "efficient"], default="efficient",
                     help="price search strategy (identical output)"),
    "--budget": dict(type=int, help="total budget in cents"),
    "--exact": dict(action="store_true", help="integer-exact allocation by dynamic programming"),
    "--mean-rate": dict(
        type=float, default=6000.0,
        help="worker arrivals per hour for the latency conversion (default 6000)"),
    "--policy": dict(metavar="FILE", help="policy JSON from solve-deadline"),
    "--fixed-price": dict(type=int, help="constant price in cents"),
    "--alloc": dict(metavar="FILE", help="allocation JSON from solve-budget"),
    "--trials": dict(type=int, help="number of Monte Carlo trials"),
    "--seed": dict(type=int, default=0, help="base RNG seed (default 0)"),
    "--parallel": dict(action="store_true", help="accepted for compatibility; trials always "
                       "run in vectorized blocks (same results as serial)"),
    "--per-trial": dict(action="store_true", help="include per-trial rows in the JSON"),
    "--csv": dict(metavar="FILE", help="also write per-trial rows as CSV"),
    "--confidence": dict(type=float, default=0.999,
                         help="completion probability target (default 0.999)"),
    "--compare-policy": dict(metavar="FILE",
                             help="policy JSON to compute the cost reduction against"),
    "--period-buckets": dict(
        type=int,
        help="fold onto this many buckets and average (required for multiple CSVs)"),
    "--csv-out": dict(metavar="FILE", help="also write the fitted profile as an arrival CSV"),
    "--task-type": dict(help="task type whose intercept to use (required with multiple types)"),
    "--task-seconds": dict(type=float, help="seconds of work per task"),
    "--market-total": dict(type=float, help="market-wide task completions per hour"),
    "--mass-normalization": dict(type=float, default=360.0,
                                 help="seconds used to normalize the competing mass "
                                 "(default 360; p(c) is invariant to this)"),
    "--alpha": dict(type=float, help="delay cost in cents per interval (fixed-rate) or per "
                    "hour (arrival)"),
    "--variant": dict(choices=["fixed-rate", "arrival"],
                      help="market abstraction for the delay term"),
    "--rate": dict(type=float, help="workers per interval (fixed-rate) or per hour (arrival)"),
}

_MODEL = ("--acceptance", "--acceptance-table")
_GRID = (_MODEL, "--max-price", "--min-price", "--price-step")
_PROBLEM = ("--tasks", "--deadline-hours", "--intervals", "--arrival-csv", "--cumulative",
            "--periodic", *_GRID, "--epsilon", "--existence-alpha", "--start-offset",
            "--penalty")
_PROBLEM_REQUIRED = ("--tasks", "--deadline-hours", "--intervals", "--arrival-csv", _MODEL,
                     "--max-price")
_STRATEGY = ("--policy", "--fixed-price", "--alloc")
_SIM_CONFIG = ("--trials", "--seed", "--parallel")


class _Command(NamedTuple):
    """One parser: its help and, for a command that runs, its handler, the
    help of its `--out` (its last flag), its flags in help order, the flags
    and groups it requires, its own specs in place of rows of `_FLAGS`, and
    its side output as (flag, writer of the object the handler returns).
    A parser without a handler holds the commands whose names extend its own."""

    help: str
    func: Callable | None = None
    out: str = ""
    flags: tuple = ()
    required: tuple = ()
    own: dict = {}
    side: tuple = ()


# One row per parser, in help order.  A command lists its flags in help order,
# and a tuple of flags is one mutually exclusive group.
_COMMANDS = {
    "solve-deadline": _Command(
        "compute the cost-minimal dynamic pricing policy for a deadline", _cmd_solve_deadline,
        "policy JSON path", (*_PROBLEM, "--bound", "--bound-tol", "--solver"),
        _PROBLEM_REQUIRED),
    "solve-budget": _Command(
        "allocate a fixed budget over tasks to minimize latency", _cmd_solve_budget,
        "allocation JSON path", ("--tasks", "--budget", *_GRID, "--exact", "--mean-rate"),
        ("--tasks", "--budget", _MODEL, "--max-price")),
    "simulate": _Command(
        "Monte Carlo a policy, a fixed price, or an allocation", _cmd_simulate,
        "report JSON path", (_STRATEGY, *_PROBLEM, *_SIM_CONFIG, "--per-trial", "--csv"),
        (_STRATEGY, "--trials"), side=("--csv", write_trials_csv)),
    "baseline": _Command(
        "cheapest fixed price meeting a completion-probability target", _cmd_baseline,
        "report JSON path", (*_PROBLEM, "--confidence", "--compare-policy", *_SIM_CONFIG),
        _PROBLEM_REQUIRED),
    "fit": _Command("estimate market inputs from observation CSVs"),
    "fit arrival": _Command(
        "arrival profile from traffic CSVs", _cmd_fit_arrival, "profile JSON path",
        ("--csv", "--cumulative", "--period-buckets", "--periodic", "--csv-out"), ("--csv",),
        {"--csv": dict(metavar="FILE", action="append", help="arrival CSV (repeatable)"),
         "--cumulative": dict(action="store_true",
                              help="rows are remaining-task snapshots; use their decrements"),
         "--periodic": dict(action="store_true", help="mark a single-CSV profile as repeating")},
        ("--csv-out", write_arrival_csv)),
    "fit acceptance": _Command(
        "logistic acceptance model from task-group observations", _cmd_fit_acceptance,
        "model JSON path",
        ("--csv", "--task-type", "--task-seconds", "--market-total", "--mass-normalization"),
        ("--csv", "--task-seconds", "--market-total"),
        {"--csv": dict(metavar="FILE",
                       help="CSV 'wage_per_second,workload_per_hour,task_type'")}),
    "tradeoff": _Command(
        "price the cost/completion-time tradeoff without a deadline", _cmd_tradeoff,
        "solution JSON path", ("--tasks", "--alpha", "--variant", "--rate", *_GRID),
        ("--tasks", "--alpha", "--variant", "--rate", _MODEL, "--max-price")),
}


@functools.cache  # one parser per process: a parse leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdpricer",
        description="Pricing tools for batch crowdsourcing: deadline-optimal "
        "dynamic policies, budget allocations, baselines, simulators, and "
        "market model fitting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = {"": parser.add_subparsers(required=True, metavar="COMMAND")}
    for name, command in _COMMANDS.items():
        parent, _, word = name.rpartition(" ")
        sp = subparsers[parent].add_parser(word, help=command.help)
        if command.func is None:
            subparsers[name] = sp.add_subparsers(dest=f"{name}_command", required=True,
                                                 metavar="WHAT")
            continue
        for entry in command.flags:
            group = (sp.add_mutually_exclusive_group(required=entry in command.required)
                     if isinstance(entry, tuple) else sp)
            for flag in entry if isinstance(entry, tuple) else (entry,):
                group.add_argument(flag, required=flag in command.required,
                                   **command.own.get(flag, _FLAGS[flag]))
        sp.add_argument("--out", metavar="FILE", help=command.out)
        sp.set_defaults(_run=command, _command=name.replace(" ", "-"), _parser=sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning
    # a warning is about the user's input, not about the line that raised it
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    with warnings.catch_warnings():  # each run shows its own warnings, under the caller's filters
        try:
            digests: dict[str, str] = {}
            _check_outputs(args, ["--out", *args._run.side[:1]])
            doc, side, summary = args._run.func(args, digests)
            doc["schema_version"] = SCHEMA_VERSION
            doc["manifest"] = {
                "command": args._command,
                "resolved_parameters": {k: v for k, v in vars(args).items() if k[0] != "_"},
                "input_digests": digests,
                "tool_version": __version__,
            }
            out = args.out  # None also where it names the file stdout writes, as /dev/stdout does
            with contextlib.suppress(OSError, ValueError):  # no such file, or stdout has no fd
                if out and os.path.samestat(os.stat(out), os.fstat(sys.stdout.fileno())):
                    out = None
            _emit(doc, out)
            if side is not None and (path := _value(args, args._run.side[0])) is not None:
                _write(path, functools.partial(args._run.side[1], side))
            # the human summary goes to stdout only when the document went to a file
            if out is not None:
                for line in summary:
                    print(line)
            return 0
        except CrowdPricerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, DataError) else 4 if isinstance(exc, InfeasibleError) else 5
        except Exception as exc:  # CLI boundary: report, do not traceback
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 5
        finally:
            warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
