"""crowdpricer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/selftest.py

Run from the repository root.  Workloads (see workloads.py for why each
exists): day, large, wide-rates, montecarlo.  Each run is one process that
imports crowdpricer from ./src, generates its inputs from --seed, repeats the
workload's timed operations for about --seconds (at least once), checks every
output it timed, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics with tracing off, and prints the
run's timings.  --trace 1 alternates untraced and traced iterations and
reports the per-layer metrics derived from the spans, with the tracing
overhead; spans are written to .perfbench/.  --out appends the run (result,
every named metric, the document digests and the host) to a JSON-lines file
that --compare reads.  README.md describes the workloads and metrics.

The benchmark exits non-zero without a result when the program is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import DigestStore, canonical_digest, program_fingerprint
from tracer import POISSON, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "crowdpricer"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 7

# end-to-end timings per operation; printed and stored with --out, not gated
# (see README.md: their run-to-run spread on a shared host exceeds any bound
# BENCHMARK.json may set)
OP_METRICS = {
    "solve_deadline": "solve_deadline_s",
    "calibrated_solve": "calibrated_solve_s",
    "baseline": "baseline_s",
    "solve_budget_lp": "solve_budget_lp_s",
    "solve_budget_exact": "solve_budget_exact_s",
    "simulate_policy": "deadline_sim_trials_per_s",
    "simulate_fixed": "deadline_sim_trials_per_s",
    "simulate_alloc": "budget_sim_trials_per_s",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    """Import crowdpricer from this checkout's src, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "data" / "arrival_weekly.csv").is_file():
        raise SystemExit(f"error: crowdpricer sources or data not found under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import crowdpricer
    import crowdpricer.cli  # noqa: F401  (the CLI entry point the workloads call)

    if Path(crowdpricer.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported crowdpricer from {crowdpricer.__file__}, not {PACKAGE}")
    return crowdpricer


def make_workload(cp, name: str, seed: int, tiny: bool, workdir: Path):
    from workloads import WORKLOADS

    store = DigestStore(STATE / ("digests-tiny.json" if tiny else "digests.json"), program_fingerprint(PACKAGE))
    return WORKLOADS[name](cp, ROOT, workdir, store, seed, tiny), store


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import crowdpricer and
    generate this workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = STATE / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe_dir),
               "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_iterations(workload, deadline: float, after=None) -> list[float]:
    """Repeat the workload (at least once) while another iteration still fits
    before ``deadline``; return the timed wall of each iteration."""
    walls = []
    prev = perf_counter()
    while True:
        results = workload.iteration()
        walls.append(sum(r.seconds for r in results))
        if after is not None:
            after()
        now = perf_counter()
        if now + (now - prev) > deadline:
            return walls
        prev = now


def end_to_end_times(workload) -> dict:
    """Each timed operation at its best over the run's iterations, and
    wall_s, their sum.

    The operations are deterministic, so other work on the host can only add
    time to them; on a host whose cores are shared, the best of a run's
    repeats varies about half as much from run to run as their median.
    """
    best: dict = {}
    for results in workload.iterations:
        for i, r in enumerate(results):
            if i not in best or r.seconds < best[i].seconds:
                best[i] = r
    wall = sum(r.seconds for r in best.values())
    out = {"wall_s": (wall, "s")}
    for r in best.values():
        if r.label != "instance":
            out[OP_METRICS[r.label]] = (r.trials / r.seconds, "trials/s") if r.trials else (r.seconds, "s")
    if hasattr(workload, "instances"):
        out["instances_per_s"] = (len(workload.instances) / wall, "instances/s")
        out["opt_gap_max_rel"] = (workload.opt_gap_max_rel, "ratio")
        out["reference_mismatches"] = (len(workload.mismatches), "count")
    return out


def layer_metrics(summary: dict, traced_walls: list[float], untraced_walls: list[float], extra: dict) -> dict:
    """Per-layer metrics per traced iteration, from the span summary.

    Times are self times, except calibrate_s and baseline_s: those two
    functions only drive the solver and evaluator, so their span's whole
    duration is reported.
    """
    k = len(traced_walls)
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, work, nested = summary["calls"], summary["work"], summary["nested"]

    def own(name):
        return self_s.get(name, 0.0) / k

    def rate(name):
        return work[name] / self_s[name] if self_s.get(name, 0.0) > 0 else 0.0

    return {
        "deadline.solve_efficient_s": (own("deadline.solve_efficient"), "s"),
        "deadline.states_per_s": (rate("deadline.solve_efficient"), "states/s"),
        "deadline.solve_simple_s": (own("deadline.solve_simple"), "s"),
        "deadline.evaluate_s": (own("deadline.evaluate_policy_exact"), "s"),
        "deadline.evaluate_calls": (calls["deadline.evaluate_policy_exact"] / k, "count"),
        "deadline.calibrate_s": (total_s.get("deadline.calibrate_penalty", 0.0) / k, "s"),
        "deadline.calibrate_probes": (nested["calibrate_probes"] / k, "count"),
        "deadline.policy_to_dict_s": (own("deadline.policy_to_dict"), "s"),
        "deadline.policy_from_dict_s": (own("deadline.policy_from_dict"), "s"),
        "deadline.opt_gap_max_rel": (extra["opt_gap_max_rel"], "ratio"),
        "deadline.reference_mismatches": (extra["reference_mismatches"], "count"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.warnings": (extra["warnings"] / k, "count"),
        "cli.doc_bytes": (extra["doc_bytes"] / k, "bytes"),
        "market.poisson_s": (sum(own(n) for n in POISSON), "s"),
        "market.poisson_calls": (sum(calls[n] for n in POISSON) / k, "count"),
        "market.poisson_elems": (work["market.poisson_pmf_vector"] / k, "count"),
        "market.acceptance_calls": (extra["acceptance_calls"] / k, "count"),
        "simulate.baseline_s": (total_s.get("simulate.baseline_fixed_price", 0.0) / k, "s"),
        "simulate.baseline_evaluations": (nested["baseline_evaluations"] / k, "count"),
        "simulate.deadline_trials_per_s": (rate("simulate.simulate_deadline"), "trials/s"),
        "simulate.budget_trials_per_s": (rate("simulate.simulate_budget"), "trials/s"),
        "simulate.pool_speedup": (extra["pool_speedup"], "ratio"),
        "budget.solve_lp_s": (own("budget.solve_static_lp"), "s"),
        "budget.solve_exact_s": (own("budget.solve_static_exact"), "s"),
        "budget.exact_cells": (work["budget.solve_static_exact"] / k, "count"),
        "estimation.load_arrival_csv_s": (own("estimation.load_arrival_csv"), "s"),
        "estimation.load_calls": (calls["estimation.load_arrival_csv"] / k, "count"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
        "trace.spans": (summary["spans"] / k, "count"),
    }


def traced_metrics(cp, workload, args, deadline: float) -> tuple[dict, list]:
    """Alternate untraced and traced iterations (at least one pair) while
    another pair fits before ``deadline``, then derive the per-layer metrics
    from the spans; montecarlo also measures the process pool."""
    tracer = Tracer()
    untraced, traced = [], []
    after = traced_extra(workload, args.workload)
    prev = perf_counter()
    while True:
        untraced += run_iterations(workload, 0.0)
        tracer.install(cp)
        try:
            traced += run_iterations(workload, 0.0, after)
        finally:
            tracer.uninstall()
        now = perf_counter()
        if now + (now - prev) > deadline:
            break
        prev = now
    pool_speedup, extra_results = measure_pool(workload) if args.workload == "montecarlo" else (0.0, [])
    traced_results = [r for rs in workload.iterations[1::2] for r in rs]
    extra = {
        "opt_gap_max_rel": getattr(workload, "opt_gap_max_rel", 0.0),
        "reference_mismatches": len(getattr(workload, "mismatches", ())),
        "warnings": sum(len(r.warnings) for r in traced_results),
        "doc_bytes": sum(r.doc_bytes for r in traced_results),
        "acceptance_calls": tracer.acceptance_calls,
        "pool_speedup": pool_speedup,
    }
    tracer.write(STATE / f"spans-{args.workload}-seed{args.seed}.json.gz")
    return layer_metrics(tracer.summarize(), traced, untraced, extra), extra_results


def traced_extra(workload, name: str):
    """day also runs the plain reference solver on its problem in each traced
    iteration, outside the timed wall (deadline.solve_simple_s)."""
    if name != "day":
        return None
    from workloads import library_problem

    return lambda: workload.cp.solve_simple(library_problem(workload.cp, workload.workdir, workload.shape))


def measure_pool(workload) -> tuple[float, list]:
    """simulate --alloc serially and with --parallel (at most nproc workers):
    wall-time ratio, and the parallel report checked against the serial one
    (they may differ only in their ``parallel`` flags)."""
    op = next(o for o in workload.ops if o.label == "simulate_alloc")
    serial = workload.iterations[0][workload.ops.index(op)]
    out = workload.workdir / op.out
    serial_doc = canonical_digest(json.loads(out.read_text()))
    docs = {"solve_budget_lp": json.loads((workload.workdir / "alloc.json").read_text())}
    cpu_count = os.cpu_count
    os.cpu_count = lambda: min(cpu_count() or 1, nproc())  # the pool sizes itself from os.cpu_count()
    try:
        par = workload.run_op(op, docs, op.argv + ["--parallel"])
    finally:
        os.cpu_count = cpu_count
    if par.code == 0 and canonical_digest(json.loads(out.read_text())) != serial_doc:
        par.errors.append("--parallel report differs from the serial report")
    return (serial.seconds / par.seconds if par.seconds > 0 else 0.0), [par]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append this run to a JSON-lines results file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two results files")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        ap.error("--workload is required")
    blas_threads = limit_blas_threads()
    cp = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    STATE.mkdir(exist_ok=True)

    if args.setup_probe:
        probe = Path(args.setup_probe)
        probe.mkdir(parents=True)
        make_workload(cp, args.workload, args.seed, args.tiny, probe)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    workdir = STATE / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload, store = make_workload(cp, args.workload, args.seed, args.tiny, workdir)
        deadline = perf_counter() + args.seconds
        extra_results = []
        if args.trace:
            metrics, extra_results = traced_metrics(cp, workload, args, deadline)
        else:
            run_iterations(workload, deadline)
            times = end_to_end_times(workload)
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        store.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for rs in workload.iterations for r in rs] + extra_results
    failed = [r for r in results if r.errors]
    details = dict(metrics)
    if not args.trace:
        details.update(times)
    details["failed_share"] = (len(failed) / len(results), "failed/attempted")
    env = {"nproc": nproc(), "cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": sys.modules["numpy"].__version__, "blas_threads": blas_threads}
    report(args, workload, results, failed, details, env)
    final = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        line = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                **final, "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
                "digests": {r.label: r.digest for r in results if r.label != "instance"},
                "iterations": len(workload.iterations), "env": env}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
    print(json.dumps(final))
    return 0


def report(args, workload, results, failed, details, env) -> None:
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(workload.iterations)} iterations, {len(results)} operations, {len(failed)} failed")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in sorted(details.items()):
        print(f"#   {name:34s} {value:>16.6g} {unit}")
    mismatches = sorted(getattr(workload, "mismatches", ()))
    if mismatches:
        print(f"# known defect: solve_efficient differs from solve_simple on {len(mismatches)} of "
              f"{len(workload.instances)} instances: {', '.join(map(str, mismatches[:12]))}"
              f"{' ...' if len(mismatches) > 12 else ''}")
    warned = sorted({w for r in results for w in r.warnings})
    for w in warned:
        print(f"# warning: {w}")
    errors = sorted({e for r in failed for e in r.errors})
    for e in errors[:10]:
        print(f"# FAILED {e}")
    if len(errors) > 10:
        print(f"# ... {len(errors) - 10} more distinct failures")


if __name__ == "__main__":
    sys.exit(main())
