"""Self-test of the benchmark: every workload at a tiny size, end to end.

    python3 perfbench/selftest.py

Checks the result line of each run against BENCHMARK.json, that every
workload is correct, that the wide-rates counterexample (instance 0) is
reported as a mismatch with solve_simple, that a corrupted document digest
is detected on the next run, that --compare reads the results files, and
that the benchmark exits non-zero without a result when the program is
absent.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
TINY_DIGESTS = STATE / "digests-tiny.json"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and last["correct"] == (last["failed"] == 0)
    return last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    STATE.mkdir(exist_ok=True)
    TINY_DIGESTS.unlink(missing_ok=True)
    results = STATE / "selftest-results.jsonl"
    results.unlink(missing_ok=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--tiny", "--out", str(results))
                got = result(proc)
                assert {k: m["unit"] for k, m in got["metrics"].items()} == wanted[trace], (workload, trace)
                assert got["correct"], proc.stdout
                if workload == "wide-rates":
                    assert "known defect: solve_efficient differs from solve_simple on" in proc.stdout \
                        and " instances: 0" in proc.stdout, proc.stdout
                if trace == 0:
                    assert all(m["value"] > 0 for m in got["metrics"].values()), got
            print(f"ok   {workload}: trace 0 and 1")

        # a corrupted digest of an earlier run's document must fail the next run
        digests = json.loads(TINY_DIGESTS.read_text())
        TINY_DIGESTS.write_text(json.dumps({k: "0" * 64 for k in digests}))
        proc = run("--workload", "day", "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
        got = result(proc)
        assert got["failed"] >= 1 and "document bytes differ" in proc.stdout, proc.stdout
        print("ok   corrupted document digest detected")

        proc = run("--compare", str(results), str(results))
        assert proc.returncode == 0 and "within bound" in proc.stdout, proc.stdout + proc.stderr
        print("ok   compare mode")

        # only BENCHMARK.json and the benchmark's own files: no program to run
        bare = STATE / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "day", "--seed", "3", "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
        print("ok   exits non-zero without the program")
    finally:
        TINY_DIGESTS.unlink(missing_ok=True)
        results.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
