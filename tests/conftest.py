"""Shared fixtures plus a terminal summary line per acceptance criterion."""

from __future__ import annotations

import dataclasses
import os
import pathlib

import pytest
from hypothesis import settings

import crowdpricer as cp

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Property tests draw the same examples on every run, keep no example
# database and have no per-example time limit.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# criterion number -> (description, outcome), filled by the makereport hook
_ACCEPTANCE: dict[int, tuple[str, str]] = {}


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m crowdpricer`` child run in any directory.

    The directory holding the imported package goes first on PYTHONPATH as an
    absolute path, ahead of whatever PYTHONPATH already held: a relative entry
    such as ``PYTHONPATH=src`` names nothing once the child's working
    directory is a temporary one. COLUMNS and LINES are dropped because
    argparse wraps help text to them, and the help snapshots were taken at
    the 80-column fallback.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "LINES")}
    package_root = str(pathlib.Path(cp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, desc): marks a test as covering one acceptance criterion",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    rep = yield
    marker = item.get_closest_marker("acceptance")
    if marker is not None and rep.when in ("setup", "call"):
        num, desc = marker.args
        if rep.skipped:
            _ACCEPTANCE[num] = (desc, "SKIP")
        elif rep.failed:
            _ACCEPTANCE[num] = (desc, "FAIL")
        elif rep.when == "call" and rep.passed:
            _ACCEPTANCE[num] = (desc, "PASS")
    return rep


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        desc, outcome = _ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num:2d} {outcome}: {desc}")


@pytest.fixture(scope="session")
def weekly_profile() -> cp.ArrivalProfile:
    profile = cp.load_arrival_csv(str(REPO_ROOT / "data" / "arrival_weekly.csv"))
    return dataclasses.replace(profile, periodic=True)


@pytest.fixture(scope="session")
def trained_model() -> cp.LogisticAcceptance:
    return cp.LogisticAcceptance(scale_s=15.0, bias_b=-0.39, market_mass_m=2000.0)


@pytest.fixture(scope="session")
def day_problem(weekly_profile, trained_model) -> cp.DeadlineProblem:
    """200 tasks over 24 hours in 20-minute intervals, prices 0..50."""
    return cp.DeadlineProblem(
        n_tasks=200,
        n_intervals=72,
        interval_seconds=1200,
        profile=weekly_profile,
        model=trained_model,
        grid=cp.PriceGrid(min_price=0, max_price=50),
    )
