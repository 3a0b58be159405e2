"""Spans around the public functions of crowdpricer's layers, recorded from
the benchmark's side: each function is replaced, in every crowdpricer module
namespace that holds it, by a wrapper that records a span.

A span is (name, parent span, start ns, end ns, run id, work), kept in memory
and written out when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns


def _size(problem) -> int:
    return problem.n_tasks * problem.n_intervals


# (module, function, work extractor or None); the layers are the modules
TRACED = [
    ("cli", "main", None),
    ("deadline", "solve_efficient", lambda a: _size(a[0])),
    ("deadline", "solve_simple", lambda a: _size(a[0])),
    ("deadline", "evaluate_policy_exact", None),
    ("deadline", "calibrate_penalty", None),
    ("deadline", "policy_to_dict", None),
    ("deadline", "policy_from_dict", None),
    ("market", "poisson_pmf_vector", lambda a: max(int(a[0]), 0)),
    ("market", "poisson_tail_vector", None),
    ("market", "truncation_threshold", None),
    ("simulate", "baseline_fixed_price", None),
    ("simulate", "simulate_deadline", lambda a: a[2].trials),
    ("simulate", "simulate_budget", lambda a: a[3].trials),
    ("budget", "solve_static_lp", None),
    ("budget", "solve_static_exact", lambda a: a[0].n_tasks * (a[0].budget + 1) * len(a[0].grid)),
    ("estimation", "load_arrival_csv", None),
]
POISSON = ("market.poisson_pmf_vector", "market.poisson_tail_vector", "market.truncation_threshold")
SOLVERS = ("deadline.solve_efficient", "deadline.solve_simple")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, int]] = []  # open (span id, run id)
        self.acceptance_calls = 0
        self._patched: list = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            # a top-level call (a CLI command, a library call) starts a run
            parent, run = stack[-1] if stack else (-1, sid)
            stack.append((sid, run))
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, run, work(args) if work else 0)

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.acceptance_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, cp) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "crowdpricer" or n.startswith("crowdpricer.")]
        for mod_name, fn_name, work in TRACED:
            original = getattr(sys.modules[f"crowdpricer.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for cls in (cp.LogisticAcceptance, cp.TabulatedAcceptance):
            self._patched.append((cls, "probability", cls.probability))
            cls.probability = self._count(cls.probability)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "parent", "start_ns", "end_ns", "run_id", "work"],
               "spans": [[index[s[0]], *s[1:]] for s in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def summarize(self) -> dict:
        """Per span name: self and total seconds, call count, work; plus
        solver calls under calibrate_penalty and evaluations under
        baseline_fixed_price."""
        child = defaultdict(int)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns, total_ns, calls, work = Counter(), Counter(), Counter(), Counter()
        nested = Counter()
        for sid, (name, parent, t0, t1, _, w) in enumerate(self.spans):
            self_ns[name] += t1 - t0 - child[sid]
            total_ns[name] += t1 - t0
            calls[name] += 1
            work[name] += w
            if name in SOLVERS and self._under(parent, "deadline.calibrate_penalty"):
                nested["calibrate_probes"] += 1
            if name == "deadline.evaluate_policy_exact" and self._under(parent, "simulate.baseline_fixed_price"):
                nested["baseline_evaluations"] += 1
        return {"self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "total_s": {k: v / 1e9 for k, v in total_ns.items()},
                "calls": calls, "work": work, "nested": nested, "spans": len(self.spans)}

    def _under(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][0] == name:
                return True
            sid = self.spans[sid][1]
        return False
