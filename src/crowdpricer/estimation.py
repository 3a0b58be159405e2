"""Fitting market parameters from observed marketplace data.

Three ingestion paths, each a CSV read by ``read_csv_rows``:

* arrival CSVs (`t_seconds,count` at uniform spacing) become ArrivalProfiles,
  optionally folded onto a period and averaged across files;
* acceptance tables (`price_cents,probability`) become TabulatedAcceptance
  models;
* task-group observation CSVs (`wage_per_second,workload_per_hour,task_type`)
  feed an OLS fit of log(workload) on wage, whose coefficients convert into a
  logistic acceptance model.

The conversion chain: a task paying c cents over task_seconds of work offers
wage c/(100*task_seconds) dollars per second, so utility u(c) = alpha*wage + b
= c/s + b with s = 100*task_seconds/alpha.  Taking exp(utility) as workload
share against a constant competing mass K = market_total_per_hour *
task_seconds gives p(c) = e^u/(e^u + K).  The (bias, mass) pair is only
identified up to a shift (b - ln k, K/k); `mass_normalization_seconds` picks
the reported parameterization (default 360, the implied per-alternative
workload that reproduces the conventional rounding) without changing p(c).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, _bad_input
from .market import ArrivalProfile, LogisticAcceptance, TabulatedAcceptance, _require_int


@dataclass(frozen=True)
class TaskGroupObservation:
    wage_per_second: float  # dollars per second of work
    workload_per_hour: float  # seconds of completed work per hour
    task_type: str


@dataclass(frozen=True)
class FitResult:
    linear_coefficient: float  # alpha: utility per (dollar/second)
    bias: float  # intercept of the selected task type
    intercepts: dict[str, float]
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class DerivedModel:
    model: LogisticAcceptance
    derivation: dict


def read_csv_rows(path: str, columns, digest=None):
    """Yield (row_no, values) for each data row of a CSV file whose header
    names `columns`, (name, int | float | str) pairs, numbering rows from 1
    at the header and skipping blank rows; each field is parsed by its
    column's type.  An empty file, text that is not UTF-8, another header,
    a row with another field count or a field that does not parse raises
    DataError naming the file (and the row).  The file is opened once and
    read whole, so a pipe works too; its bytes also go to `digest`, a
    hashlib object, when one is given."""
    header = [name for name, _ in columns]
    with open(path, "rb") as raw:
        data = raw.read()
    if digest is not None:
        digest.update(data)
    with (_bad_input(f"{path}: not valid UTF-8: ", UnicodeDecodeError),
          io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh):
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        if [h.strip() for h in first] != header:
            raise DataError(
                f"{path}: row 1: header must be "
                f"'{','.join(header)}', got '{','.join(first)}'"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # tolerate blank lines, such as a trailing one
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_no}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            values = []
            for (name, kind), text in zip(columns, row):
                try:  # int() and float() would also read '1_0' and non-ASCII digits
                    if kind is not str and (not text.isascii() or "_" in text):
                        raise ValueError
                    values.append(kind(text))
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise DataError(f"{path}: row {row_no}: {name} must be {what}, "
                                    f"got '{text}'") from None
            yield row_no, values


# ---------------------------------------------------------------------------
# Arrival CSVs.

ARRIVAL_COLUMNS = (("t_seconds", int), ("count", float))


def load_arrival_csv(path: str, cumulative_snapshot: bool = False, digest=None) -> ArrivalProfile:
    """Parse an arrival CSV into a non-periodic profile.

    With cumulative_snapshot=True, rows are remaining-task snapshots and each
    bucket's rate is the decrease between consecutive rows, clamped at 0
    (increases mean new postings, not negative completions).  The file's
    bytes go to `digest` as in `read_csv_rows`.
    """
    times: list[int] = []
    counts: list[float] = []
    for row_no, (t, count) in read_csv_rows(path, ARRIVAL_COLUMNS, digest):
        if t < 0:
            raise DataError(f"{path}: row {row_no}: t_seconds must be non-negative")
        if times and t <= times[-1]:
            raise DataError(
                f"{path}: row {row_no}: t_seconds must be strictly increasing"
            )
        if len(times) >= 2 and t - times[-1] != times[1] - times[0]:
            raise DataError(
                f"{path}: row {row_no}: spacing {t - times[-1]} differs from "
                f"the bucket size {times[1] - times[0]} set by the first two rows"
            )
        if not math.isfinite(count) or count < 0:
            raise DataError(
                f"{path}: row {row_no}: count must be finite and non-negative"
            )
        times.append(t)
        counts.append(count)
    if len(times) < 2:
        raise DataError(f"{path}: need at least 2 rows to infer the bucket size")
    if cumulative_snapshot:
        rates = [max(0.0, counts[i] - counts[i + 1]) for i in range(len(counts) - 1)]
    else:
        rates = counts
    return ArrivalProfile(bucket_seconds=times[1] - times[0], rates=rates, periodic=False)


def write_arrival_csv(profile: ArrivalProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _ in ARRIVAL_COLUMNS) + "\n")
        for i, rate in enumerate(profile.rates):
            fh.write(f"{i * profile.bucket_seconds},{rate!r}\n")


def fit_periodic_profile(
    profiles: list[ArrivalProfile], period_buckets: int
) -> ArrivalProfile:
    """Bucket-wise mean of the inputs folded onto a period.

    Each profile is folded individually (slot i averages its entries at
    indices congruent to i, added in index order by `np.bincount`), then
    slots are averaged across profiles.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    if (period_buckets := _require_int("period_buckets", period_buckets)) < 1:
        raise DomainError(f"period_buckets must be >= 1, got {period_buckets}")
    bucket = profiles[0].bucket_seconds
    folded = []
    for prof in profiles:
        if prof.bucket_seconds != bucket:
            raise DataError(
                f"profiles disagree on bucket size: {prof.bucket_seconds} vs {bucket}"
            )
        if len(prof.rates) < period_buckets:
            raise DataError(
                f"profile with {len(prof.rates)} buckets is shorter than the "
                f"period ({period_buckets})"
            )
        slot = np.arange(len(prof.rates)) % period_buckets
        folded.append(np.bincount(slot, prof.rates, period_buckets) / np.bincount(slot))
    return ArrivalProfile(bucket_seconds=bucket, rates=np.mean(folded, axis=0), periodic=True)


# ---------------------------------------------------------------------------
# Acceptance tables.

ACCEPTANCE_COLUMNS = (("price_cents", int), ("probability", float))


def load_acceptance_table(path: str, digest=None) -> TabulatedAcceptance:
    """Tabulated acceptance model from a `price_cents,probability` CSV."""
    entries: dict[int, float] = {}
    for row_no, (c, p) in read_csv_rows(path, ACCEPTANCE_COLUMNS, digest):
        if c in entries:
            raise DataError(f"{path}: row {row_no}: duplicate price {c}")
        entries[c] = p
    with _bad_input(f"{path}: "):
        return TabulatedAcceptance(entries=entries)


# ---------------------------------------------------------------------------
# Observation CSVs and the wage-utility fit.

OBSERVATION_COLUMNS = (("wage_per_second", float), ("workload_per_hour", float),
                       ("task_type", str))


def load_observations_csv(path: str, digest=None) -> list[TaskGroupObservation]:
    out = []
    for row_no, (wage, workload, task_type) in read_csv_rows(path, OBSERVATION_COLUMNS, digest):
        if not (math.isfinite(wage) and wage >= 0):
            raise DataError(
                f"{path}: row {row_no}: wage_per_second must be finite and >= 0"
            )
        if not (math.isfinite(workload) and workload > 0):
            raise DataError(
                f"{path}: row {row_no}: workload_per_hour must be positive "
                f"(its log enters the fit)"
            )
        task_type = task_type.strip()
        if not task_type:
            raise DataError(f"{path}: row {row_no}: task_type must be non-empty")
        out.append(TaskGroupObservation(wage, workload, task_type))
    if not out:
        raise DataError(f"{path}: no observation rows")
    return out


def fit_wage_utility(
    observations: list[TaskGroupObservation], task_type: str | None = None
) -> FitResult:
    """OLS of log(workload_per_hour) on wage_per_second with a shared slope
    and one intercept per task type, via the normal equations.

    `bias` reports the intercept of `task_type` (or of the only type present).
    """
    if len(observations) < 2:
        raise DataError("need at least 2 observations")
    types = sorted({o.task_type for o in observations})
    wages = np.array([o.wage_per_second for o in observations])
    y = np.array([math.log(o.workload_per_hour) for o in observations])
    dummies = np.zeros((len(observations), len(types)))
    for i, o in enumerate(observations):
        dummies[i, types.index(o.task_type)] = 1.0
    design = np.column_stack([wages, dummies])
    gram = design.T @ design
    # checked before solve(), which can return for a rank-deficient system
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise DataError(
            "degenerate design: wages carry no variation independent of task type"
        )
    beta = np.linalg.solve(gram, design.T @ y)
    residuals = y - design @ beta
    sst = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(residuals**2)) / sst
    intercepts = {t: float(beta[1 + i]) for i, t in enumerate(types)}
    if task_type is None:
        if len(types) > 1:
            raise DataError(
                f"multiple task types present ({', '.join(types)}); "
                f"pass task_type to select the reported bias"
            )
        task_type = types[0]
    if task_type not in intercepts:
        raise DataError(f"task_type '{task_type}' not present in the observations")
    return FitResult(
        linear_coefficient=float(beta[0]),
        bias=intercepts[task_type],
        intercepts=intercepts,
        r_squared=r2,
        n_points=len(observations),
    )


def derive_acceptance_model(
    fit: FitResult,
    task_seconds: float,
    market_total_per_hour: float,
    mass_normalization_seconds: float = 360.0,
) -> DerivedModel:
    """Convert a wage-utility fit into a logistic acceptance model.

    p(c) = e^u/(e^u + K) with u(c) = c/s + bias, s = 100*task_seconds/alpha
    (cents to dollars, task time to wage rate) and K = market_total_per_hour
    * task_seconds (the competing workload mass).  The returned model stores
    the shifted parameterization (bias_b, market_mass_m) = (ln(norm) - bias,
    K/norm); p(c) is invariant to norm, and the chain is recorded step by
    step in `derivation`.
    """
    inputs = {"task_seconds": task_seconds, "market_total_per_hour": market_total_per_hour,
              "mass_normalization_seconds": mass_normalization_seconds}
    for name, value in inputs.items():
        if not (0.0 < value < math.inf):
            raise DomainError(f"{name} must be positive and finite, got {value}")
    alpha = fit.linear_coefficient
    if alpha <= 0:
        raise DataError(
            f"fitted wage coefficient must be positive to derive an "
            f"acceptance curve, got {alpha:.6g}"
        )
    scale_s = 100.0 * task_seconds / alpha
    mass_k = market_total_per_hour * task_seconds
    market_mass_m = mass_k / mass_normalization_seconds
    bias_b = math.log(mass_normalization_seconds) - fit.bias
    # finite inputs can still overflow (or underflow) the derived parameters
    for name, value, ok, formula in (
        ("scale_s", scale_s, 0.0 < scale_s < math.inf,
         f"100 * task_seconds / alpha = 100 * {task_seconds:g} / {alpha:g}"),
        ("market_mass_m", market_mass_m, math.isfinite(market_mass_m),
         "market_total_per_hour * task_seconds / mass_normalization_seconds = "
         f"{market_total_per_hour:g} * {task_seconds:g} / {mass_normalization_seconds:g}"),
        ("bias_b", bias_b, math.isfinite(bias_b),
         f"ln(mass_normalization_seconds) - bias = ln({mass_normalization_seconds:g}) "
         f"- {fit.bias:g}"),
    ):
        if not ok:
            raise DomainError(f"derived {name} = {formula} = {value:g}, outside its domain")
    model = LogisticAcceptance(
        scale_s=scale_s, bias_b=bias_b, market_mass_m=market_mass_m
    )
    derivation = {
        "alpha_per_dollar_second": alpha,
        "bias_raw": fit.bias,
        "task_seconds": task_seconds,
        "market_total_per_hour": market_total_per_hour,
        "scale_s_cents": scale_s,
        "competing_workload_per_hour": mass_k,
        "mass_normalization_seconds": mass_normalization_seconds,
        "market_mass_m": market_mass_m,
        "bias_b": bias_b,
        "note": (
            "p(c) = exp(c/scale_s - bias_b) / (exp(c/scale_s - bias_b) + "
            "market_mass_m); invariant to mass_normalization_seconds, which "
            "only picks the reported (bias, mass) pair"
        ),
    }
    return DerivedModel(model=model, derivation=derivation)
