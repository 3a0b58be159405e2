"""Market primitives: worker arrival profiles, task acceptance models,
price grids, and the Poisson machinery the solvers share.

Conventions used throughout the package:

* prices are integer cents;
* time is measured in seconds, rates in workers per bucket;
* an arrival profile is a piecewise-constant intensity (one value per
  bucket), optionally extended periodically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ArrivalProfile:
    """Piecewise-constant worker arrival intensity.

    ``rates[i]`` is the expected number of arrivals in bucket ``i``, i.e.
    during ``[i*bucket_seconds, (i+1)*bucket_seconds)``.  A periodic profile
    repeats forever; a non-periodic one is undefined past its last bucket.
    """

    bucket_seconds: int
    rates: tuple[float, ...]
    periodic: bool = False
    _prefix: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise ValueError("profile needs at least one bucket")
        for r in rates:
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"rates must be finite and non-negative, got {r}")
        object.__setattr__(self, "rates", rates)
        prefix = [0.0]
        for r in rates:
            prefix.append(prefix[-1] + r)
        object.__setattr__(self, "_prefix", tuple(prefix))

    @property
    def span_seconds(self) -> int:
        return self.bucket_seconds * len(self.rates)

    def _cumulative(self, t: float) -> float:
        """Integral of the intensity over [0, t), in expected arrivals."""
        if t <= 0:
            return 0.0
        span = self.span_seconds
        total = self._prefix[-1]
        whole = 0.0
        if self.periodic:
            periods = math.floor(t / span)
            whole = periods * total
            t -= periods * span
            if t >= span:  # guard against float slop at period boundaries
                whole += total
                t -= span
        elif t > span:
            raise DataError(
                f"profile exhausted: window reaches {t:.0f}s but the profile "
                f"spans {span}s and is not periodic"
            )
        k = min(int(t // self.bucket_seconds), len(self.rates) - 1)
        frac = t - k * self.bucket_seconds
        return whole + self._prefix[k] + self.rates[k] * (frac / self.bucket_seconds)

    def expected_arrivals(self, t_start: float, t_end: float) -> float:
        """Expected arrivals in [t_start, t_end).

        Computed as a difference of one cumulative function, so adjacent
        windows add up exactly (to float rounding).
        """
        if t_start < 0 or t_end < t_start:
            raise ValueError("need 0 <= t_start <= t_end")
        return self._cumulative(t_end) - self._cumulative(t_start)

    def mean_rate_per_hour(self) -> float:
        return self._prefix[-1] / self.span_seconds * 3600.0


class AcceptanceModel:
    """Maps an offered price (integer cents) to the probability that an
    arriving worker accepts the task."""

    def probability(self, price: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LogisticAcceptance(AcceptanceModel):
    """Discrete-choice acceptance curve

        p(c) = exp(c/s - b) / (exp(c/s - b) + M)

    evaluated in the overflow-safe form 1 / (1 + M * exp(b - c/s)) with the
    exponent clamped to +-700.  M = 0 degenerates to p == 1.
    """

    scale_s: float
    bias_b: float
    market_mass_m: float

    def __post_init__(self) -> None:
        if not (self.scale_s > 0 and math.isfinite(self.scale_s)):
            raise ValueError("scale_s must be positive and finite")
        if not math.isfinite(self.bias_b):
            raise ValueError("bias_b must be finite")
        if not (self.market_mass_m >= 0 and math.isfinite(self.market_mass_m)):
            raise ValueError("market_mass_m must be non-negative and finite")

    def probability(self, price: int) -> float:
        if self.market_mass_m == 0:
            return 1.0
        x = price / self.scale_s - self.bias_b
        x = min(700.0, max(-700.0, x))
        # y = ln(M) - x; p = 1/(1+e^y), evaluated as e^-y for large y
        y = math.log(self.market_mass_m) - x
        if y > 36.0:
            return math.exp(-y)
        return 1.0 / (1.0 + math.exp(y))


@dataclass(frozen=True)
class TabulatedAcceptance(AcceptanceModel):
    """Acceptance probabilities given explicitly per grid price."""

    entries: dict[int, float]

    def __post_init__(self) -> None:
        entries = {int(c): float(p) for c, p in self.entries.items()}
        if not entries:
            raise ValueError("tabulated model needs at least one entry")
        prev_c, prev_p = None, None
        for c in sorted(entries):
            p = entries[c]
            if not (0.0 < p <= 1.0):
                raise ValueError(f"probability for price {c} must be in (0, 1], got {p}")
            if prev_p is not None and p < prev_p:
                raise ValueError(
                    f"probabilities must be non-decreasing in price: "
                    f"p({c})={p} < p({prev_c})={prev_p}"
                )
            prev_c, prev_p = c, p
        object.__setattr__(self, "entries", entries)

    def probability(self, price: int) -> float:
        try:
            return self.entries[int(price)]
        except KeyError:
            raise DataError(f"price not in model: {price}") from None


@dataclass(frozen=True)
class PriceGrid:
    """Integer-cent price grid {min_price, min_price+step, ..., max_price}."""

    min_price: int
    max_price: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.min_price < 0:
            raise ValueError("min_price must be non-negative")
        if self.max_price < self.min_price:
            raise ValueError("max_price must be >= min_price")
        if (self.max_price - self.min_price) % self.step != 0:
            raise ValueError("max_price - min_price must be a multiple of step")

    def prices(self) -> range:
        return range(self.min_price, self.max_price + 1, self.step)

    def __len__(self) -> int:
        return (self.max_price - self.min_price) // self.step + 1


# ---------------------------------------------------------------------------
# Poisson machinery.
#
# The pmf is computed in log space (no overflow for large k or lambda); tails
# are exact summations, never normal approximations, because the truncation
# thresholds below are contractual.

_LGAMMA_CACHE = np.zeros(1)  # lgamma(k+1) for k = 0..len-1


def _lgamma_table(n: int) -> np.ndarray:
    """lgamma(k+1) for k = 0..n-1, grown geometrically and cached."""
    global _LGAMMA_CACHE
    if len(_LGAMMA_CACHE) < n:
        size = max(n, 2 * len(_LGAMMA_CACHE), 256)
        tbl = np.empty(size)
        tbl[0] = 0.0
        # lgamma(k+1) = lgamma(k) + ln(k)
        np.cumsum(np.log(np.arange(1, size)), out=tbl[1:])
        _LGAMMA_CACHE = tbl
    return _LGAMMA_CACHE[:n]


def poisson_pmf(k: int, lam: float) -> float:
    """Pr(Pois(lam) = k), stable for large k and lam."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-lam)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_support_end(lam: float, floor: float = 1e-18) -> int:
    """An index K with Pr(Pois(lam) >= K) < floor.

    Pois(lam) is sub-gamma with variance factor lam and scale 1, so
    Pr(X >= lam + sqrt(2*lam*L) + L) <= exp(-L); with L = ln(1/floor) the
    mass from K = ceil(lam + sqrt(2*lam*L) + L) + 1 upward is below floor.
    """
    big_l = -math.log(floor)
    return math.ceil(lam + math.sqrt(2.0 * lam * big_l) + big_l) + 1


def poisson_tables(
    mus: np.ndarray, n: int, floor: float = 1e-18
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson tables for a vector of means: the one place they are built.

    Returns (pmf, tails) with pmf[i, k] = Pr(Pois(mus[i]) = k) for k < n and
    tails[i, k] = Pr(Pois(mus[i]) >= k) for k <= n.  The pmf is evaluated
    in log space out to past n and past poisson_support_end(max(mus),
    floor); the tails are its suffix sums, adding the small terms first, and
    leave out only the mass beyond that end, below floor.  A zero mean gives
    the point mass at 0.
    """
    mus = np.asarray(mus, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(mus) & (mus >= 0.0)):
        raise ValueError("Poisson means must be finite and non-negative")
    end = max(n + 1, poisson_support_end(float(mus.max(initial=0.0)), floor))
    live = mus > 0.0
    # log(1) stands in for log(0) on zero-mean rows, whose k = 0 entry comes
    # out as exp(0) = 1 and whose other entries are cleared below
    pmf = np.arange(end) * np.log(np.where(live, mus, 1.0))[:, None]
    pmf -= mus[:, None]
    pmf -= _lgamma_table(end)
    np.exp(pmf, out=pmf)
    pmf[~live, 1:] = 0.0
    tails = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    tails[:, 0] = 1.0
    return pmf[:, :n], tails[:, : n + 1]


def poisson_pmf_vector(n: int, lam: float) -> np.ndarray:
    """Pr(Pois(lam) = k) for k = 0..n-1 as a float64 array."""
    return poisson_tables(np.array([lam]), max(n, 0))[0][0]


def poisson_tail(k: int, lam: float) -> float:
    """Pr(Pois(lam) >= k), by exact summation on the smaller side."""
    if k <= 0:
        return 1.0
    if lam == 0:
        return 0.0
    if k <= lam:
        # cdf(k-1) < ~0.6, so 1 - cdf is well conditioned here
        return 1.0 - float(np.sum(poisson_pmf_vector(k, lam)))
    # small tail: sum upward from k until terms stop mattering
    term = poisson_pmf(k, lam)
    total = term
    j = k
    while term > total * 1e-20:
        j += 1
        term *= lam / j
        total += term
    return total


def poisson_tail_vector(n: int, lam: float) -> np.ndarray:
    """Pr(Pois(lam) >= k) for k = 0..n-1, accurate in both tails."""
    if n <= 0:
        return np.zeros(0)
    return poisson_tables(np.array([lam]), n - 1)[1][0]


def truncation_threshold(lam: float, epsilon: float) -> int:
    """Smallest s0 with Pr(Pois(lam) >= s0) < epsilon, by exact tail sums."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    # tails at the support end are below floor < epsilon, so s0 is in range
    floor = min(1e-18, epsilon * 1e-9)
    end = poisson_support_end(lam, floor)
    tails = poisson_tables(np.array([lam]), end, floor)[1][0]
    return int(np.argmax(tails < epsilon))


# ---------------------------------------------------------------------------
# Dict converters for the JSON file formats.


def profile_to_dict(profile: ArrivalProfile) -> dict:
    return {
        "bucket_seconds": profile.bucket_seconds,
        "rates": list(profile.rates),
        "periodic": profile.periodic,
    }


def profile_from_dict(d: dict) -> ArrivalProfile:
    try:
        return ArrivalProfile(
            bucket_seconds=int(d["bucket_seconds"]),
            rates=tuple(float(r) for r in d["rates"]),
            periodic=bool(d.get("periodic", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad arrival profile document: {exc}") from exc


def model_to_dict(model: AcceptanceModel) -> dict:
    if isinstance(model, LogisticAcceptance):
        return {
            "type": "logistic",
            "scale_s": model.scale_s,
            "bias_b": model.bias_b,
            "market_mass_m": model.market_mass_m,
        }
    if isinstance(model, TabulatedAcceptance):
        return {
            "type": "tabulated",
            "entries": {str(c): p for c, p in sorted(model.entries.items())},
        }
    raise TypeError(f"unknown acceptance model type: {type(model)!r}")


def model_from_dict(d: dict) -> AcceptanceModel:
    try:
        kind = d["type"]
        if kind == "logistic":
            return LogisticAcceptance(
                scale_s=float(d["scale_s"]),
                bias_b=float(d["bias_b"]),
                market_mass_m=float(d["market_mass_m"]),
            )
        if kind == "tabulated":
            return TabulatedAcceptance(
                entries={int(c): float(p) for c, p in d["entries"].items()}
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad acceptance model document: {exc}") from exc
    raise DataError(f"unknown acceptance model type: {kind!r}")


def grid_to_dict(grid: PriceGrid) -> dict:
    return {
        "min_price": grid.min_price,
        "max_price": grid.max_price,
        "step": grid.step,
    }


def grid_from_dict(d: dict) -> PriceGrid:
    try:
        return PriceGrid(
            min_price=int(d["min_price"]),
            max_price=int(d["max_price"]),
            step=int(d.get("step", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad price grid document: {exc}") from exc
