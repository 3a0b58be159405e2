"""Market primitives: worker arrival profiles, task acceptance models,
price grids, and the Poisson machinery the solvers share.

Conventions used throughout the package:

* prices are integer cents;
* time is measured in seconds, rates in workers per bucket;
* an arrival profile is a piecewise-constant intensity (one value per
  bucket), optionally extended periodically.

The two primitives of the pricing model live here and nowhere else.  An
``ArrivalProfile`` maps times to cumulative intensity (``_cumulative``,
vectorized over window edges) and back (``_time_at``, the time change the
budget simulator samples through).  ``_transition_tables`` builds the
Poisson pickup tables at means lambda_t * p(c) that the deadline solvers,
the exact evaluator and ``transition_distribution`` read; ``_table_floor``
holds the one rule that sizes their truncated support, and
``truncation_threshold`` is a view of its cap.

Objects hold plain checked values: each constructor stores every number
and flag it takes as the Python ``int``, ``float`` or ``bool`` that
``_check_fields`` returns, so document readers pass values on unchanged,
writers only lay out fields, and ``300`` and ``300.0`` give one digest.
``_check_fields`` holds each field's type and domain: a value outside its
domain raises ``DomainError`` as ``<field> must be <phrase>``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, DomainError, _bad_input


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    _require_real(name, value)  # an int past the float range is refused as a number is
    return int(value)


def _require_real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise DomainError(f"{name} is past the float range") from None


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be a bool, got {value!r}")
    return bool(value)


_CHECKS = {int: _require_int, float: _require_real, bool: _require_bool}

# field domains, each a (kind, test of the plain value, phrase) triple
_AT_LEAST_1 = (int, lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = (int, lambda v: v >= 0, ">= 0")
_FINITE = (float, math.isfinite, "finite")
_FINITE_AT_LEAST_0 = (float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_POSITIVE_FINITE = (float, lambda v: 0 < v < math.inf, "positive and finite")


def _check_fields(obj, **kinds) -> None:
    """Store each named field of the frozen dataclass obj as a plain value
    of its kind (int, float or bool, or a domain's kind), then check every
    domain.  A bool is not a number, a string is never accepted, and a
    numpy scalar becomes its Python value."""
    for name, kind in kinds.items():
        check = _CHECKS[kind[0] if isinstance(kind, tuple) else kind]
        object.__setattr__(obj, name, check(name, getattr(obj, name)))
    for name, kind in kinds.items():
        if isinstance(kind, tuple) and not kind[1](getattr(obj, name)):
            raise DomainError(f"{name} must be {kind[2]}")


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
    # _prefix[i]: expected arrivals in buckets 0..i-1, summed in bucket order
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_fields(self, bucket_seconds=_AT_LEAST_1, periodic=bool)
        rates = tuple(_require_real("rates", r) for r in self.rates)
        if not rates:
            raise ValueError("profile needs at least one bucket")
        for r in rates:
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"rates must be finite and non-negative, got {r}")
        object.__setattr__(self, "rates", rates)
        prefix = np.cumsum((0.0, *rates))
        prefix.setflags(write=False)
        object.__setattr__(self, "_prefix", prefix)

    @property
    def span_seconds(self) -> int:
        return self.bucket_seconds * len(self.rates)

    def _cumulative(self, t: np.ndarray) -> np.ndarray:
        """Integral of the intensity over [0, t) at each of t, ascending
        window edges in [0, 2**53] s (at least two), in expected arrivals."""
        width, span, total = self.bucket_seconds, self.span_seconds, self._prefix[-1]
        whole = 0.0
        if self.periodic:
            # below 2**53 s, t / span rounds across no integer and
            # t - periods * span is exact, so t lands in [0, span)
            periods = np.floor(t / span)
            whole = periods * total
            t = t - periods * span
        elif t[-1] > span:
            end = t[1:][t[1:] > span][0]  # the first window end past the span
            raise DataError(
                f"profile exhausted: window reaches {end:.0f}s but the profile "
                f"spans {span}s and is not periodic"
            )
        k = np.minimum(t // width, len(self.rates) - 1).astype(np.intp)
        rate = np.asarray(self.rates)[k]
        return whole + self._prefix[k] + rate * ((t - k * width) / width)

    def _time_at(self, r: np.ndarray) -> np.ndarray:
        """Seconds into the profile's first span at which its cumulative
        intensity reaches r (0 <= r <= total): the inverse of _cumulative,
        the NHPP time change read backwards.  A zero-rate bucket ends where
        it begins, so no time falls inside one."""
        rates, ends = np.asarray(self.rates), self._prefix[1:]
        last = np.flatnonzero(rates).max(initial=0)  # the last live bucket
        k = np.minimum(np.searchsorted(ends, r, side="right"), last)
        frac = np.clip((r - (ends[k] - rates[k])) / rates[k], 0.0, 1.0)
        return (k + frac) * self.bucket_seconds

    def expected_arrivals(self, t_start: float, t_end: float) -> float:
        """Expected arrivals in [t_start, t_end).

        Computed as a difference of one cumulative function, so adjacent
        windows add up exactly (to float rounding).
        """
        if not (0 <= t_start <= t_end <= 2**53):
            raise ValueError("need 0 <= t_start <= t_end <= 2**53")
        return float(np.diff(self._cumulative(np.array([t_start, t_end], dtype=float)))[0])

    def mean_rate_per_hour(self) -> float:
        return float(self._prefix[-1]) / self.span_seconds * 3600.0


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
        _check_fields(self, scale_s=_POSITIVE_FINITE, bias_b=_FINITE,
                      market_mass_m=_FINITE_AT_LEAST_0)

    def probability(self, price: int) -> float:
        if not math.isfinite(price):
            raise ValueError(f"price must be finite, got {price}")
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
        entries = {
            _require_int("price", c): _require_real(f"probability for price {c}", p)
            for c, p in self.entries.items()
        }
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
            return self.entries[price]  # 2.0 finds price 2, 2.7 finds none
        except KeyError:
            raise DataError(f"price not in model: {price}") from None


@dataclass(frozen=True)
class PriceGrid:
    """Integer-cent price grid {min_price, min_price+step, ..., max_price}."""

    min_price: int
    max_price: int
    step: int = 1

    def __post_init__(self) -> None:
        _check_fields(self, min_price=_AT_LEAST_0, max_price=int, step=_AT_LEAST_1)
        if self.max_price < self.min_price:
            raise ValueError("max_price must be >= min_price")
        if (self.max_price - self.min_price) % self.step != 0:
            raise ValueError("max_price - min_price must be a multiple of step")

    def prices(self) -> range:
        return range(self.min_price, self.max_price + 1, self.step)

    def __len__(self) -> int:
        return (self.max_price - self.min_price) // self.step + 1


def _require_coverage(model: AcceptanceModel, grid: PriceGrid) -> None:
    """Raise ValueError when a tabulated model misses a grid price, in work
    that grows with the table, not the grid (range membership is O(1))."""
    if isinstance(model, TabulatedAcceptance):
        prices = grid.prices()
        size = (grid.max_price - grid.min_price) // grid.step + 1  # len() ends at 2**63
        missing = size - sum(c in prices for c in model.entries)
        if missing:
            first = next(c for c in prices if c not in model.entries)
            raise ValueError(
                f"tabulated model has no probability for {missing} grid "
                f"price(s), the first being {first}"
            )


# relative slack when deciding that two expected costs tie; every solver
# breaks a tie to the lowest grid price
_TIE_REL = 1e-12


def _lowest_tie(costs: np.ndarray) -> np.ndarray:
    """Per column, the lowest row whose cost is within _TIE_REL of the
    column's minimum (one row for a 1-D array)."""
    best = costs.min(axis=0)
    return np.argmax(costs <= best + _TIE_REL * np.maximum(1.0, np.abs(best)), axis=0)


# ---------------------------------------------------------------------------
# Poisson machinery.
#
# The pmf is computed in log space (no overflow for large k or lambda); tails
# are exact summations, never normal approximations, because the truncation
# thresholds below are contractual.

def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")


def poisson_pmf(k: int, lam: float) -> float:
    """Pr(Pois(lam) = k), stable for large k and lam."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_lam(lam)
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


_TAIL_BLOCK = 1 << 14  # entries per block of poisson_tables' columns past n


def poisson_tables(
    mus: np.ndarray, n: int, floor: float = 1e-18
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson tables for a vector of means: the one place they are built.

    Returns (pmf, tails) with pmf[i, k] = Pr(Pois(mus[i]) = k) for k < n and
    tails[i, k] = Pr(Pois(mus[i]) >= k) for k <= n, arrays of n and n + 1
    columns that own their memory.  The pmf is evaluated in log space out to
    poisson_support_end(max(mus), floor); the tails are its suffix sums,
    adding the small terms first, and leave out only the mass beyond that
    end, below floor.  The columns past n are evaluated _TAIL_BLOCK entries
    at a time, from the far end, and only their running sum is kept.  A zero
    mean gives the point mass at 0.
    """
    mus = np.asarray(mus, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(mus) & (mus >= 0.0)):
        raise ValueError("Poisson means must be finite and non-negative")
    end = max(n + 1, poisson_support_end(float(mus.max(initial=0.0)), floor))
    live = mus > 0.0
    # log(1) stands in for log(0) on zero-mean rows, whose k = 0 entry comes
    # out as exp(0) = 1 and whose other entries are cleared below
    log_mus = np.log(np.where(live, mus, 1.0))[:, None]
    log_fact = np.zeros(end)  # lgamma(k + 1)
    np.cumsum(np.log(np.arange(1, end)), out=log_fact[1:])

    def columns(lo: int, hi: int) -> np.ndarray:
        block = np.arange(lo, hi) * log_mus
        block -= mus[:, None]
        block -= log_fact[lo:hi]
        np.exp(block, out=block)
        block[~live, max(1 - lo, 0):] = 0.0
        return block

    suffix = np.zeros(len(mus))  # the mass from column hi on
    width = max(1, _TAIL_BLOCK // max(len(mus), 1))
    for hi in range(end, n, -width):
        block = columns(max(n, hi - width), hi)
        block[:, -1] += suffix  # the full-width cumsum's sum, as IEEE + commutes
        suffix = np.cumsum(block[:, ::-1], axis=1)[:, -1]
    pmf = columns(0, n)
    tails = np.empty((len(mus), n + 1))
    tails[:, :n] = pmf
    tails[:, n] = suffix
    np.cumsum(tails[:, ::-1], axis=1, out=tails[:, ::-1])
    tails[:, 0] = 1.0
    return pmf, tails


def poisson_pmf_vector(n: int, lam: float) -> np.ndarray:
    """Pr(Pois(lam) = k) for k = 0..n-1 as a float64 array."""
    return poisson_tables(np.array([lam]), max(n, 0))[0][0]


def poisson_tail(k: int, lam: float) -> float:
    """Pr(Pois(lam) >= k), by exact summation on the smaller side."""
    _check_lam(lam)
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
    """Smallest s0 with Pr(Pois(lam) >= s0) < epsilon, by exact tail sums:
    the cap of _transition_tables out of N = poisson_support_end(lam,
    epsilon) states, where the tail is already below epsilon."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    _check_lam(lam)
    n_max = poisson_support_end(lam, epsilon)
    return int(_transition_tables(np.array([lam]), n_max, epsilon)[2][0])


def _table_floor(eps: float) -> float:
    """The Poisson mass a table at truncation level eps may leave out past
    its support end: 1e-9 * eps, at most 1e-18.  An eps whose floor
    underflows to 0 leaves no support end, so it is rejected."""
    floor = min(1e-18, eps * 1e-9) if eps > 0.0 else 1e-18
    if floor == 0.0:
        raise ValueError(f"epsilon {eps} is too small: its table floor 1e-9 * epsilon is 0")
    return floor


def _transition_tables(
    mus: np.ndarray, n_max: int, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transition tables out of states n <= N = n_max, one row per mean.

    Returns (pmf, tails, caps, spend): pmf[j, s] for s < N, zeroed from
    cap_j = min(N, s0_j) on, s0_j the smallest s with Pr(Pois >= s) < eps
    (eps = 0 keeps the full support); tails[j, n] = Pr(Pois >= n) for
    n = 0..N; the caps; and the expected completions spend[j, n-1] =
    sum_{s<n} s * pmf[j, s] + n * tails[j, n], not yet multiplied by a
    price.  Each table leaves out only the Poisson mass past its support
    end, below a floor of 1e-9 * eps and at most 1e-18.
    """
    pmf, tails = poisson_tables(mus, n_max, _table_floor(eps))
    below = tails < eps  # never true when eps == 0
    below[:, n_max] = True  # so the first True is at min(N, s0)
    caps = below.argmax(axis=1)
    pmf[np.arange(n_max) >= caps[:, None]] = 0.0
    spend = np.cumsum(np.arange(n_max) * pmf, axis=1)
    spend += np.arange(1, n_max + 1) * tails[:, 1:]
    return pmf, tails, caps, spend


# ---------------------------------------------------------------------------
# Dict converters for the JSON file formats.


def profile_to_dict(profile: ArrivalProfile) -> dict:
    return {
        "bucket_seconds": profile.bucket_seconds,
        "rates": list(profile.rates),
        "periodic": profile.periodic,
    }


def profile_from_dict(d: dict) -> ArrivalProfile:
    with _bad_input("bad arrival profile document: ", (KeyError, TypeError, ValueError)):
        return ArrivalProfile(
            bucket_seconds=d["bucket_seconds"],
            rates=d["rates"],
            periodic=d.get("periodic", False),
        )


def model_to_dict(model: AcceptanceModel) -> dict:
    if isinstance(model, LogisticAcceptance):
        return {"type": "logistic", **asdict(model)}
    if isinstance(model, TabulatedAcceptance):
        return {
            "type": "tabulated",
            "entries": {str(c): p for c, p in sorted(model.entries.items())},
        }
    raise TypeError(f"unknown acceptance model type: {type(model)!r}")


def model_from_dict(d: dict) -> AcceptanceModel:
    with _bad_input("bad acceptance model document: ",
                    (AttributeError, KeyError, TypeError, ValueError)):
        kind = d["type"]
        if kind == "logistic":
            return LogisticAcceptance(d["scale_s"], d["bias_b"], d["market_mass_m"])
        if kind == "tabulated":
            entries = d["entries"]
            # only the text model_to_dict writes, so no two keys name one price
            bad = [k for k in entries if str(int(k)) != k]
            if bad:
                raise ValueError(f"tabulated price {bad[0]!r} must be written '{int(bad[0])}'")
            return TabulatedAcceptance(entries={int(k): p for k, p in entries.items()})
    raise DataError(f"unknown acceptance model type: {kind!r}")


def grid_to_dict(grid: PriceGrid) -> dict:
    return asdict(grid)


def grid_from_dict(d: dict) -> PriceGrid:
    with _bad_input("bad price grid document: ", (KeyError, TypeError, ValueError)):
        return PriceGrid(
            min_price=d["min_price"],
            max_price=d["max_price"],
            step=d.get("step", 1),
        )
