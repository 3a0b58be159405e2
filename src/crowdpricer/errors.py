"""Exception types shared across the package, and `_bad_input`, the one
place where a reader's or a constructor's exception becomes a DataError.

The CLI maps these onto exit codes: DataError (DomainError too) -> 3,
InfeasibleError -> 4, anything else -> 5 (usage errors exit 2 via argparse).
"""

import contextlib


class CrowdPricerError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CrowdPricerError):
    """Malformed or inconsistent input data (CSV parse errors, bad lookups)."""


class DomainError(DataError, ValueError):
    """An argument outside its domain, such as a confidence of 1 or a NaN
    bound, and every stored field outside its domain, such as n_tasks=0:
    a ValueError to library callers, bad input to the CLI."""


@contextlib.contextmanager
def _bad_input(prefix: str, errors=ValueError):
    """Re-raise `errors` from the block as a DataError (exit 3) whose
    message is `prefix` followed by the original message."""
    try:
        yield
    except errors as exc:
        raise DataError(f"{prefix}{exc}") from exc


class InfeasibleError(CrowdPricerError):
    """The requested optimization has no feasible answer."""


class CapacityError(CrowdPricerError):
    """The instance exceeds a configured work cap."""


class LowRatePremiseWarning(UserWarning):
    """The fixed-rate tradeoff premise (at most one completion per interval)
    is strained because max lambda*p(c) exceeds 0.2."""
