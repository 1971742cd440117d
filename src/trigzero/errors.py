"""Exception types shared across the package, and one rule per input an entry point takes:
``require_int`` for a degree, order, count, seed or index, ``require_interval`` for an interval."""

import numpy as np


class UsageError(ValueError):
    """An operation was called outside its documented preconditions."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy or stability target."""


class CampaignError(RuntimeError):
    """A Monte Carlo campaign produced too many unusable replicates."""


def require_int(name, value, lo, hi=None):
    """UsageError unless ``value`` is a Python or numpy integer (not a bool) in [lo, hi]."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise UsageError(f"{name} must be an integer {span}, got {value!r}")


def require_interval(interval, lo=-np.inf, hi=np.inf):
    """The ends a < b of ``interval`` as floats; UsageError unless it is a tuple,
    list or array of exactly two finite real numbers (not bools) in [lo, hi]."""
    ends = interval.tolist() if isinstance(interval, np.ndarray) else interval
    if isinstance(ends, (tuple, list)) and len(ends) == 2:
        if all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) for x in ends):
            a, b = map(float, ends)
            if -np.inf < a < b < np.inf and lo <= a and b <= hi:
                return a, b
    raise UsageError(f"interval must be two finite numbers lo < hi in [{lo:g}, {hi:g}], got {interval!r}")
