"""Exception types shared across the package, and ``require_int``, the one rule
for every degree, order, count, seed and index an entry point takes."""

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
