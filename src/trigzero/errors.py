"""Exception types shared across the package, and one rule per kind of input an entry point takes:
``require_int`` for an integer, ``require_interval`` for an interval, ``require_real`` for a real number."""

import math
import sys

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


def _finite_float(x):
    """``x`` as a float if it is a finite Python or numpy real number (not a bool), else nan, which
    fails every comparison; a Python int beyond the float range is refused, not overflowed."""
    x = float(x) if isinstance(x, (np.integer, np.floating)) else x
    real = isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    return float(x) if real else math.nan


def require_real(name, value, lo=-math.inf, hi=math.inf, open=False):
    """``value`` as a float if finite and in [lo, hi] ((lo, hi) if ``open``); else UsageError."""
    x = _finite_float(value)
    if lo < x < hi if open else lo <= x <= hi:
        return x
    span = f"({lo:g}, {hi:g})" if open else f"[{lo:g}, {hi:g}]"
    span = {"[-inf, inf]": "", "(0, inf)": " and positive"}.get(span, f" and in {span}")
    raise UsageError(f"{name} must be finite{span}, got {value!r}")


def require_interval(interval, lo=-math.inf, hi=math.inf):
    """The ends a < b of ``interval`` as floats; UsageError unless it is a tuple,
    list or array of exactly two finite real numbers (not bools) in [lo, hi]."""
    ends = interval.tolist() if isinstance(interval, np.ndarray) else interval
    if isinstance(ends, (tuple, list)) and len(ends) == 2:
        a, b = map(_finite_float, ends)
        if lo <= a < b <= hi:
            return a, b
    raise UsageError(f"interval must be two finite numbers lo < hi in [{lo:g}, {hi:g}], got {interval!r}")
