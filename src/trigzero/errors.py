"""Exception types shared across the package, and one rule per kind of input an entry point takes, each
refusing with one UsageError ``<name> must be <what>, got <value>``: ``require_int`` (an integer in <lo>..<hi>),
``require_interval`` (``interval``: two finite numbers lo < hi in [<lo>, <hi>]), ``require_real`` (finite and in
(<lo>, <hi>)), ``require_degrees`` (``K_list``: a tuple, list, range or 1-d array of at least one <name>, then
``require_int`` on each) and ``require_choice`` (one of (<choices>))."""

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


def require_degrees(name, values, hi):
    """UsageError unless ``values`` is a nonempty tuple, list, range or 1-d array of integers in [1, hi]."""
    if not isinstance(values, (tuple, list, range, np.ndarray)) or getattr(values, "ndim", 1) != 1 or not len(values):
        raise UsageError(f"K_list must be a tuple, list, range or 1-d array of at least one {name}, got {values!r}")
    for K in values:
        require_int(name, K, 1, hi)


def require_choice(name, value, choices):
    """UsageError unless ``value`` equals one of ``choices`` and is an instance of that choice's type."""
    if not any(isinstance(value, type(c)) and value == c for c in choices):
        raise UsageError(f"{name} must be one of {choices!r}, got {value!r}")


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
