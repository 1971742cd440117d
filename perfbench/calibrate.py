"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the speed of a core drifts by 10 to 30% over seconds and
minutes, as neighbours on the same physical cores come and go.  The
benchmark times this kernel after every operation and divides the drift out
of the operation times (see ``run.py``).  The kernel uses numpy only, never
trigzero, so no change to the package can move it.  Its mix follows the
package's hot loops: vectorised cos/sin over (lags x terms) blocks reduced
by matrix-vector products, and many small-array ufunc calls from a Python
loop.
"""

import time

import numpy as np

# About the median time of one kernel() on the machine in baseline.json;
# normalised times are seconds on a machine that runs the kernel this fast.
REFERENCE_S = 0.1

_TERMS = np.linspace(1.0 / 1600, 1.0, 1600)
_RATES = np.random.default_rng(20140122).uniform(0.0, 50.0, (100, 1))
_SHORT = np.linspace(0.0, 1.0, 30)
# allocated once, so that the kernel adds a constant to the interpreter's
# peak RSS and never a peak of its own
_LAGS = np.empty((_RATES.size, _TERMS.size))
_COS = np.empty_like(_LAGS)
_SIN = np.empty_like(_LAGS)


def kernel():
    """About 0.1 s of work on one thread."""
    acc = 0.0
    for shift in range(16):
        np.multiply(_RATES + shift, _TERMS, out=_LAGS)
        np.cos(_LAGS, out=_COS)
        np.sin(_LAGS, out=_SIN)
        acc += _COS.mean() + float((_SIN @ _TERMS).sum()) + float((_COS @ _TERMS).sum())
    for i in range(1500):
        acc += float(np.cos(_SHORT * i).sum())
    return acc


def timed():
    """Seconds one kernel() takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
