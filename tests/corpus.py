"""The counts-unchanged corpus: scan outputs on fixed rows, pinned by SHA-256.

Each configuration scans fixed replicates with ``zeros._scan_batch``,
either in count mode (what every campaign chunk runs) or with root
location, and digests what the scan returns: the counts, the tangency rows
and brackets, and the roots where they are located.  ``corpus.json``
beside this file holds those digests, each configuration's per-row counts
and totals, as computed at the commit that last pinned them.  A change to
the scan that is meant to keep its outputs keeps every digest.

    python tests/corpus.py --check   # every configuration
    python tests/corpus.py --write   # pin this commit's outputs

The configurations:

- at oversample 16 and 8, 3 seeds x both ensembles x K = 100 on [0, pi],
  1600 on [0, pi/2], 30 on [0, 2 pi] and 40 on (0.3, 2.9), 64 rows each;
- at oversample 16, full 256-row chunks at K = 1600 on [0, pi/2], and
  K = 40 with root location on (0.3, 2.9) on both axes, 256 rows;
- hard rows, each at oversample 16 and 8, with and without root location:
  K = 100 stationary seed 11 row 9813 on [0, pi] (70 zeros); seed-0
  stationary K = 400 row 47, the path or the interval moved left by 1.5e-4
  (236); K = 40 cosine seed 2 row 170 on (0.3, 2.9) and the rescaled
  (12, 116) (23); K = 1600 stationary seed 3 row 1001 on [0, pi/2] (476);
  the touch points of ``TestTangency`` in ``test_zeros.py`` with their
  perturbed pairs, on either grid route, and its flat touch at pi.

``--check`` exits 1 on any change and prints each changed row with the
oracle's count: the eigen oracle for K <= 256, else the colleague matrix of
the Chebyshev series for a cosine row inside [0, pi], else none.
``test_zeros.py::TestCorpus`` checks ``SUBSET`` in Tier-1.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

if __name__ == "__main__":  # the package beside this directory
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from trigzero import zeros  # noqa: E402
from trigzero.errors import UsageError  # noqa: E402
from trigzero.sampling import CoefficientVector, draw_coefficient_batch  # noqa: E402

PINNED = Path(__file__).with_name("corpus.json")
PI = np.pi
SHIFT = 1.5e-4  # of row 47's path or interval
# TestTangency's touch points: t = 1 and one in each quarter of the cell
# between lattice points 15 and 16 of K = 3, oversample 16 (step pi / 48)
TOUCHES = [1.0] + [(15 + f) * PI / 48 for f in (0.1, 0.35, 0.6, 0.85)]


@dataclass(frozen=True)
class Config:
    """Rows to scan and how.

    ``ensemble`` "touch" is the K = 3 batch of ``_touch_rows``, and "flat"
    the flat touch at pi padded to K with its value lowered by each of
    ``rows``; otherwise ``rows`` are replicate indices of ``seed``.
    """

    K: int
    ensemble: str
    seed: int
    rows: tuple
    interval: tuple
    oversample: int = 16
    rescaled: bool = False
    locate: bool = False
    shift: float = 0.0  # the path moved left by this much
    fft: bool = False  # every grid through the float32 FFT route

    def coefficients(self):
        if self.ensemble == "touch":
            return _touch_rows(), None
        if self.ensemble == "flat":
            return _flat_rows(self.K, self.rows), None
        a, b = draw_coefficient_batch(self.K, self.ensemble, self.seed, self.rows)
        if self.shift:
            n = np.arange(1, self.K + 1) * self.shift
            a, b = a * np.cos(n) + b * np.sin(n), b * np.cos(n) - a * np.sin(n)
        return a, b


def _touch_rows():
    """TestTangency's K = 3 touches, at TOUCHES and where two suspects tie, with
    their pairs pushed 1e-6 below zero; then the touch on the exact lattice
    zero 16 pi / 48, from above and from below."""
    from scipy.optimize import brentq

    from test_zeros import TestTangency  # deferred: test_zeros imports this module

    def touch(t):
        return TestTangency()._tangent_vector(t)[0].a

    step, n = PI / 48, np.arange(1, 4)

    def gap(frac):
        v15, v16 = np.cos(np.outer([15 * step, 16 * step], n)) @ touch((15 + frac) * step)
        return v15 - v16

    ts = TOUCHES + [(15 + brentq(gap, 0.3, 0.7, xtol=1e-15)) * step]
    rows = [touch(t) for t in ts]
    rows += [r - np.r_[1e-6 / np.cos(t), 0.0, 0.0] for r, t in zip(rows, ts)]
    rows += [s * touch(16 * step) for s in (1.0, -1.0)]
    return np.array(rows)


def _flat_rows(K, eps):
    """TestTangency's flat touch: about c (t - pi)^6 + e for each e in ``eps``."""
    n = np.arange(1, 5)
    head = np.linalg.svd(np.vstack([(-1.0) ** n * n ** (2 * k) for k in range(3)]))[2][-1]
    head *= -np.sign(np.sum(head * (-1.0) ** n * n**6))
    a = np.zeros((len(eps), K))
    a[:, :4] = head
    a[:, 0] -= eps
    return a


def _configs():
    out = {}
    campaigns = ((100, (0.0, PI)), (1600, (0.0, PI / 2)), (30, (0.0, 2 * PI)), (40, (0.3, 2.9)))
    for seed in (0, 1, 2):
        for ens in ("cosine", "stationary"):
            for K, iv in campaigns:
                for os in (16, 8):
                    out[f"K{K}_{ens}_s{seed}_os{os}"] = Config(K, ens, seed, range(64), iv, os)
            out[f"K1600_{ens}_s{seed}_chunk"] = Config(1600, ens, seed, range(256), (0.0, PI / 2))
            for suffix, iv in (("", (0.3, 2.9)), ("_rescaled", (12.0, 116.0))):
                out[f"K40_{ens}_s{seed}_locate{suffix}"] = Config(
                    40, ens, seed, range(256), iv, rescaled=bool(suffix), locate=True
                )
    hard = {
        "K100_stationary_s11_r9813": Config(100, "stationary", 11, (9813,), (0.0, PI)),
        "K400_stationary_s0_r47_path": Config(400, "stationary", 0, (47,), (0.0, PI), shift=SHIFT),
        "K400_stationary_s0_r47_interval": Config(400, "stationary", 0, (47,), (-SHIFT, PI - SHIFT)),
        "K40_cosine_s2_r170": Config(40, "cosine", 2, (170,), (0.3, 2.9)),
        "K40_cosine_s2_r170_rescaled": Config(40, "cosine", 2, (170,), (12.0, 116.0), rescaled=True),
        "K1600_stationary_s3_r1001": Config(1600, "stationary", 3, (1001,), (0.0, PI / 2)),
        "touch": Config(3, "touch", 0, (), (0.0, PI)),
        "touch_fft": Config(3, "touch", 0, (), (0.0, PI), fft=True),
    }
    for K in (16, 32, 64):
        hard[f"flat_K{K}"] = Config(K, "flat", 0, (1e-12, 0.0), (0.3, 5.9), fft=True)
    for name, cfg in hard.items():
        for os in (16, 8):
            for suffix in ("", "_locate"):
                out[f"{name}_os{os}{suffix}"] = replace(cfg, oversample=os, locate=bool(suffix))
    return out


CONFIGS = _configs()
# run by test_zeros.py::TestCorpus; TestEndCells already pins rows 9813 and 47
SUBSET = (
    "K100_cosine_s0_os8",
    "K100_stationary_s1_os8",
    "K40_stationary_s2_locate",
    "K40_cosine_s2_r170_os8",
    "K40_cosine_s2_r170_os16_locate",
    "K40_cosine_s2_r170_rescaled_os16",
    "K1600_stationary_s3_r1001_os8",
    "K1600_stationary_s3_r1001_os16_locate",
    "touch_os16",
    "touch_os8_locate",
    "touch_fft_os16",
    "touch_fft_os16_locate",
    "flat_K16_os16",
    "flat_K64_os8_locate",
)


def scan(cfg, a, b):
    """``_scan_batch`` on rows (a, b) of ``cfg``: counts, tangencies, root lists."""
    saved = zeros._TABLE_CUT
    zeros._TABLE_CUT = 0.0 if cfg.fft else saved
    try:
        return zeros._scan_batch(a, b, cfg.K, *cfg.interval, cfg.oversample, cfg.rescaled, cfg.locate)
    finally:
        zeros._TABLE_CUT = saved


def _sha(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def digest(cfg):
    """SHA-256 of the counts, tangencies (rows, brackets) and roots, per-row counts and totals."""
    counts, (t_rows, t_lo, t_hi), roots = scan(cfg, *cfg.coefficients())
    return {
        "counts": _sha(counts.astype("<i8")),
        "tangencies": _sha(t_rows.astype("<i8"), t_lo.astype("<f8"), t_hi.astype("<f8")),
        "roots": _sha(np.concatenate(roots).astype("<f8")) if cfg.locate else None,
        "zeros": int(counts.sum()),
        "warnings": int(t_rows.size),
        "per_row": counts.tolist(),
    }


def pinned():
    return json.loads(PINNED.read_text())


def oracle_count(cfg, a, b):
    """Zeros of one row on the interval by an independent route, or None."""
    lo, hi = np.array(cfg.interval) / (cfg.K if cfg.rescaled else 1.0)
    if cfg.K <= zeros._EIGEN_MAX_K:
        try:
            return zeros.count_zeros_eigen(CoefficientVector(K=cfg.K, a=a, b=b), (lo, hi)).count
        except UsageError:
            return None
    if b is None and 0.0 <= lo < hi <= PI:  # cos(n t) = T_n(cos t), cos decreasing on [0, pi]
        x = np.polynomial.chebyshev.chebroots(np.r_[0.0, a])
        real = x[np.abs(x.imag) < 1e-7].real
        return int(np.count_nonzero((real > np.cos(hi)) & (real <= np.cos(lo))))
    return None


def check():
    """Scan every configuration and compare with ``corpus.json``; True if all agree."""
    ref, ok = pinned(), True
    for name, cfg in CONFIGS.items():
        got = digest(cfg)
        changed = [k for k in ("counts", "tangencies", "roots") if got[k] != ref[name][k]]
        print(f"{name}: {'changed ' + ', '.join(changed) if changed else 'ok'}")
        ok &= not changed
        if "counts" in changed:
            a, b = cfg.coefficients()
            for r, (old, new) in enumerate(zip(ref[name]["per_row"], got["per_row"])):
                if old != new:
                    oracle = oracle_count(cfg, a[r], None if b is None else b[r])
                    print(f"  row {r}: {old} -> {new} (oracle {'-' if oracle is None else oracle})")
    return ok


def write():
    lines = [f"  {json.dumps(name)}: {json.dumps(digest(cfg))}" for name, cfg in CONFIGS.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare all with corpus.json")
    mode.add_argument("--write", action="store_true", help="pin this commit's outputs")
    args = parser.parse_args()
    start = time.perf_counter()
    if args.write:
        write()
        passed = True
    else:
        passed = check()
    verdict = "ok" if passed else "CHANGED"
    print(f"{len(CONFIGS)} configurations in {time.perf_counter() - start:.1f} s: {verdict}")
    sys.exit(0 if passed else 1)
