"""The counts-unchanged corpus: scan outputs on fixed rows, pinned by SHA-256.

Each configuration scans fixed replicates with ``zeros._scan_batch``,
either in count mode (what every campaign chunk runs) or with root
location, and digests what the scan returns: the counts, the tangency rows
and brackets, and the roots where they are located.  One configuration
instead counts its rows through ``run_campaign`` and digests the counts and
warnings of the result.  ``corpus.json`` beside this file holds those
digests, each configuration's totals and, except for the stationary chunks
and the campaign, its per-row counts, as computed at the commit that last
pinned them.  A change to the scan that is meant to keep its outputs keeps
every digest.

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
  perturbed pairs, on either grid route, and its flat touch at pi;
- the stationary rows that first showed oversample 8 counts as oversample 16
  does, in 256-row chunks at both: K = 100 seed 11 rows 0-40959 on [0, pi],
  K = 400 seed 0 rows 0-4095 on [0, pi] and K = 1600 seed 3 rows 0-1023 on
  [0, pi/2]; each chunk's counts must also be the same at 8 and at 16;
- a campaign of K = 100 stationary, seed 7, 2048 replicates on [0, pi], at
  TRIGZERO_THREADS 1 and 2, whose counts and warnings must also agree.

``--check`` exits 1 on any change and prints each changed row with the
oracle's count: the eigen oracle for K <= 256, else the colleague matrix of
the Chebyshev series for a cosine row inside [0, pi], else none.  Where the
per-row counts are not pinned, it rescans the rows and prints each one whose
count differs from its partner configuration's (the other density or thread
count) or from the oracle's.  It values the oracle on at most
``ORACLE_ROWS`` rows of a configuration, and reports a pair that changed
alike once.  ``test_zeros.py::TestCorpus`` checks ``SUBSET`` in Tier-1.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # the package beside this directory
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from trigzero import zeros  # noqa: E402
from trigzero.errors import UsageError  # noqa: E402
from trigzero.experiments import ExperimentConfig, IntervalSpec, run_campaign  # noqa: E402
from trigzero.sampling import CoefficientVector, draw_coefficient_batch  # noqa: E402

PINNED = Path(__file__).with_name("corpus.json")
PI = np.pi
SHIFT = 1.5e-4  # of row 47's path or interval
# TestTangency's touch points: t = 1 and one in each quarter of the cell
# between lattice points 15 and 16 of K = 3, oversample 16 (step pi / 48)
TOUCHES = [1.0] + [(15 + f) * PI / 48 for f in (0.1, 0.35, 0.6, 0.85)]
# stationary rows scanned in chunks at both densities: K, seed, rows, interval
STATIONARY = ((100, 11, 40960, (0.0, PI)), (400, 0, 4096, (0.0, PI)), (1600, 3, 1024, (0.0, PI / 2)))
CHUNK = 256
ORACLE_ROWS = 32  # rows of one configuration that a --check report values by the oracle


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
    threads: int = 0  # if set, rows 0.. counted by run_campaign at this TRIGZERO_THREADS
    pin_rows: bool = True  # pin the per-row counts

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
                for density in (16, 8):
                    out[f"K{K}_{ens}_s{seed}_os{density}"] = Config(K, ens, seed, range(64), iv, density)
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
        for density in (16, 8):
            for suffix in ("", "_locate"):
                out[f"{name}_os{density}{suffix}"] = replace(cfg, oversample=density, locate=bool(suffix))
    for K, seed, n, iv in STATIONARY:
        for start in range(0, n, CHUNK):
            rows = range(start, start + CHUNK)
            for density in (8, 16):
                out[f"K{K}_stationary_s{seed}_rows{start}_os{density}"] = Config(
                    K, "stationary", seed, rows, iv, density, pin_rows=False
                )
    for threads in (1, 2):
        out[f"K100_stationary_s7_campaign_threads{threads}"] = Config(
            100, "stationary", 7, range(2048), (0.0, PI), 8, threads=threads, pin_rows=False
        )
    return out


CONFIGS = _configs()
# pairs of configurations whose digests must agree, and the digests compared:
# each chunk's counts at oversample 8 and 16, and the campaign's counts and
# warnings at 1 and 2 threads
PAIRS = [(name, name[:-1] + "16", ("counts",)) for name in CONFIGS if "_rows" in name and name.endswith("_os8")]
PAIRS.append(
    ("K100_stationary_s7_campaign_threads1", "K100_stationary_s7_campaign_threads2", ("counts", "tangencies"))
)
PARTNER = {**{p: q for p, q, _ in PAIRS}, **{q: p for p, q, _ in PAIRS}}
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
    "K100_stationary_s7_campaign_threads1",
    "K100_stationary_s7_campaign_threads2",
)


def campaign(cfg):
    """Counts and warnings of ``run_campaign`` on rows 0.. of ``cfg``, at its thread count."""
    assert cfg.rows == range(len(cfg.rows))
    config = ExperimentConfig(
        (cfg.K,), len(cfg.rows), IntervalSpec("original", *cfg.interval), seed=cfg.seed, ensemble=cfg.ensemble
    )
    with mock.patch.dict(os.environ, {"TRIGZERO_THREADS": str(cfg.threads)}):
        result = run_campaign(config)
    return result.counts[0], result.warnings[0]


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


def counts_of(cfg):
    """Per-row counts of ``cfg``."""
    return campaign(cfg)[0] if cfg.threads else scan(cfg, *cfg.coefficients())[0]


def digest(cfg):
    """SHA-256 of the counts, tangencies (rows, brackets) and roots, per-row counts and totals.

    For a campaign, "tangencies" digests its per-row warning counts.
    """
    if cfg.threads:
        counts, warns = campaign(cfg)
        tangencies, n_warnings, roots = _sha(warns.astype("<i8")), int(warns.sum()), None
    else:
        counts, (t_rows, t_lo, t_hi), roots = scan(cfg, *cfg.coefficients())
        tangencies = _sha(t_rows.astype("<i8"), t_lo.astype("<f8"), t_hi.astype("<f8"))
        n_warnings = int(t_rows.size)
    return {
        "counts": _sha(counts.astype("<i8")),
        "tangencies": tangencies,
        "roots": _sha(np.concatenate(roots).astype("<f8")) if cfg.locate else None,
        "zeros": int(counts.sum()),
        "warnings": n_warnings,
        "per_row": counts.tolist() if cfg.pin_rows else None,
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


def print_rows(name, old):
    """Print each row of ``name`` whose count moved from ``old``, its pinned
    per-row counts, with the oracle's count.  Where those are not pinned,
    rescan and print each row whose count differs from its partner's, or, if
    none does, from the oracle's.  The oracle is valued on the first
    ``ORACLE_ROWS`` of these rows in replicate order; the rest are counted
    as unchecked."""
    cfg = CONFIGS[name]
    a, b = cfg.coefficients()
    new = counts_of(cfg).tolist()
    other = old if old is not None else counts_of(CONFIGS[PARTNER[name]]).tolist()
    rows = [r for r, (x, y) in enumerate(zip(new, other)) if x != y] or range(len(new))
    oracles = {r: oracle_count(cfg, a[r], None if b is None else b[r]) for r in rows[:ORACLE_ROWS]}
    for r in rows:
        oracle = oracles.get(r)
        if new[r] != other[r] or oracle not in (None, new[r]):
            row = cfg.rows[r] if cfg.ensemble in ("cosine", "stationary") else r
            was, partner = (f"{old[r]} -> ", "") if old is not None else ("", f"{PARTNER[name]} {other[r]}, ")
            print(f"  row {row}: {was}{new[r]} ({partner}oracle {'-' if oracle is None else oracle})")
    if len(rows) > ORACLE_ROWS:
        print(f"  {len(rows) - ORACLE_ROWS} of {len(rows)} rows not checked against the oracle")


def check():
    """Scan every configuration and compare with ``corpus.json`` and with its
    partner in ``PAIRS``; True if all agree.  A configuration whose counts
    changed alike with its partner's is reported once, with the first."""
    ref, got, ok, reported = pinned(), {}, True, set()
    for name, cfg in CONFIGS.items():
        got[name] = digest(cfg)
        changed = [k for k in ("counts", "tangencies", "roots") if got[name][k] != ref[name][k]]
        print(f"{name}: {'changed ' + ', '.join(changed) if changed else 'ok'}")
        ok &= not changed
        if "counts" in changed:
            partner = PARTNER.get(name)
            if partner in reported and got[partner]["counts"] == got[name]["counts"]:
                print(f"  rows as reported for {partner}")
            else:
                print_rows(name, ref[name]["per_row"])
                reported.add(name)
    for name, partner, keys in PAIRS:
        differ = [k for k in keys if got[name][k] != got[partner][k]]
        if differ:
            print(f"{name} and {partner}: {', '.join(differ)} differ")
            ok = False
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
