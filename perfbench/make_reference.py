"""Regenerate ``reference.json``, the stored values the output checks use.

    python3 perfbench/make_reference.py

Run it only when a workload's command changes, or when a change to the
package is meant to change the bytes of records.csv or summary.json; then
say so in the change.  Uses the package under ``src/``.

* campaign digests: SHA-256 of records.csv and summary.json at seed 0;
* ``rice_mean``: the Rice mean over the K=1600 campaign's interval, which
  its sample mean must match;
* rice references: the same integrals at tighter quadrature than the CLI
  (relative tolerance 1e-12 for the mean, 32-node panels for the second
  moment), each with its own error estimate.  The second moment keeps the
  CLI's diagonal band width: at K=30 a 4x thinner band moves the value by
  1.2e-7, about 4x the CLI's error estimate, because that estimate does not
  cover the band's extrapolation;
* chaos references: sigma_q^2 per order as the chaos-var command prints it.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import trigzero.cli as cli  # noqa: E402
from trigzero.rice import rice_mean, rice_second_moment  # noqa: E402
from workloads import WORKLOADS, command_args, run_command  # noqa: E402


def campaign_digests(name):
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as d:
        (args,) = WORKLOADS[name].commands
        run_command(cli, command_args(args, 0, d))
        return {
            f: hashlib.sha256((Path(d) / f).read_bytes()).hexdigest()
            for f in ("records.csv", "summary.json")
        }


def _options(args):
    return dict(zip(args[1::2], args[2::2]))


def campaign_rice_mean(name):
    """Rice mean of the zero count over the campaign's interval."""
    (args,) = WORKLOADS[name].commands
    opts = _options(args)
    K, spec = int(opts["--K"]), cli.parse_interval(opts["--interval"])
    return rice_mean(K, interval=(spec.lo * K, spec.hi * K)).value


def rice_reference(args):
    opts = _options(args)
    K, moment = int(opts["--K"]), int(opts["--moment"])
    spec = cli.parse_interval(opts["--interval"])
    lo, hi = spec.lo * K, spec.hi * K
    if moment == 1:
        res = rice_mean(K, interval=(lo, hi), rel_tol=1e-12)
    else:
        res = rice_second_moment(K, interval=(lo, hi), nodes=32)
    return {"K": K, "moment": moment, "value": res.value, "error_estimate": res.quadrature_error_estimate}


def main():
    (chaos_args,) = WORKLOADS["chaos_var"].commands
    chaos = json.loads(run_command(cli, command_args(chaos_args, 0, None)))
    ref = {
        "mc_small_k": {"seed0_sha256": campaign_digests("mc_small_k")},
        "mc_large_k": {
            "seed0_sha256": campaign_digests("mc_large_k"),
            "rice_mean": campaign_rice_mean("mc_large_k"),
        },
        "rice_moments": {"results": [rice_reference(a) for a in WORKLOADS["rice_moments"].commands]},
        "chaos_var": {"sigma_sq": {str(t["q"]): t["sigma_sq"] for t in chaos["terms"]}},
    }
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
