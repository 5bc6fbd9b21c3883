"""Compute the references for the verify workload and store them.

    python3 perfbench/make_refs.py           # rewrite perfbench/verify_refs.json
    python3 perfbench/make_refs.py --check   # recompute and compare, write nothing

Each reference is the normalized oracle value ``verify`` prints for one row:
E X_{n,n-s} / (n c0)^{1/alpha} for one depth, the covariance of the
normalized pair for two.  Pareto rows come from log-gamma, the Frechet(2.5)
mean from a finite binomial sum, and everything else from x-space quadrature
of the order-statistic density with the law taken from ``scipy.stats``
(see ``reference.py``).  Nothing here imports paretotail.
"""

from __future__ import annotations

import argparse
import json
import sys

import scipy

from wl_verify import DEFAULT_N, REFS_PATH, REQUESTS, reference_value, request_key


def compute() -> dict:
    out = {}
    for dist, s, n_text, _ in REQUESTS:
        key = request_key(dist, s, n_text)
        grid = [int(x) for x in (n_text or DEFAULT_N).split(",")]
        values, sources = zip(*(reference_value(dist, s, n) for n in grid))
        out[key] = {"n": grid, "oracle": list(values), "source": sources[0]}
        print(f"{key}: {', '.join(repr(v) for v in values)}  [{sources[0]}]", flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true", help="compare with the stored file instead of writing it")
    args = p.parse_args(argv)
    refs = compute()
    if args.check:
        with open(REFS_PATH) as fh:
            stored = json.load(fh)["references"]
        worst = max(
            abs(a - b) / abs(b)
            for key in refs
            for a, b in zip(refs[key]["oracle"], stored[key]["oracle"])
        )
        print(f"largest relative change against {REFS_PATH.name}: {worst:.3g}")
        return 0 if worst < 1e-12 and refs.keys() == stored.keys() else 1
    payload = {"scipy": scipy.__version__, "references": refs}
    REFS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
