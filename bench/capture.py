"""Capture reference outputs for every case in every workload pool.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/capture.py [--workload NAME ...]

Writes bench/data/<workload>.json with one summary per pool case and the
SHA-256 of the gradflows sources it came from.  The benchmark compares each
run against these files; recapture only when a change is meant to alter
outputs, and say so in the change.
"""

import os

# the same single BLAS thread as bench/run.py, so references match its arithmetic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def source_digest():
    """SHA-256 over the package's Python sources, in name order."""
    pkg = os.path.join(SRC, "gradflows")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import gradflows

    os.makedirs(workloads.DATA_DIR, exist_ok=True)
    for name in args.workload or workloads.NAMES:
        t0 = time.perf_counter()
        wl = workloads.make(name, gradflows, ROOT)
        cases = {}
        for stratum in wl.strata():
            for key in stratum:
                case = wl.case(key)
                summary = case.summarize(case.call())
                err = case.compare(summary, summary)
                if err:
                    raise SystemExit("%s %s fails its own check: %s" % (name, key, err))
                if summary.get("t", 0.0) is None:
                    raise SystemExit("%s %s does not converge within its horizon" % (name, key))
                cases[key] = summary
        payload = {"source_sha256": source_digest(), "cases": cases}
        with open(workloads.reference_path(name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%s: %d cases in %.1f s" % (name, len(cases), time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
