#!/usr/bin/env python3
"""Compares two sets of session_bench results (base vs change).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result-<workload>-seed<n>-trace0.json files, as
perfbench/run.py leaves them in .bench_build/perfbench-run. For every
workload present on both sides and every end-to-end metric of
BENCHMARK.json, it prints each side's median and quartiles and whether the
change's median is worse than the base's by more than the metric's bound.

A change also reads WORSE when a larger share of its sessions failed than
the base's, and when interactions_per_session differs at all on a seed both
sides ran: that metric is exact for a seed, so a difference means the
change alters which questions are asked.

Results measured under different contexts are not comparable: the SIMD
kernel backend alone moves the u± sweep 3.6-5.6x, and the client thread
counts are fixed against nproc. A pair whose backend or nproc differ is
refused (exit 2).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory,
                                              "result-*-trace0.json"))):
        with open(path) as f:
            result = json.load(f)
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def context_key(result):
    ctx = result["context"]
    return ctx["backend"], ctx["nproc"]


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def changed_picks(base, change):
    """Seeds both sides ran whose interactions_per_session differ."""
    def by_seed(results):
        return {r["seed"]: r["metrics"]["interactions_per_session"]["value"]
                for r in results}
    b, c = by_seed(base), by_seed(change)
    return sorted(s for s in set(b) & set(c) if b[s] != c[s])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])

    contexts = {context_key(r) for side in (base, change)
                for results in side.values() for r in results}
    if len(contexts) > 1:
        print("refused: results come from different contexts "
              "(backend, nproc): %s" % sorted(contexts), file=sys.stderr)
        return 2

    worse = 0
    for workload in sorted(set(base) & set(change)):
        print("%s (base %d runs, change %d runs)" %
              (workload, len(base[workload]), len(change[workload])))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            regress = delta if metric["better"] == "lower" else -delta
            verdict = "WORSE" if regress > metric["bound"] else "ok"
            worse += verdict == "WORSE"
            print("  %-26s base %12.4f [%.4f, %.4f]  change %12.4f "
                  "[%.4f, %.4f]  %+7.2f%%  %s" %
                  (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                   100 * delta, verdict))
        bf, cf = failed_frac(base[workload]), failed_frac(change[workload])
        verdict = "WORSE" if cf > bf else "ok"
        worse += verdict == "WORSE"
        print("  %-26s base %12.6f  change %12.6f  %s" %
              ("failed_frac", bf, cf, verdict))
        seeds = changed_picks(base[workload], change[workload])
        if seeds:
            worse += 1
            print("  interactions_per_session differs at seeds %s  WORSE" %
                  seeds)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
