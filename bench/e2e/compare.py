#!/usr/bin/env python3
"""A/B comparison of two directories of bench_e2e results.

  python3 bench/e2e/compare.py A/ B/ [--bounds BENCHMARK.json]

Each directory holds one JSON file per run, as bench_e2e prints its result
(run.py --pairs writes <workload>.<pair>.json on both sides); files with the
same name on both sides are one pair. A is the baseline, B the change.

One row per workload and end-to-end metric: each side's median and
quartiles, the share of pairs B won (ties count for neither), the change of
B's median against A's, the bound BENCHMARK.json fixes, and a verdict:

  identical   every pair reads exactly the same on both sides
  gain        B wins >= 9/10 of the pairs and the medians differ by more
              than A's quartile spread
  regression  B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, and not every B run beats every A run
  ok          within the bound

Exits 1 if any row is a regression.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            runs[os.path.basename(path)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def side(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, pairs, higher, bound):
    """a, b: every run's value per side; pairs: (a, b) of matching runs."""
    if pairs and all(x == y for x, y in pairs) and len(pairs) == len(a):
        return "identical", 0.0
    better = (lambda x, y: y > x) if higher else (lambda x, y: y < x)
    wins = sum(1 for x, y in pairs if better(x, y))
    share = wins / len(pairs) if pairs else 0.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = ((ma - mb) if higher else (mb - ma)) / abs(ma) if ma else 0.0
    all_better = all(better(x, y) for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", share
    qa = quartiles(a)
    if share >= 0.9 and abs(mb - ma) > qa[2] - qa[0]:
        return "gain", share
    if worse > bound:
        return "regression", share
    return "ok", share


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", help="baseline result directory")
    ap.add_argument("b", help="change result directory")
    ap.add_argument("--bounds", default=os.path.join(
        os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bounds, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    runs_a, runs_b = load(args.a), load(args.b)
    if not runs_a or not runs_b:
        sys.exit(f"no results in {args.a if not runs_a else args.b}")
    workloads = sorted({r["workload"] for r in runs_a.values()} |
                       {r["workload"] for r in runs_b.values()})

    print(f"{'workload':<16} {'metric':<17} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6} "
          f"{'B wins':>6}  verdict")
    regressions = 0
    for wl in workloads:
        side_a = {k: r for k, r in runs_a.items() if r["workload"] == wl}
        side_b = {k: r for k, r in runs_b.items() if r["workload"] == wl}
        if not side_a or not side_b:
            print(f"{wl:<16} missing on side {'A' if not side_a else 'B'}")
            continue
        for m in metrics:
            name = m["name"]
            a = [r["e2e"][name]["value"] for r in side_a.values()]
            b = [r["e2e"][name]["value"] for r in side_b.values()]
            pairs = [(side_a[k]["e2e"][name]["value"],
                      side_b[k]["e2e"][name]["value"])
                     for k in sorted(side_a.keys() & side_b.keys())]
            higher = m["better"] == "higher"
            v, share = verdict(a, b, pairs, higher, m["bound"])
            regressions += v == "regression"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(f"{wl:<16} {name:<17} {side(qa):>34} {side(qb):>34} "
                  f"{change:>+8.2%} {m['bound']:>6.1%} {share:>6.0%}  {v}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
