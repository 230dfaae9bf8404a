#!/usr/bin/env python3
"""Compares two sets of sweep_ledger runs against the bounds in BENCHMARK.json.

    python3 bench/ledger/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds run outputs: the stdout of run.py, whose first line is
the host object and whose last line is the result object. Untraced runs
are compared metric by metric, per workload, with these verdicts:

  better      the change wins at least 9 of 10 pairs (pairs match seeds,
              else run order; ties count for neither) and the medians differ
              by more than the base's own quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's quartile spread, as a share of its median, is wider
              than the bound, and not every change run beats every base run;
  within      otherwise.

Each line shows median, [first quartile, third quartile] and, in
parentheses, the quartile spread as a share of the median. Traced runs are
listed without verdicts: per-layer metrics have no bound.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{(workload, trace): [(seed, metrics)]} from every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            host = json.loads(lines[0])["ledger_host"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            continue
        key = (host["workload"], int(host["trace"]))
        runs.setdefault(key, []).append((host["seed"], result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, lower_is_better, bound, base_seeds, change_seeds):
    med_b = statistics.median(base)
    med_c = statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1

    def better(c, b):
        return c < b if lower_is_better else c > b

    if sorted(base_seeds) == sorted(change_seeds):
        by_seed = dict(zip(change_seeds, change))
        pairs = [(by_seed[s], b) for s, b in zip(base_seeds, base)]
    else:
        pairs = list(zip(change, base))
    wins = sum(1 for c, b in pairs if better(c, b))
    all_better = all(better(c, b) for c in change for b in base)
    worse_by = (med_c - med_b) if lower_is_better else (med_b - med_c)
    rel_worse = worse_by / abs(med_b) if med_b else 0.0
    rel_spread = spread / abs(med_b) if med_b else 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(med_c - med_b) > spread:
        label = "better"
    elif rel_spread > bound and not all_better:
        label = "unresolved"
    elif rel_worse > bound:
        label = "worse"
    else:
        label = "within"
    return label, wins, len(pairs)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base = load_runs(args.base)
    change = load_runs(args.change)

    worse = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            a = base.get((workload, trace), [])
            b = change.get((workload, trace), [])
            if not a or not b:
                continue
            print("\n%s (%s): %d base runs, %d change runs" %
                  (workload, "traced" if trace else "untraced", len(a), len(b)))
            failed = sum(r["failed"] for _, r in a + b)
            print("  failed operations: %d; correct: %s" %
                  (failed, all(r["correct"] for _, r in a + b)))
            names = list(a[0][1]["metrics"])
            for name in names:
                va = [r["metrics"][name]["value"] for _, r in a if name in r["metrics"]]
                vb = [r["metrics"][name]["value"] for _, r in b if name in r["metrics"]]
                if not va or not vb:
                    continue
                unit = a[0][1]["metrics"][name]["unit"]
                qa = quartiles(va)
                qb = quartiles(vb)
                ma = statistics.median(va)
                mb = statistics.median(vb)
                change_pct = 100.0 * (mb - ma) / ma if ma else 0.0
                spread_a = 100.0 * (qa[1] - qa[0]) / ma if ma else 0.0
                spread_b = 100.0 * (qb[1] - qb[0]) / mb if mb else 0.0
                line = ("  %-30s %-10s base %12.6g [%.6g, %.6g] (%.1f%%)  "
                        "change %12.6g [%.6g, %.6g] (%.1f%%)  %+7.2f%%") % (
                    name, unit, ma, qa[0], qa[1], spread_a, mb, qb[0], qb[1], spread_b,
                    change_pct)
                if trace == 0 and name in bounds:
                    m = bounds[name]
                    label, wins, n = verdict(
                        va, vb, m["better"] == "lower", m["bound"],
                        [s for s, r in a if name in r["metrics"]],
                        [s for s, r in b if name in r["metrics"]])
                    worse += label == "worse"
                    line += "  bound %4.0f%%  wins %d/%d  %s" % (100 * m["bound"], wins, n, label)
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
