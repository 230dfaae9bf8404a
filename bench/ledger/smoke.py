#!/usr/bin/env python3
"""bench_ledger_smoke: every workload at toy size, untraced and traced.

    smoke.py SWEEP_LEDGER SWEEP_SERVE BENCHMARK.json

Fails when a run exits nonzero, reports a failed check, or emits a set of
metric names other than the end-to-end (untraced) or per-layer (traced)
names in BENCHMARK.json.
"""

import json
import subprocess
import sys


def main():
    ledger, daemon, benchmark = sys.argv[1:4]
    with open(benchmark) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            command = [ledger, "--workload", workload, "--seed", "1",
                       "--seconds", "0.3", "--trace", str(trace), "--toy",
                       "--daemon", daemon, "--run-dir", "ledger_smoke"]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
            tag = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            # A run that dies after its host line leaves that line last.
            if not isinstance(result, dict) or "metrics" not in result:
                problems.append("%s: no result line (exit %d)\n%s" %
                                (tag, proc.returncode, proc.stderr[-2000:]))
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append("%s: exit %d, %d of %d operations failed\n%s" %
                                (tag, proc.returncode, result["failed"],
                                 result["attempted"], proc.stderr[-2000:]))
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append("%s: metric names differ from BENCHMARK.json: "
                                "missing %s, unexpected %s" %
                                (tag, sorted(expected[trace] - names),
                                 sorted(names - expected[trace])))
            print("%-28s exit %d, %d metrics, %d operations" %
                  (tag, proc.returncode, len(names), result["attempted"]))
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
