#!/usr/bin/env python3
"""Builds sweep_ledger and sweep_serve from this checkout, then runs one
workload of the ledger benchmark.

    python3 bench/ledger/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The arguments go to sweep_ledger unchanged
(its --help lists them and their defaults). The build goes to .bench_build/
(configured once, rebuilt incrementally) and its output to stderr, so the
last line of stdout is the ledger's result object. Exits nonzero when the
build fails, a check fails, or the run exceeds its time limit (the ledger
and its daemon are killed together).
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure,
                 ["cmake", "--build", BUILD, "--target", "sweep_ledger", "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [
        os.path.join(BUILD, "sweep_ledger"), *sys.argv[1:],
        "--daemon", os.path.join(BUILD, "sweep", "tools", "sweep_serve"),
        # Relative, so the daemon's socket path stays short.
        "--run-dir", os.path.relpath(os.path.join(BUILD, "ledger_run"), ROOT),
        "--git-sha", git_sha(),
    ]
    sys.stdout.flush()
    # Own process group: a timeout kills the ledger and its daemon together.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    try:
        # Normally empty by now; a ledger that died leaves its daemon here.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
