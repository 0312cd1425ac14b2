#!/usr/bin/env python3
"""Builds and runs the secure-session benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the dubhe library and perfbench/session_bench.cpp in Release mode
under .bench_build/ (reused by later runs), then runs one measurement under
a process-level watchdog. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
Exit codes: 0 = correct run, 1 = wrong or wedged run, 2 = cannot build
(for example when the library sources are not beside this directory).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "session_bench")
# A run must end within 180 s; the binary gets this long before it is killed.
RUN_LIMIT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "net")):
        print("run.py: the dubhe sources are not beside perfbench/", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "session_bench", "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--source", source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    started = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        print("run.py: watchdog killed the run after %.0f s" % (time.monotonic() - started))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return 2 if proc.returncode == 2 else 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: the run printed no result", file=sys.stderr)
        return 1
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
