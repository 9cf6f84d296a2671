#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rib-bulk --seed 1 --seconds 10 --trace 0

The script builds the perfbench Go program from source into
.bench_build/ (with its Go build cache there too, so nothing is written
outside the checkout), then runs it. The program's standard output is
passed through: its last line is the result JSON. A failed build or run
exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

# The program measures for --seconds and then exits; this bounds a run
# that hangs so the caller still gets an exit code.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(BUILD, "go-cache"),
            "GOPATH": os.path.join(BUILD, "gopath"),
            "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
            "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOFLAGS": "",
            "CGO_ENABLED": "0",
        }
    )
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["rib-bulk", "updates-monitor", "live-fanout"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE,
            env=go_env(),
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        BINARY,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-cache", os.path.join(BUILD, "perfbench", "inputs"),
    ]
    # A session of its own, so a timeout stops the program and the
    # input generator it may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
