#!/usr/bin/env python3
"""Build and run the rsvm benchmark.

    python3 perfbench/run.py --workload splash|splash-smp|faults \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator from ../src together with rsvm_perfbench in this directory
(CMake, RelWithDebInfo) under .bench_build/; later runs only bring the
build up to date. rsvm_perfbench's report goes to stdout and its last
line, one JSON object {correct, attempted, failed, metrics}, is
re-printed as this script's last line. With --trace 1 the host spans
are written to .bench_build/spans/<workload>-seed<N>.json.

Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rsvm_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, **kwargs):
    """Run cmd, killing it on timeout; return its CompletedProcess."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if run_checked(configure, BUILD_TIMEOUT_S, stdout=sys.stderr,
                   env=env).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked(["cmake", "--build", BUILD, "-j", jobs],
                       BUILD_TIMEOUT_S, stdout=sys.stderr,
                       env=env).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["splash", "splash-smp", "faults"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                       text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: rsvm_perfbench exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
