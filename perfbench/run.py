#!/usr/bin/env python3
"""Build and run the dynspread benchmark from the repository root.

    python3 perfbench/run.py --workload unicast-churn --seed 1 --seconds 30 --trace 0

Builds the CLI and perfbench/perfbench.exe in release mode under
.bench_build (or $CARGO_TARGET_DIR when set), then runs one workload.
The last line of standard output is the JSON result; the exit code is
0 only when every output was correct.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("unicast-churn", "flood-100k", "serve-mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    # The benchmark builds the repository it sits in; without the
    # sources there is nothing to measure.
    missing = [p for p in ("dune-project", "lib", "bin", "BENCHMARK.json")
               if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root; missing: "
              + ", ".join(missing), file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The shared dune cache lives outside the checkout; stay inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir,
         "./bin/dynspread_cli.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Relative, so the daemon's unix socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, "perfbench"))
    os.makedirs(work_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cli = os.path.join(build_dir, "default", "bin", "dynspread_cli.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dynspread", cli, "--work-dir", work_dir,
           "--benchmark", "BENCHMARK.json"]
    proc = subprocess.Popen(cmd)

    # Pass a stop request on, so the benchmark can reap its daemon, and
    # still wait for it to end.
    def forward(signum, _frame):
        proc.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
