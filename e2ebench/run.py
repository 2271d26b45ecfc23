#!/usr/bin/env python3
"""End-to-end benchmark of dmcs: build, then run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `dmcs` binary and the
benchmark's own load generator (e2ebench/Cargo.toml) in release mode,
then runs the load generator, which generates the seeded inputs, drives
`dmcs`, checks every answer and prints a table followed by one JSON line
(`correct`, `attempted`, `failed`, `metrics`). Exits non-zero on a build
failure or on any correctness failure. Workloads: serve-cold, serve-hot,
serve-churn, batch-weighted (see e2ebench/PROVENANCE.json).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["serve-cold", "serve-hot", "serve-churn", "batch-weighted"]
# Scratch space lives in the checkout, under a short relative path so
# the daemon's unix socket path stays within the kernel's length limit.
WORK_ROOT = ".e2ebench"
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(args, target):
    # Both packages build into one target directory. Cargo's own output
    # goes to stderr: stdout carries only the result.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args, stdout=sys.stderr, env=env)
    if proc.returncode != 0:
        die(f"build failed: cargo build {' '.join(args)}", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    for needed in ["Cargo.toml", "crates", "src"]:
        if not os.path.exists(needed):
            die(f"run from the repository root: ./{needed} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    build(["--bin", "dmcs"], target)
    build(["--manifest-path", os.path.join(here, "Cargo.toml")], target)

    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "dmcs-e2ebench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--dmcs", os.path.join(target, "release", "dmcs"),
        "--work", work,
    ]
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        print(f"e2ebench: {a.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # Keep the span file of a traced run; drop the generated inputs.
        for name in os.listdir(work):
            if name.startswith("spans-"):
                os.replace(os.path.join(work, name), os.path.join(WORK_ROOT, name))
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
