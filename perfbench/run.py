#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

    python3 perfbench/run.py --workload <sim_cold|warm_replay|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build) and run with every AMEM_* variable
and RAYON_NUM_THREADS removed from its environment, so the program runs at
its defaults. The last line of standard output is the result as JSON; see
perfbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_cold", "warm_replay", "serve_open")
# The crates the benchmark builds against; without them there is nothing
# to measure.
NEEDED = ("Cargo.toml", "crates/core", "crates/serve", "crates/sim", "vendor/serde_json")
RUN_TIMEOUT_S = 170


def clean_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if not (k.startswith("AMEM_") or k == "RAYON_NUM_THREADS")
    }
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a full checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 1

    env = clean_env()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "amem-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
