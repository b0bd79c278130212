#!/usr/bin/env python3
"""Benchmark entry point: build ssr_perfbench, run one workload, print metrics.

    python3 perfbench/run.py --workload fig15_ssr --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark binary (perfbench/src, linked
against the library built from src/) is configured and built on first use into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build.  The workload then runs in a child process of its own,
so its peak RSS is its own.

Everything the child prints is passed through; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (see perfbench/README.md).  The exit code is 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig15_ssr", "open_ssr", "faulted_capture")
# A run must end within 180 s once the binary is built (a first build may
# take longer); the workload child gets what is left after a no-op build.
CHILD_LIMIT_S = 165


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else Path.cwd() / target


def build() -> Path:
    """Configure (once) and build ssr_perfbench; returns the binary's path."""
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = (out / "Makefile").exists() or (out / "build.ninja").exists()
    if not generated:
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ssr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "ssr_perfbench"


def run_binary(binary: Path, args: list, timeout: float) -> dict:
    """Run ssr_perfbench; echo its report lines and return its JSON result."""
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout,
                          check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raise RuntimeError(
            f"ssr_perfbench exited with {done.returncode} and no result line")
    result["exit_code"] = done.returncode
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        binary = build()
        result = run_binary(
            binary,
            ["--workload", opts.workload, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            timeout=CHILD_LIMIT_S)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    exit_code = result.pop("exit_code")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if exit_code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
