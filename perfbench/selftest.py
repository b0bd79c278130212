#!/usr/bin/env python3
"""Self-test of the benchmark at fixed seeds.

    python3 perfbench/selftest.py

Run from the repository root; builds ssr_perfbench like run.py does.  Checks:

* seed 1, every workload, untraced and traced: every correctness check
  passes, failed_frac is 0, and the digest equals that of the library's own
  one-call runner (run_scenario / run_open_scenario) on the same inputs;
* seed 1, fig15_ssr: fg_slowdown_mean, to two places, equals the committed
  Fig. 15 (a) SQL "w/ SSR" cell in bench/baselines/fig15_full_scale.txt;
* seed 2, faulted_capture: reserved_idle_frac is 0 (nothing reserves);
* the traced reports separate the layers as the workloads were chosen to:
  core.hook_s is a small share of sched.step_s on fig15_ssr and a large
  one on open_ssr, every core.*.calls is 0 on faulted_capture, and
  metrics.observer_s is largest on faulted_capture;
* every result carries exactly the metrics BENCHMARK.json declares for its
  mode.

Exits 0 when every check passes.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark entry point, for build/run helpers)

ROOT = HERE.parent
FIG15_CELLS = ROOT / "bench" / "baselines" / "fig15_full_scale.txt"
SECONDS = "1"


def committed_fig15_sql_ssr_cell() -> float:
    for line in FIG15_CELLS.read_text().splitlines():
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cols) == 4 and cols[0] == "(a) standard" and cols[1] == "sql":
            return float(cols[3])
    raise RuntimeError(f"no (a) standard / sql row in {FIG15_CELLS}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    binary = run.build()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    def result(workload: str, seed: int, trace: int) -> dict:
        print(f"--- {workload}, seed {seed}, trace {trace}")
        r = run.run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                    "--seconds", SECONDS, "--trace", str(trace),
                                    "--reference"], timeout=run.CHILD_LIMIT_S)
        tag = f"{workload} seed {seed} trace {trace}"
        check(r["exit_code"] == 0 and r["correct"] and r["failed"] == 0,
              f"{tag}: correctness checks pass, nothing failed")
        check(set(r["metrics"]) == expected[trace],
              f"{tag}: reports exactly the declared metrics")
        return {k: v["value"] for k, v in r["metrics"].items()}

    traced = {}
    for workload in run.WORKLOADS:
        result(workload, 1, 0)
        traced[workload] = result(workload, 1, 1)
        check(traced[workload]["failed_frac"] == 0.0,
              f"{workload}: failed_frac = 0 at seed 1")

    cell = committed_fig15_sql_ssr_cell()
    slowdown = traced["fig15_ssr"]["fg_slowdown_mean"]
    check(round(slowdown, 2) == cell,
          f"fig15_ssr: fg_slowdown_mean {slowdown:.4f} matches the committed "
          f"Fig. 15 cell {cell}")

    check(result("faulted_capture", 2, 1)["reserved_idle_frac"] == 0.0,
          "faulted_capture: reserved_idle_frac = 0 at seed 2")

    def hook_share(workload: str) -> float:
        m = traced[workload]
        return m["core.hook_s"] / m["sched.step_s"]

    check(hook_share("fig15_ssr") < 0.2,
          f"fig15_ssr: core.hook_s is {hook_share('fig15_ssr'):.1%} of "
          "sched.step_s (small)")
    check(hook_share("open_ssr") > 0.3,
          f"open_ssr: core.hook_s is {hook_share('open_ssr'):.1%} of "
          "sched.step_s (large)")
    core_calls = [k for k in traced["faulted_capture"]
                  if re.fullmatch(r"core\..*\.calls", k)]
    check(len(core_calls) == 9 and
          all(traced["faulted_capture"][k] == 0 for k in core_calls),
          "faulted_capture: every core.*.calls is 0")
    observer = {w: traced[w]["metrics.observer_s"] for w in run.WORKLOADS}
    check(max(observer, key=observer.get) == "faulted_capture",
          "faulted_capture: metrics.observer_s is the largest "
          f"({observer['faulted_capture']:.3f} s)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
