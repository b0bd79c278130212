// Ablation (Sec. III-A): speculative slot reservation vs the two naive
// strategies production systems offer — static carve-outs (Mesos/Borg) and
// timeout-based holds (Spark dynamic allocation) — and the no-reservation
// baseline.
//
// One foreground KMeans job contends with the Google-trace background on a
// 50-node cluster.  For each policy we report the foreground slowdown
// (isolation), the reserved-idle slot time (utilization cost), and the mean
// background JCT (collateral damage).  The paper's argument: static
// reservation either under-isolates or over-wastes depending on the guess;
// timeout holds waste blindly; SSR gets isolation at the lowest cost.
//
// Each policy is a RunOptions::hook_factory trial; the whole ablation runs
// as one parallel sweep.
#include <iostream>
#include <memory>

#include "ssr/common/table.h"
#include "ssr/core/naive_policies.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);

  const ClusterSpec cluster{.nodes = 50, .slots_per_node = 2};
  RunOptions base;
  base.seed = args.seed;

  std::cout << "Ablation: reservation policies (KMeans vs 100 background "
               "jobs, 100 slots)\n\n";

  struct Row {
    const char* label;
    std::function<std::unique_ptr<ReservationHook>()> make;
  };
  auto ssr_strict = [] {
    SsrConfig cfg;
    cfg.min_reserving_priority = 1;
    return std::make_unique<ReservationManager>(cfg);
  };
  auto ssr_relaxed = [] {
    SsrConfig cfg;
    cfg.min_reserving_priority = 1;
    cfg.isolation_p = 0.5;
    return std::make_unique<ReservationManager>(cfg);
  };
  const Row rows[] = {
      {"none (work conserving)",
       [] { return std::unique_ptr<ReservationHook>{}; }},
      {"static, 10 slots",
       [] { return make_static_reservation_hook(10, 10); }},
      {"static, 20 slots",
       [] { return make_static_reservation_hook(20, 10); }},
      {"static, 40 slots",
       [] { return make_static_reservation_hook(40, 10); }},
      {"timeout, 3 s",
       [] { return std::make_unique<TimeoutReservationHook>(3.0); }},
      {"timeout, 15 s",
       [] { return std::make_unique<TimeoutReservationHook>(15.0); }},
      {"SSR (P = 1.0)", ssr_strict},
      {"SSR (P = 0.5)", ssr_relaxed},
  };

  TraceGenConfig bg;
  bg.num_jobs = 100;
  bg.window = 1800.0;
  bg.seed = args.seed + 1000;
  std::vector<JobSpec> contended = make_background_jobs(bg);
  contended.push_back(make_kmeans(20, 10, bg.window * 0.25));

  // Grid layout: [alone, one contended trial per policy row].
  std::vector<Trial> grid;
  grid.push_back({cluster,
                  {make_kmeans(20, 10, 0.0)},
                  base,
                  "alone",
                  {{"policy", "alone"}}});
  for (const Row& row : rows) {
    RunOptions o = base;
    o.hook_factory = row.make;
    grid.push_back({cluster, contended, o, row.label, {{"policy", row.label}}});
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);
  const double fg_alone = results[0].run.jobs.front().jct;

  TablePrinter table({"policy", "fg slowdown", "reserved-idle (slot-s)",
                      "bg mean JCT (s)"});
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const RunResult& r = results[i + 1].run;
    double acc = 0.0;
    std::size_t n = 0;
    for (const JobResult& j : r.jobs) {
      if (j.priority < 10) {
        acc += j.jct;
        ++n;
      }
    }
    table.add_row(
        {rows[i].label,
         TablePrinter::num(r.jct_of("kmeans") / fg_alone, 2),
         TablePrinter::num(r.reserved_idle_time, 0),
         TablePrinter::num(n > 0 ? acc / static_cast<double>(n) : 0.0, 1)});
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  std::cout << "\nReading: static carve-outs trade a fixed utilization loss\n"
               "for partial isolation (and guess-dependent!); timeout holds\n"
               "waste slot time on every task completion; SSR reaches the\n"
               "lowest slowdown with targeted, DAG-aware reservations.\n";
  return 0;
}
