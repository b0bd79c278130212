// Perf smoke: wall-clock cost of a Fig. 12-shaped contended run under fault
// injection.
//
// Runs the isolation scenario (background trace + high-priority KMeans under
// strict SSR) twice — once failure-free, once with a seeded random node-
// failure schedule — and reports simulator wall time and simulated tasks per
// wall second through the shared BENCH_sched.json reporter.  The perf-smoke
// CI job diffs both records against the committed baseline, so a regression
// in the failure/recovery paths (kill, re-queue, output invalidation,
// deferred placement) shows up even though the default test suite only
// checks behaviour, not cost.
//
// Default --scale is 4; docs/EXPERIMENTS.md uses --scale 1 for the
// paper-scale acceptance run.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/exp/bench_report.h"
#include "ssr/exp/scenario.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  if (!args.scale_set) args.scale = 4.0;

  const ClusterSpec cluster{.nodes = args.scaled(400), .slots_per_node = 2};
  const std::uint32_t bg_jobs = args.scaled(2400);
  const SimDuration window = 1800.0;
  std::cout << "Failure-recovery perf smoke — " << cluster.nodes
            << " nodes / " << cluster.total_slots() << " slots, " << bg_jobs
            << " background jobs (scale 1/" << args.scale << ")\n";

  BenchReporter report;
  for (int pass = 0; pass < 2; ++pass) {
    RunOptions o;
    o.seed = args.seed;
    o.ssr = SsrConfig{};
    o.ssr->min_reserving_priority = 1;
    if (pass == 1) {
      // ~1 failure per 8 nodes spread over the run, transient and permanent
      // mixed, so every recovery path stays on the measured profile.
      RandomFailureConfig fc;
      fc.num_nodes = cluster.nodes;
      fc.horizon = window * 1.25;
      fc.failures = std::max<std::uint32_t>(4, cluster.nodes / 8);
      fc.min_downtime = 30.0;
      fc.max_downtime = 300.0;
      fc.permanent_fraction = 0.2;
      fc.seed = args.seed + 7;
      o.failures = make_random_node_failures(fc);
    }

    TraceGenConfig bg;
    bg.num_jobs = bg_jobs;
    bg.window = window;
    bg.seed = args.seed + 42;
    std::vector<JobSpec> jobs = make_background_jobs(bg);
    jobs.push_back(make_kmeans(60, /*priority=*/10, window * 0.25));

    const WallTimer timer;
    const RunResult run = run_scenario(cluster, std::move(jobs), o);
    const double wall = timer.elapsed_seconds();

    BenchRecord rec;
    rec.name =
        std::string("failure_smoke/") + (pass == 0 ? "clean" : "faulted");
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second =
          static_cast<double>(run.task_totals.tasks_started) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, "
              << run.task_totals.tasks_started << " tasks ("
              << rec.items_per_second << " tasks/s), makespan "
              << run.makespan << " sim-s\n";
    if (pass == 1) {
      std::cout << "    slots_failed " << run.recovery.slots_failed
                << ", tasks_failed " << run.recovery.tasks_failed
                << ", requeued " << run.recovery.tasks_requeued
                << ", masked " << run.recovery.failures_masked
                << ", stages_invalidated " << run.recovery.stages_invalidated
                << ", reservations_broken "
                << run.recovery.reservations_broken << ", dead "
                << run.dead_time << " slot-s\n";
    }
    report.add(std::move(rec));
  }

  std::cout << "  peak RSS: " << peak_rss_mb() << " MiB\n";
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
