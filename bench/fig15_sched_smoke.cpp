// Perf smoke: wall-clock cost of one Fig. 15-shaped contended run.
//
// Unlike fig15_large_scale_slowdown (which sweeps the full 18-cell grid to
// reproduce the figure), this binary runs a single setting/suite cell —
// background trace + SQL foreground — once without and once with SSR, and
// reports how long the *simulator itself* took: wall seconds, simulated
// tasks per wall second, and peak RSS, via the shared BENCH_sched.json
// reporter.  The perf-smoke CI job diffs the result against the committed
// baseline to catch scheduling hot-path regressions.
//
// Default --scale is 8 to keep CI wall time in seconds; the acceptance runs
// in docs/EXPERIMENTS.md use --scale 1 (1000 nodes / 8000 background jobs).
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/exp/bench_report.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  if (!args.scale_set) args.scale = 8.0;

  const ClusterSpec cluster{.nodes = args.scaled(1000), .slots_per_node = 4};
  const std::uint32_t bg_jobs = args.scaled(8000);
  const SimDuration window = 3600.0;
  std::cout << "Fig. 15 perf smoke — " << cluster.nodes << " nodes / "
            << cluster.total_slots() << " slots, " << bg_jobs
            << " background jobs (scale 1/" << args.scale << ")\n";

  BenchReporter report;
  for (int pass = 0; pass < 2; ++pass) {
    RunOptions o;
    o.sched.locality_wait = 3.0;
    o.sched.locality_slowdown = 5.0;
    o.seed = args.seed;
    if (pass == 1) {
      o.ssr = SsrConfig{};
      o.ssr->min_reserving_priority = 1;
    }

    TraceGenConfig bg;
    bg.num_jobs = bg_jobs;
    bg.window = window;
    bg.seed = args.seed + 42;
    std::vector<JobSpec> jobs = make_background_jobs(bg);
    for (std::uint32_t q = 0; q < 20; ++q) {
      SqlJobParams p;
      p.query_index = q;
      p.base_parallelism = 20;
      p.priority = 10;
      p.submit_time = window * 0.2 + 30.0 * q;
      jobs.push_back(make_sql_query(p));
    }

    const WallTimer timer;
    const RunResult run = run_scenario(cluster, std::move(jobs), o);
    const double wall = timer.elapsed_seconds();

    BenchRecord rec;
    rec.name = std::string("fig15_smoke/") + (pass == 0 ? "nossr" : "ssr");
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second =
          static_cast<double>(run.task_totals.tasks_started) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, "
              << run.task_totals.tasks_started << " tasks ("
              << rec.items_per_second << " tasks/s), makespan "
              << run.makespan << " sim-s\n";
    report.add(std::move(rec));
  }

  std::cout << "  peak RSS: " << peak_rss_mb() << " MiB\n";
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
