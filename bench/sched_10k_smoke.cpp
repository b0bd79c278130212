// Perf smoke at 10x the Fig. 15 cluster: 10k nodes / 40k slots / ~1M tasks.
//
// Fig. 15 stops at 1000 nodes; this bench runs the engine (DESIGN.md §13)
// at ten times that.  One trace-shaped contended cell runs twice: without
// SSR and with SSR.  Default --scale is 1: the whole binary is a few seconds
// of wall time on CI-class hardware, which is exactly what the perf-smoke
// job diffs against bench/baselines/BENCH_sched.json.
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/exp/bench_report.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace {

struct Pass {
  const char* name;
  bool ssr;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);

  const ClusterSpec cluster{.nodes = args.scaled(10000), .slots_per_node = 4};
  const std::uint32_t bg_jobs = args.scaled(12000);
  const SimDuration window = 3600.0;
  std::cout << "10k-node sched smoke — " << cluster.nodes << " nodes / "
            << cluster.total_slots() << " slots, " << bg_jobs
            << " background jobs (scale 1/" << args.scale << ")\n";

  constexpr Pass kPasses[] = {
      {"sched_10k/nossr", false},
      {"sched_10k/ssr", true},
  };

  BenchReporter report;
  for (const Pass& pass : kPasses) {
    RunOptions o;
    o.sched.locality_wait = 3.0;
    o.sched.locality_slowdown = 5.0;
    o.seed = args.seed;
    if (pass.ssr) {
      o.ssr = SsrConfig{};
      o.ssr->min_reserving_priority = 1;
    }

    TraceGenConfig bg;
    bg.num_jobs = bg_jobs;
    bg.window = window;
    bg.seed = args.seed + 42;
    std::vector<JobSpec> jobs = make_background_jobs(bg);
    for (std::uint32_t q = 0; q < 40; ++q) {
      SqlJobParams p;
      p.query_index = q % 20;
      p.base_parallelism = 20;
      p.priority = 10;
      p.submit_time = window * 0.2 + 15.0 * q;
      jobs.push_back(make_sql_query(p));
    }

    const WallTimer timer;
    const RunResult run = run_scenario(cluster, std::move(jobs), o);
    const double wall = timer.elapsed_seconds();

    BenchRecord rec;
    rec.name = pass.name;
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second =
          static_cast<double>(run.task_totals.tasks_started) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, "
              << run.task_totals.tasks_started << " tasks ("
              << rec.items_per_second << " tasks/s), makespan " << run.makespan
              << " sim-s\n";
    report.add(std::move(rec));
  }

  std::cout << "  peak RSS: " << peak_rss_mb() << " MiB\n";
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
