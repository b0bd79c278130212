// Perf smoke: wall-clock cost of the open-system path.
//
// The closed-harness smokes (fig15_sched_smoke) measure run_scenario();
// this binary measures the stepping path the service mode uses — thousands
// of advance_to/submit_job cycles through multi-tenant admission control,
// then a drain — once without and once with SSR.  Reported via the shared
// BENCH_sched.json reporter so the perf-smoke CI job can diff it against
// the committed baseline: a regression here means the open-system layers
// (bounded advance, admission bookkeeping, queue pump) got slower, which
// the closed smokes cannot see.
//
// Default --scale is 4 to keep CI wall time in seconds.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/exp/bench_report.h"
#include "ssr/exp/open_scenario.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  if (!args.scale_set) args.scale = 4.0;

  const ClusterSpec cluster{.nodes = args.scaled(200), .slots_per_node = 4};
  OpenScenarioSpec tenants;
  tenants.tenants.push_back({.name = "interactive",
                             .min_slots = cluster.total_slots() / 4,
                             .max_slots = cluster.total_slots() / 2,
                             .queue_when_full = true});
  tenants.tenants.push_back({.name = "batch",
                             .min_slots = cluster.total_slots() / 2,
                             .max_slots = cluster.total_slots(),
                             .queue_when_full = true});

  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "interactive",
                      .mean_interarrival = 4.0,
                      .num_jobs = args.scaled(2000),
                      .min_parallelism = 4,
                      .max_parallelism = 16,
                      .priority = 10});
  profiles.push_back({.tenant = "batch",
                      .mean_interarrival = 10.0,
                      .num_jobs = args.scaled(800),
                      .min_parallelism = 8,
                      .max_parallelism = 64,
                      .priority = 0});

  std::cout << "Open-arrival perf smoke — " << cluster.nodes << " nodes / "
            << cluster.total_slots() << " slots, "
            << profiles[0].num_jobs + profiles[1].num_jobs
            << " arrivals over two tenants (scale 1/" << args.scale << ")\n";

  BenchReporter report;
  for (int pass = 0; pass < 2; ++pass) {
    RunOptions o;
    o.seed = args.seed;
    if (pass == 1) {
      o.ssr = SsrConfig{};
      o.ssr->min_reserving_priority = 1;
    }
    std::vector<OpenArrival> arrivals =
        make_open_arrivals(profiles, args.seed + 7);

    const WallTimer timer;
    const RunResult run =
        run_open_scenario(cluster, tenants, std::move(arrivals), o);
    const double wall = timer.elapsed_seconds();

    BenchRecord rec;
    rec.name =
        std::string("open_arrival_smoke/") + (pass == 0 ? "nossr" : "ssr");
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second =
          static_cast<double>(run.task_totals.tasks_started) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, "
              << run.task_totals.tasks_started << " tasks ("
              << rec.items_per_second << " tasks/s), makespan "
              << run.makespan << " sim-s\n";
    for (const TenantResult& t : run.tenants) {
      std::cout << "    " << t.name << ": " << t.admitted << " admitted, "
                << t.queued << " queued (mean wait " << t.mean_queue_delay
                << " s), peak demand " << t.peak_demand << "/" << t.max_slots
                << " slots\n";
    }
    report.add(std::move(rec));
  }

  std::cout << "  peak RSS: " << peak_rss_mb() << " MiB\n";
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
