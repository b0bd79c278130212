// Ablation: operator-configured vs learned tail index for the reservation
// deadline (Sec. III-B recurring jobs + Sec. IV-B deadline model).
//
// A recurring foreground job with a true Pareto tail alpha = 1.6 runs many
// times against background contention at isolation target P = 0.6.  The
// deadline D = t_m (1 - P^{1/N})^{-1/alpha} depends on alpha:
//   * overestimating alpha (lighter tail than reality) shortens D ->
//     reservations expire before stragglers finish -> isolation broken;
//   * underestimating alpha lengthens D -> more reserved-idle waste;
//   * learning alpha from previous recurrences (Hill estimator) converges
//     to the sweet spot automatically.
//
// The four alpha-source cases and the twelve per-recurrence alone baselines
// run as one parallel sweep; recurrences are paired with their baselines by
// submission order (the background jobs precede them in the job list).
#include <iostream>
#include <memory>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/adjust.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

namespace {

using namespace ssr;

constexpr double kTrueAlpha = 1.6;
constexpr int kRecurrences = 12;

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  const ClusterSpec cluster{.nodes = 25, .slots_per_node = 2};  // 50 slots

  std::cout << "Ablation: configured vs learned tail index (true alpha = "
            << kTrueAlpha << ", P = 0.6, " << kRecurrences
            << " recurrences)\n\n";

  struct Case {
    const char* label;
    double configured;
    bool learn;
  };
  const Case cases[] = {
      {"configured 3.5 (too light)", 3.5, false},
      {"configured 1.6 (oracle)", 1.6, false},
      {"configured 1.2 (too heavy)", 1.2, false},
      {"learned (Hill, starts at 3.5)", 3.5, true},
  };

  // The recurring job: KMeans shape with a true Pareto-1.6 latency tail.
  // Durations are materialized by pareto_adjust, so the same specs serve
  // both the contended runs and the alone baselines.
  Rng adjust_rng(args.seed + 77);
  std::vector<JobSpec> recurrences;
  for (int r = 0; r < kRecurrences; ++r) {
    JobSpec job = pareto_adjust(make_kmeans(16, 10, 0.0), kTrueAlpha,
                                adjust_rng);
    job.submit_time = 250.0 * (r + 1);
    recurrences.push_back(std::move(job));
  }

  TraceGenConfig bg;
  bg.num_jobs = 120;
  bg.window = 3600.0;
  bg.seed = args.seed + 5;
  std::vector<JobSpec> contended = make_background_jobs(bg);
  const std::size_t bg_count = contended.size();
  for (const JobSpec& job : recurrences) contended.push_back(job);

  // Grid layout: [12 alone baselines, one contended trial per case].
  RunOptions base;
  base.seed = args.seed;
  std::vector<Trial> grid;
  for (int r = 0; r < kRecurrences; ++r) {
    JobSpec alone_copy = recurrences[r];
    alone_copy.submit_time = 0.0;
    grid.push_back({cluster,
                    {std::move(alone_copy)},
                    base,
                    "alone",
                    {{"recurrence", std::to_string(r)}}});
  }
  for (const Case& c : cases) {
    SsrConfig cfg;
    cfg.min_reserving_priority = 1;
    cfg.isolation_p = 0.6;
    cfg.pareto_alpha = c.configured;
    cfg.learn_tail_index = c.learn;
    cfg.tail_min_samples = 100;
    RunOptions o = base;
    o.hook_factory = [cfg] { return std::make_unique<ReservationManager>(cfg); };
    grid.push_back({cluster, contended, o, c.label, {{"case", c.label}}});
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);

  TablePrinter table({"alpha source", "mean fg slowdown",
                      "reserved-idle (slot-s)", "expired reservations"});
  for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
    const RunResult& run = results[kRecurrences + ci].run;
    OnlineStats slow;
    for (int r = 0; r < kRecurrences; ++r) {
      const double alone = results[r].run.jobs.front().jct;
      slow.add(run.jobs[bg_count + r].jct / alone);
    }
    table.add_row({cases[ci].label, TablePrinter::num(slow.mean(), 3),
                   TablePrinter::num(run.reserved_idle_time, 0),
                   std::to_string(run.reservations_expired)});
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  std::cout << "\nReading: a too-light configured tail expires reservations\n"
               "early (worse isolation); a too-heavy one over-holds slots;\n"
               "the learned estimate converges toward the oracle's balance\n"
               "after the first recurrences.\n";
  return 0;
}
