// Cross-policy isolation-vs-utilization shoot-out (DESIGN.md §14).
//
// Runs the fig12-shaped contention scenario — a demand-varied Google-trace
// background mix plus one high-priority KMeans foreground job — under every
// policy in the zoo (baseline, SSR, DAGPS, packing, table-driven), over
// several background seeds, and reports per policy:
//   * isolation probability: fraction of trials where the foreground job's
//     slowdown vs. its same-policy alone run stays under 1.25 (a scaled-down
//     version of the paper's "< 10% slowdown" Fig. 12 bar — at --scale 8 the
//     foreground is large relative to the window, so its unavoidable
//     first-stage wait alone costs ~10%);
//   * mean foreground slowdown and mean cluster utilization — the two axes
//     of the trade-off the zoo exists to map;
//   * reserved-idle fraction: utilization paid to reservations.
//
// Isolation probability and utilization are deterministic functions of the
// seeds, so they are recorded in BENCH_sched.json (items_per_second carries
// the value) and gated by tools/check_bench_regression.py like any
// throughput number: a policy change that silently costs isolation or
// utilization trips the same CI gate a hot-path regression would.  One
// wall-clock record (policy_zoo/sweep) guards the simulator cost itself.
//
// Default --scale is 8 to keep CI wall time in seconds; docs/EXPERIMENTS.md
// has the full-scale reproduction command.
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/common/table.h"
#include "ssr/exp/bench_report.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  if (!args.scale_set) args.scale = 8.0;

  const ClusterSpec cluster{.nodes = 50, .slots_per_node = 2, .node_slots = {}};
  const std::uint32_t kTrials = 5;
  const double kIsolationBar = 1.25;

  TraceGenConfig bg;
  bg.num_jobs = args.scaled(100);
  bg.window = 3600.0 / args.scale;
  // Per-stage demand vectors give the packing policy real decisions; the
  // draws ride a separate RNG stream so the mix is otherwise fig12's.
  bg.vary_demand = true;
  const SimTime fg_submit = bg.window * 0.25;

  // Policies selected on the command line run alone; default is the whole
  // zoo (the cross-policy shoot-out CI records).
  std::vector<ZooPolicy> policies;
  if (!args.policy.empty()) {
    policies.push_back(*parse_zoo_policy(args.policy));
  } else {
    policies = all_zoo_policies();
  }

  // Grid: per policy one alone baseline (the slowdown denominator under
  // that same policy), then kTrials contended runs over distinct bg seeds.
  std::vector<Trial> grid;
  for (ZooPolicy policy : policies) {
    RunOptions options;
    options.seed = args.seed;
    apply_zoo_policy(policy, cluster, options);
    const std::string name = zoo_policy_name(policy);

    grid.push_back({cluster,
                    {make_kmeans(20, 10, 0.0)},
                    options,
                    name + "/alone",
                    {{"policy", name}}});
    for (std::uint32_t t = 0; t < kTrials; ++t) {
      TraceGenConfig cfg = bg;
      cfg.seed = args.seed + 1000 + t;
      std::vector<JobSpec> jobs = make_background_jobs(cfg);
      jobs.push_back(make_kmeans(20, 10, fg_submit));
      RunOptions trial_options = options;
      trial_options.seed = args.seed + t;
      grid.push_back({cluster, std::move(jobs), trial_options,
                      name + "/contended",
                      {{"policy", name}, {"trial", std::to_string(t)}}});
    }
  }

  const WallTimer timer;
  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);
  const double wall = timer.elapsed_seconds();

  std::cout << "Policy zoo shoot-out — " << cluster.nodes << " nodes / "
            << cluster.total_slots() << " slots, " << bg.num_jobs
            << " background jobs x " << kTrials << " seeds (scale 1/"
            << args.scale << ")\n\n";

  BenchReporter report;
  TablePrinter table({"policy", "isolation P", "mean slowdown",
                      "mean util", "reserved-idle frac"});
  std::uint64_t total_tasks = 0;
  const std::size_t per_policy = 1 + kTrials;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const std::string name = zoo_policy_name(policies[p]);
    const double alone = results[p * per_policy].run.jobs.front().jct;
    std::uint32_t isolated = 0;
    double slowdown_sum = 0.0;
    double util_sum = 0.0;
    double reserved_frac_sum = 0.0;
    for (std::uint32_t t = 0; t < kTrials; ++t) {
      const RunResult& run = results[p * per_policy + 1 + t].run;
      const double s = slowdown(run.jct_of("kmeans"), alone);
      if (s <= kIsolationBar) ++isolated;
      slowdown_sum += s;
      util_sum += run.utilization;
      const double denom = run.busy_time + run.reserved_idle_time;
      reserved_frac_sum += denom > 0.0 ? run.reserved_idle_time / denom : 0.0;
      total_tasks += run.task_totals.tasks_started;
    }
    const double isolation_p =
        static_cast<double>(isolated) / static_cast<double>(kTrials);
    const double mean_util = util_sum / static_cast<double>(kTrials);
    table.add_row({name, TablePrinter::num(isolation_p, 2),
                   TablePrinter::num(slowdown_sum / kTrials, 2),
                   TablePrinter::num(mean_util, 3),
                   TablePrinter::num(reserved_frac_sum / kTrials, 4)});
    // Deterministic quality records: the value rides items_per_second so
    // the regression checker gates it with its standard ratio test.
    report.add({"policy_zoo/" + name + "/isolation_probability", isolation_p,
                0.0});
    report.add({"policy_zoo/" + name + "/utilization", mean_util, 0.0});
  }
  table.print(std::cout);

  BenchRecord sweep_rec;
  sweep_rec.name = "policy_zoo/sweep";
  sweep_rec.wall_seconds = wall;
  if (wall > 0.0) {
    sweep_rec.items_per_second = static_cast<double>(total_tasks) / wall;
  }
  report.add(std::move(sweep_rec));

  std::cout << "\n  sweep: " << wall << " s wall, " << total_tasks
            << " contended tasks, peak RSS " << peak_rss_mb() << " MiB\n";
  std::cout
      << "\nShape check: only SSR holds isolation P at 1.0.  Table-driven\n"
         "pays by far the largest reserved-idle fraction yet isolates\n"
         "little: its carve-out reserves arbitrary slots, which fight\n"
         "delay scheduling (a stage drip-fed preferred slots never\n"
         "relaxes to the reserved remote ones) and can even capture the\n"
         "foreground's own parent-output slots.  DAGPS/packing raise\n"
         "background throughput without protecting the foreground.  That\n"
         "gap -- reservations must land on the dependent stage's\n"
         "preferred slots -- is the paper's motivation for SSR.\n";
  emit_sweep_outputs(args, results);
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
