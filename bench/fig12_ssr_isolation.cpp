// Fig. 12 [Cluster]: slowdown of each foreground job with and without
// speculative slot reservation, under (a) the standard background and
// (b) background with doubled task durations.
//
// Paper setup: 50-node EC2 cluster, foreground = SparkBench KMeans / SVM /
// PageRank at high priority, background = 100 Google-trace jobs at low
// priority.  Claim: with SSR every foreground job sees < 10% slowdown.
//
// The (background x app x policy) grid runs in parallel on the sweep pool.
#include <iostream>
#include <string>

#include "ssr/common/table.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);

  const ClusterSpec cluster{
      .nodes = 50, .slots_per_node = 2, .node_slots = {}};
  TraceGenConfig bg;
  bg.num_jobs = args.scaled(100);
  bg.window = 3600.0 / args.scale;
  bg.seed = args.seed + 1000;
  const SimTime fg_submit = bg.window * 0.25;

  struct App {
    const char* name;
    JobSpec (*make)(std::uint32_t, int, SimTime);
  };
  const App apps[] = {{"kmeans", make_kmeans},
                      {"svm", make_svm},
                      {"pagerank", make_pagerank}};

  RunOptions base;
  base.seed = args.seed;
  // The second pass is SSR by default; `--policy NAME` swaps in any zoo
  // policy (exp/policy_zoo.h) so the fig12 harness doubles as a per-policy
  // isolation probe.  Without the flag the grid is byte-identical to the
  // pre-zoo bench.
  RunOptions with_ssr = base;
  std::string policy_label = "ssr";
  if (args.policy.empty()) {
    with_ssr.ssr = SsrConfig{};  // P = 1: strict isolation
    with_ssr.ssr->min_reserving_priority = 1;  // foreground class only
  } else {
    policy_label = args.policy;
    apply_zoo_policy(*parse_zoo_policy(args.policy), cluster, with_ssr);
  }

  // Grid layout: per app, one alone baseline (independent of the background
  // multiplier), then per bg_mult the [no-SSR, SSR] contended pair.
  std::vector<Trial> grid;
  for (const App& app : apps) {
    grid.push_back({cluster,
                    {app.make(20, 10, 0.0)},
                    base,
                    std::string(app.name) + "/alone",
                    {{"app", app.name}}});
  }
  const double bg_mults[] = {1.0, 2.0};
  for (const double bg_mult : bg_mults) {
    for (const App& app : apps) {
      TraceGenConfig cfg = bg;
      cfg.runtime_multiplier = bg_mult;
      std::vector<JobSpec> jobs = make_background_jobs(cfg);
      jobs.push_back(app.make(20, 10, fg_submit));
      for (int pass = 0; pass < 2; ++pass) {
        grid.push_back({cluster,
                        jobs,
                        pass == 0 ? base : with_ssr,
                        std::string(app.name) +
                            (bg_mult == 1.0 ? "/bg1x" : "/bg2x") +
                            (pass == 0 ? "/nossr" : "/ssr"),
                        {{"app", app.name},
                         {"background", bg_mult == 1.0 ? "1x" : "2x"},
                         {"policy", pass == 0 ? "none" : policy_label}}});
      }
    }
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);

  std::cout << "Fig. 12: foreground slowdown with / without speculative "
               "slot reservation (50 nodes / 100 slots)\n\n";
  const std::string column = args.policy.empty() ? "SSR" : policy_label;
  TablePrinter table({"background", "job", "slowdown w/o " + column,
                      "slowdown w/ " + column});
  const std::size_t num_apps = std::size(apps);
  for (std::size_t m = 0; m < std::size(bg_mults); ++m) {
    for (std::size_t a = 0; a < num_apps; ++a) {
      const double alone = results[a].run.jobs.front().jct;
      const std::size_t pair = num_apps + 2 * (m * num_apps + a);
      table.add_row(
          {bg_mults[m] == 1.0 ? "standard" : "2x tasks", apps[a].name,
           TablePrinter::num(
               slowdown(results[pair].run.jct_of(apps[a].name), alone), 2),
           TablePrinter::num(
               slowdown(results[pair + 1].run.jct_of(apps[a].name), alone),
               2)});
    }
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  if (args.policy.empty()) {
    std::cout << "\nShape check: SSR pins every foreground job near 1.0x\n"
                 "(the paper reports < 10% slowdown) in both settings, while\n"
                 "the baseline suffers multi-x slowdowns that grow with\n"
                 "background task duration.\n";
  }
  return 0;
}
