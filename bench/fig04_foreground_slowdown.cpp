// Fig. 4 [Cluster]: foreground jobs, despite higher priority, are severely
// slowed by background jobs — and the slowdown grows with background task
// duration.
//
// Setup per the paper: 50 worker nodes x 2 executors (100 slots); foreground
// KMeans / SVM / PageRank (SparkBench); background = 100 jobs synthesized
// from the Google traces over a one-hour window, task runtimes scaled down
// 10x.  Three contention levels: alone, standard background, and prolonged
// (2x task runtime) background.  Naive work-conserving scheduler (no SSR).
//
// All (app x contention) trials run in parallel on the sweep pool
// (--jobs N); results are deterministic for any worker count.
#include <iostream>

#include "ssr/common/table.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);

  const ClusterSpec cluster{.nodes = 50, .slots_per_node = 2};
  RunOptions options;
  options.seed = args.seed;

  TraceGenConfig bg;
  bg.num_jobs = args.scaled(100);
  bg.window = 3600.0 / args.scale;
  bg.seed = args.seed + 1000;

  const SimTime fg_submit = bg.window * 0.25;  // arrive into a warm cluster
  struct App {
    const char* name;
    JobSpec (*make)(std::uint32_t, int, SimTime);
  };
  const App apps[] = {{"kmeans", make_kmeans},
                      {"svm", make_svm},
                      {"pagerank", make_pagerank}};

  std::cout << "Fig. 4: foreground slowdown under background contention "
               "(50 nodes / 100 slots, no SSR)\n"
            << "background: " << bg.num_jobs << " Google-trace-like jobs over "
            << bg.window << " s\n\n";

  // Grid layout: per app, [alone, bg 1x, bg 2x].
  std::vector<Trial> grid;
  for (const App& app : apps) {
    grid.push_back({cluster,
                    {app.make(20, 10, 0.0)},
                    options,
                    std::string(app.name) + "/alone",
                    {{"app", app.name}, {"background", "none"}}});
    for (int setting = 0; setting < 2; ++setting) {
      TraceGenConfig cfg = bg;
      cfg.runtime_multiplier = setting == 0 ? 1.0 : 2.0;
      std::vector<JobSpec> jobs = make_background_jobs(cfg);
      jobs.push_back(app.make(20, 10, fg_submit));
      grid.push_back({cluster,
                      std::move(jobs),
                      options,
                      std::string(app.name) + (setting == 0 ? "/bg1x" : "/bg2x"),
                      {{"app", app.name},
                       {"background", setting == 0 ? "1x" : "2x"}}});
    }
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);

  TablePrinter table({"job", "alone JCT (s)", "slowdown (bg 1x)",
                      "slowdown (bg 2x)"});
  for (std::size_t a = 0; a < std::size(apps); ++a) {
    const double alone = results[3 * a].run.jobs.front().jct;
    table.add_row(
        {apps[a].name, TablePrinter::num(alone, 1),
         TablePrinter::num(
             slowdown(results[3 * a + 1].run.jct_of(apps[a].name), alone), 2),
         TablePrinter::num(
             slowdown(results[3 * a + 2].run.jct_of(apps[a].name), alone),
             2)});
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  std::cout << "\nShape check: every foreground job is slowed well beyond\n"
               "1x despite top priority, and doubling background task\n"
               "duration increases the slowdown (paper's Fig. 4).\n";
  return 0;
}
