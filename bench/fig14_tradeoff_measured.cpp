// Fig. 14 [Cluster]: measured trade-off between service isolation and
// utilization.
//
// Each foreground MLlib job runs against the background workload at varying
// isolation requirements P (the Eq. 2 knob).  P = 1 is the baseline with
// maximal utilization loss from reservations.  For each P we report:
//   * the foreground job's slowdown (isolation quality), and
//   * the utilization improvement — the percentage reduction of
//     reserved-idle slot time relative to the P = 1 baseline.
// Each data point averages several seeds (the paper averages 10 runs).
//
// The (app x seed x P) grid — 105 trials — runs in parallel on the sweep
// pool; the summary pairs each P against the same-seed P = 1 baseline.
#include <iostream>
#include <vector>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  const int kRuns = 5;

  const ClusterSpec cluster{.nodes = 50, .slots_per_node = 2};
  struct App {
    const char* name;
    JobSpec (*make)(std::uint32_t, int, SimTime);
  };
  const App apps[] = {{"kmeans", make_kmeans},
                      {"svm", make_svm},
                      {"pagerank", make_pagerank}};
  const std::vector<double> ps = {0.05, 0.2, 0.4, 0.6, 0.8, 1.0};

  // Grid layout: per app, per seeded rep: [alone, P = ps[0..5]].
  const std::size_t rep_stride = 1 + ps.size();
  std::vector<Trial> grid;
  for (const App& app : apps) {
    for (int r = 0; r < kRuns; ++r) {
      RunOptions alone_opts;
      alone_opts.seed = args.seed + static_cast<std::uint64_t>(r);
      grid.push_back({cluster,
                      {app.make(20, 10, 0.0)},
                      alone_opts,
                      std::string(app.name) + "/alone",
                      {{"app", app.name}, {"rep", std::to_string(r)}}});
      for (const double p : ps) {
        RunOptions o = alone_opts;
        o.ssr = SsrConfig{};
        o.ssr->min_reserving_priority = 1;  // foreground class only
        o.ssr->isolation_p = p;
        TraceGenConfig bg;
        bg.num_jobs = args.scaled(100);
        bg.window = 3600.0 / args.scale;
        bg.seed = o.seed + 1000;
        std::vector<JobSpec> jobs = make_background_jobs(bg);
        jobs.push_back(app.make(20, 10, bg.window * 0.25));
        grid.push_back({cluster,
                        std::move(jobs),
                        o,
                        std::string(app.name) + "/P=" + TablePrinter::num(p, 2),
                        {{"app", app.name},
                         {"rep", std::to_string(r)},
                         {"P", TablePrinter::num(p, 2)}}});
      }
    }
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);

  std::cout << "Fig. 14: measured isolation-utilization trade-off "
               "(mean over " << kRuns << " seeded runs)\n\n";
  TablePrinter table({"job", "P", "slowdown",
                      "utilization improvement vs P=1 (%)"});

  for (std::size_t a = 0; a < std::size(apps); ++a) {
    const std::size_t app_base = a * kRuns * rep_stride;
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      OnlineStats slow, improvement;
      for (int r = 0; r < kRuns; ++r) {
        const std::size_t rep_base =
            app_base + static_cast<std::size_t>(r) * rep_stride;
        const double alone = results[rep_base].run.jobs.front().jct;
        const RunResult& run = results[rep_base + 1 + pi].run;
        slow.add(slowdown(run.jct_of(apps[a].name), alone));
        // ps.back() == 1.0 is the same-seed baseline for the improvement.
        const double idle_p1 =
            results[rep_base + rep_stride - 1].run.reserved_idle_time;
        if (idle_p1 > 0.0) {
          improvement.add(100.0 * (idle_p1 - run.reserved_idle_time) /
                          idle_p1);
        }
      }
      table.add_row({apps[a].name, TablePrinter::num(ps[pi], 2),
                     TablePrinter::num(slow.mean(), 3),
                     ps[pi] == 1.0 ? "0.0 (baseline)"
                                   : TablePrinter::num(improvement.mean(), 1)});
    }
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  std::cout << "\nShape check: higher P -> lower slowdown but smaller\n"
               "utilization improvement; the paper finds a smooth trade-off\n"
               "with a sweet spot around P = 0.4.\n";
  return 0;
}
