// Fig. 17 [Simulation]: average JCT reduction of the foreground jobs from
// the straggler-mitigation strategy, as a function of the latency-tail shape.
//
// Per the paper's methodology, each foreground job's task runtimes are
// re-drawn from a Pareto distribution with the given shape alpha and the
// *same mean* as the original workload.  We run each job with and without
// straggler mitigation (both with SSR reservations enabled) and report the
// mean JCT reduction.  The paper reports ~73% at the production-typical
// alpha = 1.6.
//
// The (alpha x rep x job x {off,on}) grid — 324 single-job trials — runs in
// parallel on the sweep pool.
#include <iostream>
#include <vector>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/adjust.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/sqlbench.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  const ClusterSpec cluster{.nodes = 60, .slots_per_node = 4};

  std::cout << "Fig. 17: average foreground JCT reduction from straggler "
               "mitigation vs Pareto shape alpha\n\n";

  auto make_suite = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(make_kmeans(40, 10, 0.0));
    jobs.push_back(make_svm(40, 10, 0.0));
    jobs.push_back(make_pagerank(40, 10, 0.0));
    for (std::uint32_t q = 0; q < 6; ++q) {
      SqlJobParams p;
      p.query_index = q;
      p.base_parallelism = 40;
      p.priority = 10;
      jobs.push_back(make_sql_query(p));
    }
    return jobs;
  };

  const double alphas[] = {1.1, 1.3, 1.6, 2.0, 2.5, 3.0};
  const int kReps = 3;

  // Grid layout: per alpha, per rep, per suite job: [mitigation off, on];
  // both trials run the *identical* adjusted spec (explicit durations).
  std::vector<Trial> grid;
  for (const double alpha : alphas) {
    for (int rep = 0; rep < kReps; ++rep) {
      Rng rng(args.seed + 31 * static_cast<std::uint64_t>(rep));
      for (JobSpec& job : make_suite()) {
        JobSpec adjusted = pareto_adjust(std::move(job), alpha, rng);

        RunOptions off;
        off.seed = args.seed + static_cast<std::uint64_t>(rep);
        off.ssr = SsrConfig{};
        RunOptions on = off;
        on.ssr->enable_straggler_mitigation = true;

        const std::string label =
            "alpha=" + TablePrinter::num(alpha, 1) + "/" + adjusted.name;
        std::map<std::string, std::string> tags = {
            {"alpha", TablePrinter::num(alpha, 1)},
            {"rep", std::to_string(rep)},
            {"app", adjusted.name}};
        tags["mitigation"] = "off";
        grid.push_back({cluster, {adjusted}, off, label + "/off", tags});
        tags["mitigation"] = "on";
        grid.push_back(
            {cluster, {std::move(adjusted)}, on, label + "/on", tags});
      }
    }
  }

  const SweepRunner runner(sweep_options(args));
  const std::vector<TrialResult> results = runner.run(grid);

  TablePrinter table({"alpha", "avg JCT reduction (%)"});
  const std::size_t per_alpha = results.size() / std::size(alphas);
  for (std::size_t ai = 0; ai < std::size(alphas); ++ai) {
    OnlineStats reduction;
    for (std::size_t k = 0; k < per_alpha; k += 2) {
      const double jct_off =
          results[ai * per_alpha + k].run.jobs.front().jct;
      const double jct_on =
          results[ai * per_alpha + k + 1].run.jobs.front().jct;
      reduction.add(100.0 * (jct_off - jct_on) / jct_off);
    }
    table.add_row({TablePrinter::num(alphas[ai], 1),
                   TablePrinter::num(reduction.mean(), 1)});
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  std::cout << "\nShape check: heavier tails (small alpha) benefit more;\n"
               "the paper reports ~73% average reduction at alpha = 1.6.\n";
  return 0;
}
