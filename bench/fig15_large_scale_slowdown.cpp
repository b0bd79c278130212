// Fig. 15 [Simulation]: average slowdown of foreground job suites in a
// large cluster, with and without speculative slot reservation.
//
// Paper setup: 1000 nodes / 4000 slots; locality wait 3 s; 5x task runtime
// without data locality (10x in the stress setting).  Foreground suites:
//   * SQL    — 20 TPC-DS queries,
//   * MLlib  — KMeans + SVM + PageRank traces,
//   * MLlib2 — the same with 2x degree of parallelism.
// Background: 8000 jobs synthesized from the Google/SQL/MLlib mixes.
// Three settings: (a) standard, (b) background task runtime 2x,
// (c) locality slowdown factor 2x (10x instead of 5x).
//
// Run with --scale N to divide the cluster and workload sizes (default 1 =
// paper scale); EXPERIMENTS.md records the scale used.  The full grid —
// per-job alone baselines plus the 18 contended cluster runs — executes on
// the sweep pool; --jobs $(nproc) parallelizes the heavy contended runs,
// which dominate the serial wall-clock.
#include <cstdint>
#include <iostream>
#include <vector>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/exp/bench_report.h"
#include "ssr/exp/sweep.h"
#include "ssr/workload/adjust.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace {

using namespace ssr;

struct Suite {
  const char* name;
  std::vector<JobSpec> jobs;  ///< submit times are offsets; set by caller
};

std::vector<Suite> make_foreground(std::uint32_t parallelism,
                                   SimTime first_submit, SimDuration spacing) {
  std::vector<Suite> suites;

  Suite sql{"sql", {}};
  for (std::uint32_t q = 0; q < 20; ++q) {
    SqlJobParams p;
    p.query_index = q;
    p.base_parallelism = parallelism;
    p.priority = 10;
    p.submit_time = first_submit + spacing * q;
    sql.jobs.push_back(make_sql_query(p));
  }
  suites.push_back(std::move(sql));

  Suite ml{"mllib", {}};
  Suite ml2{"mllib-2x", {}};
  int i = 0;
  for (auto make : {make_kmeans, make_svm, make_pagerank}) {
    for (int rep = 0; rep < 4; ++rep) {
      const SimTime t = first_submit + spacing * (20 + 4 * i + rep);
      ml.jobs.push_back(make(parallelism, 10, t));
      ml2.jobs.push_back(
          scale_parallelism(make(parallelism, 10, t), 2.0));
    }
    ++i;
  }
  suites.push_back(std::move(ml));
  suites.push_back(std::move(ml2));
  return suites;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse(argc, argv);
  // Default to 1/4 scale so the whole bench suite stays CI-friendly; pass
  // --scale 1 for the paper-scale 1000-node / 8000-job run.
  if (!args.scale_set) args.scale = 4.0;

  const ClusterSpec cluster{.nodes = args.scaled(1000), .slots_per_node = 4};
  const std::uint32_t bg_jobs = args.scaled(8000);
  const SimDuration window = 3600.0;
  std::cout << "Fig. 15: large-scale trace-driven simulation — "
            << cluster.nodes << " nodes / " << cluster.nodes * 4
            << " slots, " << bg_jobs << " background jobs (scale 1/"
            << args.scale << " of the paper)\n\n";

  struct Setting {
    const char* name;
    double bg_runtime_mult;
    double locality_slowdown;
  };
  const Setting settings[] = {{"(a) standard", 1.0, 5.0},
                              {"(b) bg tasks 2x", 2.0, 5.0},
                              {"(c) locality 10x", 1.0, 10.0}};

  // Grid layout, recorded as it is built: per (setting, suite, pass):
  // one alone baseline per foreground job, then the contended cluster run.
  struct Cell {
    std::size_t suite_index;  ///< into the per-setting suites vector
    std::size_t alone_first;  ///< index of the first alone trial
    std::size_t alone_count;
    std::size_t run_index;    ///< index of the contended trial
  };
  std::vector<Trial> grid;
  std::vector<Cell> cells;  // ordered: setting-major, suite, pass
  std::vector<std::string> suite_names;

  for (const Setting& setting : settings) {
    SchedConfig sched;
    sched.locality_wait = 3.0;
    sched.locality_slowdown = setting.locality_slowdown;

    std::size_t suite_index = 0;
    for (Suite& suite : make_foreground(20, window * 0.2, 30.0)) {
      if (suite_names.size() < 3) suite_names.push_back(suite.name);
      for (int pass = 0; pass < 2; ++pass) {
        RunOptions o;
        o.sched = sched;
        o.seed = args.seed;
        if (pass == 1) {
          o.ssr = SsrConfig{};
          o.ssr->min_reserving_priority = 1;  // foreground class only
        }
        const std::string label = std::string(setting.name) + "/" +
                                  suite.name +
                                  (pass == 0 ? "/nossr" : "/ssr");

        Cell cell;
        cell.suite_index = suite_index;
        cell.alone_first = grid.size();
        cell.alone_count = suite.jobs.size();
        // Per-job alone baselines (same scheduler config, empty cluster).
        for (const JobSpec& j : suite.jobs) {
          JobSpec copy = j;
          copy.submit_time = 0.0;
          grid.push_back({cluster,
                          {std::move(copy)},
                          o,
                          label + "/alone",
                          {{"setting", setting.name},
                           {"suite", suite.name},
                           {"policy", pass == 0 ? "none" : "ssr"}}});
        }

        TraceGenConfig bg;
        bg.num_jobs = bg_jobs;
        bg.window = window;
        bg.runtime_multiplier = setting.bg_runtime_mult;
        bg.seed = args.seed + 42;
        std::vector<JobSpec> jobs = make_background_jobs(bg);
        for (const JobSpec& j : suite.jobs) jobs.push_back(j);
        cell.run_index = grid.size();
        grid.push_back({cluster,
                        std::move(jobs),
                        o,
                        label,
                        {{"setting", setting.name},
                         {"suite", suite.name},
                         {"policy", pass == 0 ? "none" : "ssr"}}});
        cells.push_back(cell);
      }
      ++suite_index;
    }
  }

  const SweepRunner runner(sweep_options(args));
  const WallTimer timer;
  const std::vector<TrialResult> results = runner.run(grid);
  const double wall = timer.elapsed_seconds();

  TablePrinter table({"setting", "suite", "avg slowdown w/o SSR",
                      "avg slowdown w/ SSR"});
  std::size_t cell_index = 0;
  for (const Setting& setting : settings) {
    for (const std::string& suite : suite_names) {
      double avg_slow[2] = {0.0, 0.0};
      for (int pass = 0; pass < 2; ++pass) {
        const Cell& cell = cells[cell_index++];
        const RunResult& run = results[cell.run_index].run;
        const std::size_t bg_count = run.jobs.size() - cell.alone_count;
        OnlineStats slow;
        for (std::size_t k = 0; k < cell.alone_count; ++k) {
          const double alone =
              results[cell.alone_first + k].run.jobs.front().jct;
          slow.add(slowdown(run.jobs[bg_count + k].jct, alone));
        }
        avg_slow[pass] = slow.mean();
      }
      table.add_row({setting.name, suite, TablePrinter::num(avg_slow[0], 2),
                     TablePrinter::num(avg_slow[1], 2)});
    }
  }
  table.print(std::cout);
  emit_sweep_outputs(args, results);
  if (!args.bench_json.empty()) {
    // Record the whole-grid wall clock (the hot-path acceptance metric);
    // items/s counts simulated task starts across every trial in the grid.
    std::uint64_t tasks = 0;
    for (const TrialResult& r : results) {
      tasks += r.run.task_totals.tasks_started;
    }
    BenchReporter report;
    BenchRecord rec;
    rec.name = "fig15_grid/scale" + TablePrinter::num(args.scale, 0);
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second = static_cast<double>(tasks) / wall;
    }
    report.add(std::move(rec));
    report.write_file(args.bench_json);
  }
  std::cout << "\nShape check (paper): long background tasks barely matter\n"
               "in a large cluster (a ~ b), but data locality dominates\n"
               "(c >> a) — and SSR cuts MLlib suites to < 1.1x while SQL\n"
               "(changing parallelism) lands at a moderate 1.3-1.5x.\n";
  return 0;
}
