// Fig. 16 [Simulation]: slowdown of the SQL jobs vs the pre-reservation
// threshold R.
//
// SQL queries change their degree of parallelism between phases; when the
// downstream phase is wider than the reserved slots, pre-reservation
// (Algorithm 1, Case-2.3) grabs the extra slots once the current phase's
// finished fraction exceeds R.  The earlier pre-reservation starts (smaller
// R), the smaller the slowdown.
#include <iostream>
#include <vector>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  // 4 policies x 3 seeds x 20 queries = 240 simulations; default to 1/4
  // scale for a CI-friendly runtime (pass --scale 1 for the full setup).
  if (!args.scale_set) args.scale = 4.0;

  const ClusterSpec cluster{.nodes = args.scaled(250), .slots_per_node = 4};
  const SimDuration window = 3600.0 / args.scale;

  auto make_query = [&](std::uint32_t q, SimTime submit) {
    SqlJobParams p;
    p.query_index = q;
    p.base_parallelism = 20;
    p.priority = 10;
    p.submit_time = submit;
    // Tasks must be long relative to the 3 s locality wait, as in the
    // paper's traces; otherwise downstream tasks simply serialize onto the
    // phase's warm slots and pre-reservation has nothing to win.
    p.mean_task_seconds = 15.0;
    return make_sql_query(p);
  };

  std::cout << "Fig. 16: SQL slowdown vs pre-reservation threshold R ("
            << cluster.nodes << " nodes / " << cluster.nodes * 4
            << " slots)\n\n";

  // Alone baselines (per query).
  RunOptions base;
  base.seed = args.seed;
  std::vector<double> alone;
  for (std::uint32_t q = 0; q < 20; ++q) {
    alone.push_back(alone_jct(cluster, make_query(q, 0.0), base));
  }

  // Queries whose DAG contains an expanding transition (m < n) are the ones
  // pre-reservation can help; report them separately from the full suite.
  std::vector<bool> expands(20, false);
  for (std::uint32_t q = 0; q < 20; ++q) {
    JobGraph g(JobId{q}, make_query(q, 0.0));
    for (std::uint32_t s = 0; s < g.num_stages(); ++s) {
      const auto n = g.downstream_parallelism(s);
      if (n && *n > g.stage(s).num_tasks) expands[q] = true;
    }
  }

  TablePrinter table({"R", "avg slowdown (all queries)",
                      "avg slowdown (expanding queries)"});
  struct Case {
    const char* label;
    bool prereserve;
    double r;
  };
  const Case cases[] = {{"0.2", true, 0.2},
                        {"0.5", true, 0.5},
                        {"0.8", true, 0.8},
                        {"off (no pre-reservation)", false, 0.5}};
  for (const Case& c : cases) {
    RunOptions o = base;
    o.ssr = SsrConfig{};
    o.ssr->min_reserving_priority = 1;  // reserve for the foreground class only
    o.ssr->enable_prereservation = c.prereserve;
    o.ssr->prereserve_threshold = c.r;

    // One query at a time against the background mix (the paper measures
    // per-query slowdown; concurrent equal-priority queries would block one
    // another via their reservations and confound the R effect).  Averaged
    // over background seeds to tame trace noise.
    OnlineStats slow, slow_expanding;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      for (std::uint32_t q = 0; q < 20; ++q) {
        TraceGenConfig bg;
        bg.num_jobs = args.scaled(2000);
        bg.window = window;
        bg.seed = args.seed + 42 + rep;
        std::vector<JobSpec> jobs = make_background_jobs(bg);
        const std::size_t bg_count = jobs.size();
        jobs.push_back(make_query(q, window * 0.2));
        RunOptions run_o = o;
        run_o.seed = args.seed + rep;
        const RunResult r = run_scenario(cluster, std::move(jobs), run_o);
        const double s = slowdown(r.jobs[bg_count].jct, alone[q]);
        slow.add(s);
        if (expands[q]) slow_expanding.add(s);
      }
    }
    table.add_row({c.label, TablePrinter::num(slow.mean(), 3),
                   TablePrinter::num(slow_expanding.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: earlier pre-reservation (smaller R) gives\n"
               "less slowdown; disabling it is worst (paper's Fig. 16).\n";
  return 0;
}
