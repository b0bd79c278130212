// Fig. 6 [Cluster]: task slowdown without data locality.
//
// The paper samples phases of the three SparkBench apps and compares task
// durations at locality level ANY against PROCESS_LOCAL, finding slowdowns
// of up to two orders of magnitude (remote fetch + cold JVM).  Here the
// slowdown factor is a simulator parameter (5x default, 10x stress — the
// same values the paper's own simulation uses), so this bench validates it
// end to end: it runs each app under heavy contention (where some downstream
// tasks are forced onto remote slots after the locality wait), splits the
// executed task attempts by locality, and reports the measured per-stage
// duration ratio.
#include <iostream>
#include <string>

#include "ssr/common/stats.h"
#include "ssr/common/table.h"
#include "ssr/exp/scenario.h"
#include "ssr/sched/engine.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

namespace {

using namespace ssr;

struct LocalityMeasurement {
  double mean_ratio = 0.0;   ///< mean over stages of remote/local duration
  double max_ratio = 0.0;    ///< worst stage
  double remote_fraction = 0.0;
};

LocalityMeasurement measure(const std::string& app, double factor,
                            std::uint64_t seed) {
  SchedConfig sched;
  sched.locality_slowdown = factor;
  Engine engine(sched, 20, 2, seed);

  TraceGenConfig bg;
  bg.num_jobs = 120;
  bg.window = 900.0;
  bg.seed = seed + 7;
  for (JobSpec& spec : make_background_jobs(bg)) engine.submit(std::move(spec));

  JobSpec fg = app == "kmeans" ? make_kmeans(20, 10, 200.0)
               : app == "svm"  ? make_svm(20, 10, 200.0)
                               : make_pagerank(20, 10, 200.0);
  const std::uint32_t stages = static_cast<std::uint32_t>(fg.stages.size());
  const JobId fg_id = engine.submit(std::move(fg));
  engine.run();

  LocalityMeasurement out;
  std::size_t rated_stages = 0, local_n = 0, remote_n = 0;
  for (std::uint32_t s = 0; s < stages; ++s) {
    const StageRuntime* st = engine.stage_runtime(StageId{fg_id, s});
    OnlineStats local, remote;
    for (std::uint32_t i = 0; i < st->parallelism(); ++i) {
      const TaskAttempt& a = st->original(i);
      if (a.state != AttemptState::Finished) continue;
      (a.local ? local : remote).add(a.finish_time - a.start_time);
    }
    local_n += local.count();
    remote_n += remote.count();
    if (local.count() > 0 && remote.count() > 0) {
      const double ratio = remote.mean() / local.mean();
      out.mean_ratio += ratio;
      out.max_ratio = std::max(out.max_ratio, ratio);
      ++rated_stages;
    }
  }
  if (rated_stages > 0) out.mean_ratio /= static_cast<double>(rated_stages);
  if (local_n + remote_n > 0) {
    out.remote_fraction = static_cast<double>(remote_n) /
                          static_cast<double>(local_n + remote_n);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  std::cout << "Fig. 6: measured duration ratio of remote vs local task "
               "attempts (contended run, no SSR)\n\n";
  TablePrinter table({"app", "factor", "remote task share",
                      "mean remote/local ratio", "max stage ratio"});
  for (const char* app : {"kmeans", "svm", "pagerank"}) {
    for (const double factor : {5.0, 10.0}) {
      const LocalityMeasurement m = measure(app, factor, args.seed);
      table.add_row({app, TablePrinter::num(factor, 0),
                     TablePrinter::num(m.remote_fraction, 2),
                     TablePrinter::num(m.mean_ratio, 2),
                     TablePrinter::num(m.max_ratio, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: tasks that lose locality run ~factor-x\n"
               "slower end to end (the paper measured up to two orders of\n"
               "magnitude on EC2 and simulated 5x / 10x, as modeled here).\n";
  return 0;
}
