// Fig. 5 [Cluster]: detailed view of KMeans execution over time (degree of
// parallelism = 20), without and with low-priority background jobs.
//
// The paper's micro-benchmark shows KMeans holding its 20 slots when alone,
// but repeatedly collapsing to few running tasks before each barrier and
// ramping up slowly under contention.  We plot the number of running KMeans
// tasks sampled over time in both environments.
#include <iostream>

#include "ssr/common/table.h"
#include "ssr/exp/scenario.h"
#include "ssr/metrics/collectors.h"
#include "ssr/sched/engine.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

namespace {

using namespace ssr;

void run_and_plot(bool with_background, std::uint64_t seed) {
  Engine engine(SchedConfig{}, 50, 2, seed);
  RunningTasksSeries series;
  engine.add_observer(&series);

  TraceGenConfig bg;
  bg.num_jobs = 100;
  bg.window = 1200.0;
  bg.seed = seed + 1000;

  const SimTime fg_submit = with_background ? 300.0 : 0.0;
  JobId kmeans_id{};
  if (with_background) {
    for (JobSpec& spec : make_background_jobs(bg)) {
      engine.submit(std::move(spec));
    }
  }
  kmeans_id = engine.submit(make_kmeans(20, /*priority=*/10, fg_submit));
  engine.run();

  const SimTime finish = engine.job_finish_time(kmeans_id);
  std::cout << (with_background ? "WITH background contention"
                                : "WITHOUT background (running alone)")
            << " — KMeans JCT = " << engine.jct(kmeans_id) << " s\n";
  AsciiSeries plot("time since submit (s)", "# running KMeans tasks", 40);
  const SimDuration dt = (finish - fg_submit) / 40.0;
  for (const auto& [t, v] : series.sampled(kmeans_id, dt, finish)) {
    if (t >= fg_submit) plot.add_point(t - fg_submit, v);
  }
  plot.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  std::cout << "Fig. 5: KMeans running-task count over time "
               "(parallelism 20, 50 nodes, no SSR)\n\n";
  run_and_plot(/*with_background=*/false, args.seed);
  run_and_plot(/*with_background=*/true, args.seed);
  std::cout << "Shape check: alone, the job holds ~20 slots with brief dips\n"
               "at barriers; under contention it loses slots before each\n"
               "barrier and ramps up slowly afterwards (paper's Fig. 5).\n";
  return 0;
}
