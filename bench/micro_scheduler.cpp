// Scheduler hot-path micro-benchmarks (google-benchmark).
//
// These quantify the costs that bound large-scale simulations: event queue
// churn, cluster slot transitions, reservation bookkeeping, and end-to-end
// simulated task throughput of the engine with and without SSR.
//
// Unlike the other micro_* conventions, this binary carries its own main():
// it accepts `--bench-json FILE` (stripped before google-benchmark sees the
// argv) and mirrors every measurement into the shared BENCH_sched.json
// report that the perf-smoke CI job diffs against its committed baseline.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ssr/core/reservation_manager.h"
#include "ssr/exp/bench_report.h"
#include "ssr/sched/engine.h"
#include "ssr/sim/event_queue.h"

namespace {

using namespace ssr;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.push(static_cast<double>((i * 7919) % n), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_ClusterTaskTransitions(benchmark::State& state) {
  Cluster cluster(100, 4);
  double now = 0.0;
  std::uint32_t round = 0;
  for (auto _ : state) {
    // A full job generation per round: every slot starts a distinct task of
    // the round's job, then ends it.
    const JobId job{round++};
    for (std::uint32_t s = 0; s < cluster.num_slots(); ++s) {
      cluster.start_task(SlotId{s}, TaskId{StageId{job, 0}, s, 0}, now);
    }
    now += 1.0;
    for (std::uint32_t s = 0; s < cluster.num_slots(); ++s) {
      cluster.end_task(SlotId{s}, now);
    }
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * cluster.num_slots() * 2);
}
BENCHMARK(BM_ClusterTaskTransitions);

void BM_ReservationCycle(benchmark::State& state) {
  Cluster cluster(100, 4);
  double now = 0.0;
  for (auto _ : state) {
    for (std::uint32_t s = 0; s < cluster.num_slots(); ++s) {
      Reservation r;
      r.job = JobId{1};
      r.priority = 5;
      cluster.reserve(SlotId{s}, r, now);
    }
    now += 1.0;
    for (std::uint32_t s = 0; s < cluster.num_slots(); ++s) {
      cluster.release_reservation(SlotId{s}, now);
    }
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * cluster.num_slots() * 2);
}
BENCHMARK(BM_ReservationCycle);

/// End-to-end engine throughput: many small chain jobs contending on a
/// medium cluster; reports simulated tasks per wall-clock second.
void BM_EngineThroughput(benchmark::State& state) {
  const bool with_ssr = state.range(0) != 0;
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    Engine engine(SchedConfig{}, 50, 4, 1);
    if (with_ssr) {
      engine.set_reservation_hook(
          std::make_unique<ReservationManager>(SsrConfig{}));
    }
    for (int j = 0; j < 200; ++j) {
      engine.submit(JobBuilder("job" + std::to_string(j))
                        .priority(j % 3)
                        .submit_at(j * 0.5)
                        .stage(8, uniform_duration(1.0, 3.0))
                        .stage(8, uniform_duration(1.0, 3.0))
                        .stage(4, uniform_duration(1.0, 3.0))
                        .build());
    }
    engine.run();
    tasks += 200 * 20;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
  state.SetLabel(with_ssr ? "with-ssr" : "baseline");
}
BENCHMARK(BM_EngineThroughput)->Arg(0)->Arg(1);

/// Console reporter that additionally mirrors per-benchmark measurements
/// into the shared BENCH_sched.json report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchReporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      BenchRecord rec;
      rec.name = run.benchmark_name();
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rec.items_per_second = it->second;
      rec.wall_seconds = run.real_accumulated_time;
      out_.add(std::move(rec));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

 private:
  BenchReporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --bench-json before google-benchmark parses the argv (it
  // rejects flags it does not know).
  std::string bench_json;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      bench_json = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  BenchReporter report;
  CapturingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!bench_json.empty()) report.write_file(bench_json);
  benchmark::Shutdown();
  return 0;
}
