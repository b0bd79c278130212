// Perf smoke: wall-clock cost of trace capture and of capture replay.
//
// Two records through the shared BENCH_sched.json reporter:
//
//   trace_capture/record — the Fig. 12-shaped faulted contention run with a
//     TraceRecorder attached and the capture serialized to disk, reported as
//     simulated tasks per wall second.  Diffed against failure_smoke/faulted
//     in the baseline, this bounds the observer + serialization overhead the
//     capture seam adds to a live run.
//   trace_capture/replay — the written capture re-parsed and replayed
//     through the full consumer chain (ReplayResultBuilder + ReplayAuditor,
//     the replay-verify configuration) repeatedly, reported as captured
//     events per wall second.  This guards the parse/dispatch hot path that
//     record/replay tests and the replay-verify CI step lean on.
//
// Default --scale is 4; the replay leg repeats inversely with scale so its
// wall time stays measurable at CI scale.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/exp/bench_report.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

int main(int argc, char** argv) {
  using namespace ssr;
  BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  if (!args.scale_set) args.scale = 4.0;

  const ClusterSpec cluster{.nodes = args.scaled(400), .slots_per_node = 2};
  const std::uint32_t bg_jobs = args.scaled(2400);
  const SimDuration window = 1800.0;
  const std::string capture_path = "BENCH_capture.trace";
  std::cout << "Trace-capture perf smoke — " << cluster.nodes << " nodes / "
            << cluster.total_slots() << " slots, " << bg_jobs
            << " background jobs (scale 1/" << args.scale << ")\n";

  BenchReporter report;

  // Record leg: the failure_recovery_smoke faulted pass, plus capture.
  RunOptions o;
  o.seed = args.seed;
  o.ssr = SsrConfig{};
  o.ssr->min_reserving_priority = 1;
  o.capture_path = capture_path;
  RandomFailureConfig fc;
  fc.num_nodes = cluster.nodes;
  fc.horizon = window * 1.25;
  fc.failures = std::max<std::uint32_t>(4, cluster.nodes / 8);
  fc.min_downtime = 30.0;
  fc.max_downtime = 300.0;
  fc.permanent_fraction = 0.2;
  fc.seed = args.seed + 7;
  o.failures = make_random_node_failures(fc);

  TraceGenConfig bg;
  bg.num_jobs = bg_jobs;
  bg.window = window;
  bg.seed = args.seed + 42;
  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(60, /*priority=*/10, window * 0.25));

  {
    const WallTimer timer;
    const RunResult run = run_scenario(cluster, std::move(jobs), o);
    const double wall = timer.elapsed_seconds();
    BenchRecord rec;
    rec.name = "trace_capture/record";
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second =
          static_cast<double>(run.task_totals.tasks_started) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, "
              << run.task_totals.tasks_started << " tasks ("
              << rec.items_per_second << " tasks/s), makespan "
              << run.makespan << " sim-s\n";
    report.add(std::move(rec));
  }

  // Replay leg: parse + full consumer chain, repeated to amortize noise.
  {
    const std::uint32_t repeats = args.scaled(40);
    std::uint64_t events_replayed = 0;
    bool clean = true;
    const WallTimer timer;
    for (std::uint32_t i = 0; i < repeats; ++i) {
      const TraceReplayer replayer = TraceReplayer::from_file(capture_path);
      ReplayResultBuilder builder;
      audit::ReplayAuditor auditor;
      replayer.replay({&builder, &auditor});
      events_replayed += replayer.events().size();
      clean = clean && builder.complete() && auditor.clean();
    }
    const double wall = timer.elapsed_seconds();
    BenchRecord rec;
    rec.name = "trace_capture/replay";
    rec.wall_seconds = wall;
    if (wall > 0.0) {
      rec.items_per_second = static_cast<double>(events_replayed) / wall;
    }
    std::cout << "  " << rec.name << ": " << wall << " s wall, " << repeats
              << " replays, " << events_replayed << " events ("
              << rec.items_per_second << " events/s), audit "
              << (clean ? "clean" : "VIOLATED") << "\n";
    report.add(std::move(rec));
    if (!clean) {
      std::cerr << "trace_capture_smoke: replay was not clean\n";
      return 1;
    }
  }

  std::remove(capture_path.c_str());
  std::cout << "  peak RSS: " << peak_rss_mb() << " MiB\n";
  if (!args.bench_json.empty()) report.write_file(args.bench_json);
  return 0;
}
