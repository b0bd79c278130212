// Metrics collectors: the running-task series the paper's timelines plot
// (Figs. 5, 13), plus the per-job task and recovery counter records that
// exp/trace_replay.h's ReplayResultBuilder folds from the event stream.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr {

/// Records, for every job, the number of running tasks as a step function of
/// time.  Attach only in small-scale timeline experiments; the change log is
/// proportional to the number of task events.
class RunningTasksSeries : public TraceStream {
 public:
  /// Step-change log for one job: (time, running count after the change).
  const std::vector<std::pair<SimTime, int>>& changes(JobId job) const;

  /// Piecewise-constant value sampled every `dt` over [0, horizon].
  std::vector<std::pair<SimTime, int>> sampled(JobId job, SimDuration dt,
                                               SimTime horizon) const;

 protected:
  /// A start adds one running task to its job; a finish, kill or failure
  /// removes one.
  void emit(const Engine& engine, const TraceEvent& event) override;

 private:
  std::map<JobId, std::vector<std::pair<SimTime, int>>> changes_;
};

/// Per-job aggregate task statistics (ReplayResultBuilder::task_stats).
struct JobTaskStats {
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_finished = 0;  ///< winning attempts only
  std::uint64_t tasks_killed = 0;    ///< losing straggler-race attempts
  std::uint64_t tasks_failed = 0;    ///< attempts that died with their slot
  std::uint64_t copies_started = 0;  ///< attempts with attempt id >= 1
  std::uint64_t copies_won = 0;      ///< copies that beat their original
  std::uint64_t local_starts = 0;    ///< attempts launched with data locality
  /// Busy slot-seconds the job's attempts occupied (finished and killed).
  double busy_seconds = 0.0;
};

/// Fault-injection and recovery counters (DESIGN.md §9;
/// ReplayResultBuilder::recovery).
struct RecoveryStats {
  std::uint64_t slots_failed = 0;      ///< fail transitions applied to slots
  std::uint64_t slots_recovered = 0;   ///< Dead -> Idle transitions
  std::uint64_t tasks_failed = 0;      ///< attempts killed by slot death
  std::uint64_t tasks_requeued = 0;    ///< logical tasks re-queued to re-run
  std::uint64_t failures_masked = 0;   ///< failed attempts whose twin won
  std::uint64_t stages_invalidated = 0;  ///< finished stages re-opened
  std::uint64_t reservations_broken = 0;  ///< reservations ended by slot death
};

}  // namespace ssr
