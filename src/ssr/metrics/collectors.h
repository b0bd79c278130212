// Metrics collectors: EngineObservers that record what the paper's
// evaluation plots — running-task counts over time (Figs. 5, 13) and job
// completion times — plus the per-job task and recovery counter records
// that exp/trace_replay.h's ReplayResultBuilder folds from the event stream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/types.h"

namespace ssr {

/// Records, for every job, the number of running tasks as a step function of
/// time.  Attach only in small-scale timeline experiments; the change log is
/// proportional to the number of task events.
class RunningTasksSeries : public EngineObserver {
 public:
  void on_task_started(const Engine&, TaskId, SlotId) override;
  void on_task_finished(const Engine&, TaskId, SlotId) override;
  void on_task_killed(const Engine&, TaskId, SlotId) override;
  void on_task_failed(const Engine&, TaskId, SlotId) override;

  /// Step-change log for one job: (time, running count after the change).
  const std::vector<std::pair<SimTime, int>>& changes(JobId job) const;

  /// Piecewise-constant value sampled every `dt` over [0, horizon].
  std::vector<std::pair<SimTime, int>> sampled(JobId job, SimDuration dt,
                                               SimTime horizon) const;

 private:
  void record(const Engine& engine, JobId job, int delta);

  std::map<JobId, int> current_;
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

/// Job completion records, in finish order.
struct JobCompletion {
  JobId job;
  std::string name;
  int priority = 0;
  SimTime submit = 0.0;
  SimTime finish = 0.0;
  SimDuration jct() const { return finish - submit; }
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

class JctCollector : public EngineObserver {
 public:
  void on_job_finished(const Engine& engine, JobId job) override;

  const std::vector<JobCompletion>& completions() const { return records_; }

  /// JCTs of every job whose name matches `name` exactly.
  std::vector<double> jcts_named(const std::string& name) const;

  /// Mean JCT over jobs whose priority is >= / < the given split point.
  double mean_jct_with_priority_at_least(int priority) const;
  double mean_jct_with_priority_below(int priority) const;

 private:
  std::vector<JobCompletion> records_;
};

}  // namespace ssr
