// RunResult as a fold over the event stream.
//
// ReplayResultBuilder is the only RunResult builder: ScenarioHarness feeds
// it live through a TraceFanOut, and a capture (metrics/trace_capture.h)
// feeds it through TraceReplayer with no Engine and no re-simulation.  The
// two results are bit-identical (digest byte-equality) because both runs
// fold the same events with the same arithmetic:
//
//   * slot time accounting is a SlotModel (sim/slot_model.h) moved at
//     precisely the cluster transitions the events mark and settled at run
//     completion (Engine::drain's settle); ScenarioHarness::collect checks
//     it against the Cluster's own accounting exactly;
//   * an attempt's busy seconds are the time its slot's end move accrues:
//     the slot was stamped when the attempt started and no event touches
//     it until the attempt ends;
//   * per-job task counters accumulate in event order in a
//     std::map<JobId, ...>, and totals fold in ascending job order;
//   * recovery counters track logical tasks with an open failed attempt
//     (a requeue resolves it as re-run, a finish as masked by a twin);
//   * reservations_expired counts Expired-reason releases, which equals
//     ReservationManager::reservations_expired() (the manager erases its
//     record before self-initiated releases, so only engine expiry releases
//     reach its on_slot_idle reconciliation) — reconstructed only when the
//     header says a manager was installed;
//   * job rows come out in ascending dense JobId order, which is submission
//     order for both the closed and the open harness.
//
// Not reconstructed: RunResult::tenants (the VirtualClusterManager's
// admission ledger sees rejected submissions that never reach the engine's
// observer seam; the stream carries admitted work only).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "ssr/exp/scenario.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sim/slot_model.h"

namespace ssr {

class ReplayResultBuilder : public TraceConsumer {
 public:
  void on_trace_begin(const TraceHeader& header) override;
  void on_trace_event(const TraceEvent& event) override;

  /// True once the capture's kRunComplete event was consumed.
  bool complete() const { return complete_; }

  /// The folded result; throws CheckError unless complete().
  const RunResult& result() const;

  /// Counters so far, readable mid-run (an unknown job reads all zero).
  const JobTaskStats& task_stats(JobId job) const;
  const RecoveryStats& recovery() const { return recovery_; }

 private:
  struct JobMirror {
    std::string name;
    int priority = 0;
    SimTime submit = 0.0;
    SimTime finish = 0.0;
  };

  /// Ends the attempt running on the event's slot: moves the slot to Idle
  /// and returns the attempt's stats row after adding its busy seconds.
  /// Throws CheckError unless the slot is Busy with that attempt.
  JobTaskStats& end_attempt(const TraceEvent& e);
  void finalize(SimTime now);

  TraceHeader header_;
  bool complete_ = false;
  RunResult result_;

  SlotModel slots_;
  std::map<JobId, JobMirror> jobs_;
  std::map<JobId, JobTaskStats> task_stats_;
  RecoveryStats recovery_;
  /// Logical tasks ((job, stage, index)) with a failed attempt whose fate is
  /// still open.
  std::set<std::tuple<JobId, std::uint32_t, std::uint32_t>> failed_pending_;
  std::uint64_t expired_releases_ = 0;
};

/// Convenience: replay a whole capture into a RunResult in one call.
RunResult replay_run_result(const TraceReplayer& replayer);

}  // namespace ssr
