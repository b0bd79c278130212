// Pure event-stream invariant checker for the slot / reservation / barrier
// state machines.
//
// SlotLedger replays scheduler events against a SlotModel (sim/slot_model.h)
// and records a Violation for every transition the paper's model forbids:
// reservations may only be placed on idle slots, claimed by the reserving job
// or a strictly higher priority, and must end exactly at their deadline;
// tasks may only start after their stage's barrier cleared; event time never
// moves backwards.  It is deliberately independent of Engine/Cluster so
// seeded-bug tests can feed illegal sequences directly and assert the exact
// invariant id; ReplayAuditor maps TraceEvents onto it, and InvariantAuditor
// feeds that mapping live and adds the cluster cross-checks a model alone
// cannot do, among them comparing the model's slot-seconds with the
// cluster's.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ssr/audit/violation.h"
#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sim/slot_model.h"

namespace ssr::audit {

/// How a reservation ended without being claimed.
enum class LedgerRelease { Expired, Released };

class SlotLedger {
 public:
  explicit SlotLedger(std::uint32_t num_slots);

  // --- Events ---------------------------------------------------------------
  // Each call validates the transition, records violations, and then moves
  // the model anyway so one bug does not cascade into dozens of spurious
  // reports.  A slot id outside the model throws CheckError.

  /// Idle -> ReservedIdle on behalf of `job` with inherited `priority`.
  void on_reserve(SlotId slot, JobId job, int priority, SimTime deadline,
                  SimTime now);

  /// A task starts on a slot the ledger knows is reserved: validates the
  /// Algorithm-1 priority rule and the deadline.
  void on_claim(SlotId slot, TaskId task, int priority, SimTime now);

  /// A task starts on an unreserved slot.
  void on_start(SlotId slot, TaskId task, SimTime now);

  void on_finish(SlotId slot, TaskId task, SimTime now);
  void on_kill(SlotId slot, TaskId task, SimTime now);

  /// ReservedIdle -> Idle without a claim (expiry or explicit release).
  void on_release(SlotId slot, LedgerRelease kind, SimTime now);

  /// Idle -> Dead (fault injection).  The engine drains the slot first, so
  /// arriving here in any other state is a dead-slot-use violation.
  void on_fail(SlotId slot, SimTime now);

  /// Dead -> Idle.
  void on_recover(SlotId slot, SimTime now);

  /// Barrier tracking: `parents` must all be finished when `stage` is
  /// submitted; tasks may only start for submitted stages.
  void on_stage_submitted(StageId stage, const std::vector<StageId>& parents,
                          SimTime now);
  void on_stage_finished(StageId stage, SimTime now);

  /// A finished stage lost outputs to a failure and re-opened; it may finish
  /// again.  Invalidating a stage the ledger never saw finish is a
  /// barrier-ordering violation.
  void on_stage_invalidated(StageId stage, SimTime now);

  /// The run ended at `now`: settles the model's slot-time accounting.
  void on_run_complete(SimTime now) { model_.settle(now); }

  // --- Inspection -----------------------------------------------------------

  SlotState slot_state(SlotId slot) const { return model_.at(slot).state; }
  const SlotModel& model() const { return model_; }

  bool clean() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Append an externally-detected violation (the adapter's cluster
  /// cross-checks report through the same list as event checks).
  void record(Violation violation);

 private:
  void flag(const char* invariant, SimTime now, std::string subject,
            std::string expected, std::string actual);
  /// Monotonic-clock check shared by every event.
  void touch(SimTime now);
  void check_stage_known(TaskId task, SimTime now);
  /// on_finish / on_kill: `what` names the end in the report.
  void end_task(const char* what, SlotId slot, TaskId task, SimTime now);

  SlotModel model_;
  std::set<StageId> submitted_stages_;
  std::set<StageId> finished_stages_;
  SimTime last_time_ = kTimeZero;
  std::vector<Violation> violations_;
};

}  // namespace ssr::audit
