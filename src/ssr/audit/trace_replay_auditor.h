// The invariant audit of one event stream.
//
// ReplayAuditor checks each TraceEvent against the transitions the paper's
// model allows and records a Violation for every one it forbids:
// reservations may only be placed on idle slots, claimed by the reserving
// job or a strictly higher priority, and must end exactly at their deadline;
// tasks may only start after their stage's barrier cleared; event time never
// moves backwards.  It then moves its SlotModel (sim/slot_model.h) anyway, so
// one bug does not cascade into dozens of spurious reports.  A start on a
// slot the model holds reserved is a claim, task_failed is the same slot
// transition as a kill, stage parents come from the captured barrier lists,
// and run completion settles the model's slot-time accounting.
//
// It needs no Engine.  It audits a capture through TraceReplayer, the
// seeded-bug tests feed it illegal event sequences and assert the exact
// invariant id, and InvariantAuditor feeds it every live event and adds the
// cross-checks against the Engine.  A capture of a clean run must replay
// clean; a capture that trips the audit names the violated invariant — the
// replay-verify CI step uses this to re-certify committed fixtures without
// re-simulating them.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ssr/audit/violation.h"
#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sim/slot_model.h"

namespace ssr::audit {

class ReplayAuditor : public TraceConsumer {
 public:
  /// Starts a fresh audit of a `header.num_slots`-slot cluster.
  void on_trace_begin(const TraceHeader& header) override;
  /// Validates the event's transition, records a violation for each rule it
  /// breaks, then applies it.  Throws CheckError before on_trace_begin and
  /// for a slot id outside the model.
  void on_trace_event(const TraceEvent& event) override;

  bool clean() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  const SlotModel& model() const { return model_; }

  /// Append an externally-detected violation (InvariantAuditor's cluster
  /// cross-checks report through the same list as the event checks).
  void record(Violation violation) {
    violations_.push_back(std::move(violation));
  }

 private:
  SlotModel model_;
  std::set<StageId> submitted_stages_;
  std::set<StageId> finished_stages_;
  /// Job priorities captured at submission (the claim check's input).
  std::map<JobId, int> priority_;
  SimTime last_time_ = kTimeZero;
  std::vector<Violation> violations_;
};

}  // namespace ssr::audit
