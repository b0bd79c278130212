#include "ssr/audit/trace_replay_auditor.h"

#include <vector>

#include "ssr/common/check.h"

namespace ssr::audit {

void ReplayAuditor::on_trace_begin(const TraceHeader& header) {
  SSR_CHECK_MSG(header.num_slots > 0,
                "trace header declares a cluster with no slots");
  ledger_.emplace(header.num_slots);
  priority_.clear();
}

const SlotLedger& ReplayAuditor::ledger() const {
  SSR_CHECK_MSG(ledger_.has_value(),
                "ReplayAuditor used before on_trace_begin");
  return *ledger_;
}

SlotLedger& ReplayAuditor::ledger() {
  SSR_CHECK_MSG(ledger_.has_value(),
                "ReplayAuditor used before on_trace_begin");
  return *ledger_;
}

void ReplayAuditor::on_trace_event(const TraceEvent& e) {
  SlotLedger& lg = ledger();
  switch (e.kind) {
    case TraceEventKind::kJobSubmitted:
      priority_[e.job] = e.priority;
      break;
    case TraceEventKind::kJobFinished:
    case TraceEventKind::kTaskRequeued:
      break;  // no ledger transition
    case TraceEventKind::kRunComplete:
      lg.on_run_complete(e.time);
      break;
    case TraceEventKind::kStageSubmitted: {
      std::vector<StageId> parents;
      parents.reserve(e.parents.size());
      for (std::uint32_t p : e.parents) {
        parents.push_back(StageId{e.stage.job, p});
      }
      lg.on_stage_submitted(e.stage, parents, e.time);
      break;
    }
    case TraceEventKind::kStageFinished:
      lg.on_stage_finished(e.stage, e.time);
      break;
    case TraceEventKind::kStageInvalidated:
      lg.on_stage_invalidated(e.stage, e.time);
      break;
    case TraceEventKind::kTaskStarted:
      // A start on a slot the ledger believes reserved is a claim
      // (priority/deadline checks).
      if (lg.slot_state(e.slot) == SlotState::ReservedIdle) {
        auto it = priority_.find(e.task.stage.job);
        lg.on_claim(e.slot, e.task,
                    it != priority_.end() ? it->second : 0, e.time);
      } else {
        lg.on_start(e.slot, e.task, e.time);
      }
      break;
    case TraceEventKind::kTaskFinished:
      lg.on_finish(e.slot, e.task, e.time);
      break;
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed:
      // task_failed is the same slot transition as a race-loss kill; the
      // slot goes Dead in the following kSlotFailed event.
      lg.on_kill(e.slot, e.task, e.time);
      break;
    case TraceEventKind::kSlotFailed:
      lg.on_fail(e.slot, e.time);
      break;
    case TraceEventKind::kSlotRecovered:
      lg.on_recover(e.slot, e.time);
      break;
    case TraceEventKind::kSlotReserved:
      lg.on_reserve(e.slot, e.job, e.priority, e.deadline, e.time);
      break;
    case TraceEventKind::kReservationReleased:
      lg.on_release(e.slot,
                    e.reason == ReservationEndReason::Expired
                        ? LedgerRelease::Expired
                        : LedgerRelease::Released,
                    e.time);
      break;
  }
}

}  // namespace ssr::audit
