#include "ssr/audit/trace_replay_auditor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "ssr/common/check.h"

namespace ssr::audit {

namespace {

/// Reservation deadlines are absolute event times the engine itself
/// scheduled, so expiry should land exactly on the deadline; the epsilon only
/// absorbs decimal-literal rounding.
constexpr double kDeadlineEps = 1e-9;

template <typename T>
std::string str(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

void ReplayAuditor::on_trace_begin(const TraceHeader& header) {
  SSR_CHECK_MSG(header.num_slots > 0,
                "trace header declares a cluster with no slots");
  model_ = SlotModel(header.num_slots);
  submitted_stages_.clear();
  finished_stages_.clear();
  priority_.clear();
  last_time_ = kTimeZero;
  violations_.clear();
}

void ReplayAuditor::on_trace_event(const TraceEvent& e) {
  SSR_CHECK_MSG(model_.num_slots() > 0,
                "ReplayAuditor used before on_trace_begin");
  const SimTime now = e.time;
  const auto flag = [&](const char* invariant, std::string subject,
                        std::string expected, std::string actual) {
    violations_.push_back(Violation{invariant, now, std::move(subject),
                                    std::move(expected), std::move(actual)});
  };
  if (now < last_time_) {
    flag(kTimeMonotonic, "clock", "time >= " + str(last_time_), str(now));
  }
  last_time_ = std::max(last_time_, now);

  switch (e.kind) {
    case TraceEventKind::kJobSubmitted:
      priority_[e.job] = e.priority;
      break;
    case TraceEventKind::kJobFinished:
    case TraceEventKind::kTaskRequeued:
      break;  // no slot or barrier transition
    case TraceEventKind::kRunComplete:
      model_.settle(now);
      break;
    case TraceEventKind::kStageSubmitted:
      if (!submitted_stages_.insert(e.stage).second) {
        flag(kBarrierOrdering, str(e.stage), "a single submission",
             "stage submitted twice");
      }
      for (std::uint32_t index : e.parents) {
        const StageId parent{e.stage.job, index};
        if (!finished_stages_.contains(parent)) {
          flag(kBarrierOrdering, str(e.stage),
               "all upstream tasks finished before the barrier clears",
               "parent " + str(parent) + " unfinished");
        }
      }
      break;
    case TraceEventKind::kStageFinished:
      if (!submitted_stages_.contains(e.stage)) {
        flag(kBarrierOrdering, str(e.stage), "finish of a submitted stage",
             "stage never submitted");
      }
      if (!finished_stages_.insert(e.stage).second) {
        flag(kBarrierOrdering, str(e.stage), "a single completion",
             "stage finished twice");
      }
      break;
    case TraceEventKind::kStageInvalidated:
      // A finished stage lost outputs to a failure and re-opened; it may
      // finish again.
      if (finished_stages_.erase(e.stage) == 0) {
        flag(kBarrierOrdering, str(e.stage),
             "invalidation of a finished stage", "stage was not finished");
      }
      break;
    case TraceEventKind::kTaskStarted: {
      if (!submitted_stages_.contains(e.task.stage)) {
        flag(kBarrierOrdering, str(e.task),
             "task's stage submitted before any attempt starts",
             "stage " + str(e.task.stage) + " never submitted");
      }
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state == SlotState::Dead) {
        flag(kDeadSlotUse, str(e.task), "a live slot to start on",
             str(e.slot) + " is Dead");
      } else if (m.state == SlotState::Busy) {
        flag(kTaskLifecycle, str(e.task), "an idle slot to start on",
             str(e.slot) + " already running " + str(m.task));
      } else if (m.state == SlotState::ReservedIdle) {
        // A start on a reserved slot is the claim (Algorithm 1).
        const auto it = priority_.find(e.task.stage.job);
        const int priority = it != priority_.end() ? it->second : 0;
        if (e.task.stage.job != m.owner && priority <= m.priority) {
          flag(kReservedSlotPriority, str(e.task),
               "claim by " + str(m.owner) + " or priority > " +
                   str(m.priority),
               str(e.task.stage.job) + " with priority " + str(priority));
        }
        if (now > m.deadline + kDeadlineEps) {
          flag(kExpiredClaim, str(e.task),
               "claim at or before deadline " + str(m.deadline), str(now));
        }
      }
      model_.to_busy(e.slot, e.task, now);
      break;
    }
    case TraceEventKind::kTaskFinished:
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed: {
      // task_failed is the same slot transition as a race-loss kill; the
      // slot goes Dead in the following kSlotFailed event.
      const char* what =
          e.kind == TraceEventKind::kTaskFinished ? "finish" : "kill";
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state != SlotState::Busy || m.task != e.task) {
        flag(kTaskLifecycle, str(e.task),
             std::string(what) + " of the task running on " + str(e.slot),
             m.state == SlotState::Busy ? str(m.task) + " running"
                                        : "slot not busy");
      }
      model_.to_idle(e.slot, now);
      break;
    }
    case TraceEventKind::kSlotFailed: {
      // The engine drains a slot before it fails it.
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state != SlotState::Idle) {
        flag(kDeadSlotUse, str(e.slot), "a drained (Idle) slot at failure time",
             std::string(slot_state_name(m.state)) +
                 (m.state == SlotState::Busy ? " running " + str(m.task)
                                             : std::string()));
      }
      model_.to_dead(e.slot, now);
      break;
    }
    case TraceEventKind::kSlotRecovered: {
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state != SlotState::Dead) {
        flag(kDeadSlotUse, str(e.slot), "a Dead slot to recover",
             slot_state_name(m.state));
      }
      model_.to_idle(e.slot, now);
      break;
    }
    case TraceEventKind::kSlotReserved: {
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state == SlotState::Dead) {
        flag(kDeadSlotUse, str(e.slot), "a live slot to reserve", "Dead");
      } else if (m.state != SlotState::Idle) {
        flag(kDoubleReserve, str(e.slot), "Idle slot to reserve",
             std::string(slot_state_name(m.state)) +
                 (m.state == SlotState::ReservedIdle
                      ? " (reserved by " + str(m.owner) + ")"
                      : ""));
      }
      model_.to_reserved(e.slot, e.job, e.priority, e.deadline, now);
      break;
    }
    case TraceEventKind::kReservationReleased: {
      // Expiry or explicit release, never a claim (that is a kTaskStarted).
      const SlotModel::Record& m = model_.at(e.slot);
      if (m.state != SlotState::ReservedIdle) {
        flag(kDoubleRelease, str(e.slot), "an active reservation to release",
             std::string(slot_state_name(m.state)) +
                 " with no active reservation");
      } else if (e.reason == ReservationEndReason::Expired) {
        if (m.deadline >= kTimeInfinity) {
          flag(kExpiryTime, str(e.slot),
               "no expiry (reservation has no deadline)",
               "expired at " + str(now));
        } else if (std::abs(now - m.deadline) > kDeadlineEps) {
          flag(kExpiryTime, str(e.slot),
               "expiry exactly at " + str(m.deadline), str(now));
        }
      }
      model_.to_idle(e.slot, now);
      break;
    }
  }
}

}  // namespace ssr::audit
