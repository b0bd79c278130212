#include "ssr/audit/slot_ledger.h"

#include <cmath>
#include <sstream>
#include <utility>

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

SlotLedger::SlotLedger(std::uint32_t num_slots) : model_(num_slots) {}

void SlotLedger::flag(const char* invariant, SimTime now, std::string subject,
                      std::string expected, std::string actual) {
  violations_.push_back(Violation{invariant, now, std::move(subject),
                                  std::move(expected), std::move(actual)});
}

void SlotLedger::record(Violation violation) {
  violations_.push_back(std::move(violation));
}

void SlotLedger::touch(SimTime now) {
  if (now < last_time_) {
    flag(kTimeMonotonic, now, "clock", "time >= " + str(last_time_),
         str(now));
  }
  last_time_ = std::max(last_time_, now);
}

void SlotLedger::check_stage_known(TaskId task, SimTime now) {
  if (!submitted_stages_.contains(task.stage)) {
    flag(kBarrierOrdering, now, str(task),
         "task's stage submitted before any attempt starts",
         "stage " + str(task.stage) + " never submitted");
  }
}

void SlotLedger::on_reserve(SlotId slot, JobId job, int priority,
                            SimTime deadline, SimTime now) {
  touch(now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state == SlotState::Dead) {
    flag(kDeadSlotUse, now, str(slot), "a live slot to reserve", "Dead");
  } else if (m.state != SlotState::Idle) {
    flag(kDoubleReserve, now, str(slot), "Idle slot to reserve",
         std::string(slot_state_name(m.state)) +
             (m.state == SlotState::ReservedIdle
                  ? " (reserved by " + str(m.owner) + ")"
                  : ""));
  }
  model_.to_reserved(slot, job, priority, deadline, now);
}

void SlotLedger::on_claim(SlotId slot, TaskId task, int priority,
                          SimTime now) {
  touch(now);
  check_stage_known(task, now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state == SlotState::Dead) {
    flag(kDeadSlotUse, now, str(task), "a live slot to claim",
         str(slot) + " is Dead");
  } else if (m.state != SlotState::ReservedIdle) {
    flag(kDoubleClaim, now, str(slot),
         "an active reservation to claim for " + str(task),
         std::string(slot_state_name(m.state)) +
             " with no active reservation");
  } else {
    if (task.stage.job != m.owner && priority <= m.priority) {
      flag(kReservedSlotPriority, now, str(task),
           "claim by " + str(m.owner) + " or priority > " + str(m.priority),
           str(task.stage.job) + " with priority " + str(priority));
    }
    if (now > m.deadline + kDeadlineEps) {
      flag(kExpiredClaim, now, str(task),
           "claim at or before deadline " + str(m.deadline), str(now));
    }
  }
  model_.to_busy(slot, task, now);
}

void SlotLedger::on_start(SlotId slot, TaskId task, SimTime now) {
  touch(now);
  check_stage_known(task, now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state == SlotState::Dead) {
    flag(kDeadSlotUse, now, str(task), "a live slot to start on",
         str(slot) + " is Dead");
  } else if (m.state == SlotState::Busy) {
    flag(kTaskLifecycle, now, str(task), "an idle slot to start on",
         str(slot) + " already running " + str(m.task));
  } else if (m.state == SlotState::ReservedIdle) {
    // The caller routed a reserved-slot start through on_start instead of
    // on_claim: the reservation is being consumed without claim validation.
    flag(kTaskLifecycle, now, str(task),
         "reserved slot consumed via a claim", "plain start on " + str(slot));
  }
  model_.to_busy(slot, task, now);
}

void SlotLedger::on_finish(SlotId slot, TaskId task, SimTime now) {
  end_task("finish", slot, task, now);
}

void SlotLedger::on_kill(SlotId slot, TaskId task, SimTime now) {
  end_task("kill", slot, task, now);
}

void SlotLedger::end_task(const char* what, SlotId slot, TaskId task,
                          SimTime now) {
  touch(now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state != SlotState::Busy || m.task != task) {
    flag(kTaskLifecycle, now, str(task),
         std::string(what) + " of the task running on " + str(slot),
         m.state == SlotState::Busy ? str(m.task) + " running"
                                    : "slot not busy");
  }
  model_.to_idle(slot, now);
}

void SlotLedger::on_release(SlotId slot, LedgerRelease kind, SimTime now) {
  touch(now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state != SlotState::ReservedIdle) {
    flag(kDoubleRelease, now, str(slot), "an active reservation to release",
         std::string(slot_state_name(m.state)) +
             " with no active reservation");
  } else if (kind == LedgerRelease::Expired) {
    if (m.deadline >= kTimeInfinity) {
      flag(kExpiryTime, now, str(slot),
           "no expiry (reservation has no deadline)", "expired at " + str(now));
    } else if (std::abs(now - m.deadline) > kDeadlineEps) {
      flag(kExpiryTime, now, str(slot), "expiry exactly at " + str(m.deadline),
           str(now));
    }
  }
  model_.to_idle(slot, now);
}

void SlotLedger::on_fail(SlotId slot, SimTime now) {
  touch(now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state != SlotState::Idle) {
    flag(kDeadSlotUse, now, str(slot),
         "a drained (Idle) slot at failure time",
         std::string(slot_state_name(m.state)) +
             (m.state == SlotState::Busy ? " running " + str(m.task)
                                         : std::string()));
  }
  model_.to_dead(slot, now);
}

void SlotLedger::on_recover(SlotId slot, SimTime now) {
  touch(now);
  const SlotModel::Record& m = model_.at(slot);
  if (m.state != SlotState::Dead) {
    flag(kDeadSlotUse, now, str(slot), "a Dead slot to recover",
         slot_state_name(m.state));
  }
  model_.to_idle(slot, now);
}

void SlotLedger::on_stage_submitted(StageId stage,
                                    const std::vector<StageId>& parents,
                                    SimTime now) {
  touch(now);
  if (!submitted_stages_.insert(stage).second) {
    flag(kBarrierOrdering, now, str(stage), "a single submission",
         "stage submitted twice");
  }
  for (StageId parent : parents) {
    if (!finished_stages_.contains(parent)) {
      flag(kBarrierOrdering, now, str(stage),
           "all upstream tasks finished before the barrier clears",
           "parent " + str(parent) + " unfinished");
    }
  }
}

void SlotLedger::on_stage_finished(StageId stage, SimTime now) {
  touch(now);
  if (!submitted_stages_.contains(stage)) {
    flag(kBarrierOrdering, now, str(stage), "finish of a submitted stage",
         "stage never submitted");
  }
  if (!finished_stages_.insert(stage).second) {
    flag(kBarrierOrdering, now, str(stage), "a single completion",
         "stage finished twice");
  }
}

void SlotLedger::on_stage_invalidated(StageId stage, SimTime now) {
  touch(now);
  if (finished_stages_.erase(stage) == 0) {
    flag(kBarrierOrdering, now, str(stage),
         "invalidation of a finished stage", "stage was not finished");
  }
}

}  // namespace ssr::audit
