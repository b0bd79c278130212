#include "ssr/core/naive_policies.h"

#include <vector>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

// --- StaticReservationHook ----------------------------------------------------

StaticReservationHook::StaticReservationHook(std::uint32_t reserved_slots,
                                             int class_min_priority)
    : target_(reserved_slots), class_min_priority_(class_min_priority) {}

void StaticReservationHook::replenish(Engine& engine) {
  if (class_slots_.size() >= target_) return;
  // Walk a snapshot: reserving mutates the idle set.
  const SlotSet idle = engine.cluster().idle_slots();
  for (SlotId s : idle) {
    if (class_slots_.size() >= target_) break;
    if (engine.cluster().slot(s).state() != SlotState::Idle) continue;
    Reservation r;
    r.job = kClassJob;
    // Any job of the class (priority >= class_min_priority) passes the
    // "strictly higher priority" approval test against this value.
    r.priority = class_min_priority_ - 1;
    r.deadline = kTimeInfinity;
    class_slots_.insert(s);
    engine.reserve_slot(s, r);
  }
}

void StaticReservationHook::on_task_finished(Engine& engine,
                                             const TaskFinishInfo&) {
  replenish(engine);
}

void StaticReservationHook::on_task_killed(Engine& engine,
                                           const TaskFinishInfo&) {
  replenish(engine);
}

void StaticReservationHook::on_slot_idle(Engine& engine, SlotId) {
  replenish(engine);
}

void StaticReservationHook::on_stage_submitted(Engine& engine, StageId) {
  // First chance to establish the carve-out once work exists.
  replenish(engine);
}

void StaticReservationHook::on_slot_failed(Engine& engine, SlotId slot) {
  // A carve-out slot died; re-establish the target from surviving capacity.
  if (class_slots_.erase(slot) > 0) replenish(engine);
}

void StaticReservationHook::on_task_started(Engine& engine, TaskId,
                                            SlotId slot) {
  // A class job consumed one of the carve-out slots; top it back up.
  if (class_slots_.erase(slot) > 0) replenish(engine);
}

// --- TimeoutReservationHook ---------------------------------------------------

TimeoutReservationHook::TimeoutReservationHook(SimDuration timeout)
    : timeout_(timeout) {
  SSR_CHECK_MSG(timeout > 0.0, "timeout must be positive");
}

void TimeoutReservationHook::on_task_finished(Engine& engine,
                                              const TaskFinishInfo& info) {
  if (engine.cluster().slot(info.slot).state() != SlotState::Idle) return;
  const JobId job = info.task.stage.job;
  Reservation r;
  r.job = job;
  r.priority = engine.graph(job).priority();
  r.deadline = engine.sim().now() + timeout_;
  held_[info.slot] = job;
  by_job_[job].insert(info.slot);
  engine.reserve_slot(info.slot, r);
}

void TimeoutReservationHook::on_task_killed(Engine& engine,
                                            const TaskFinishInfo& info) {
  on_task_finished(engine, info);
}

void TimeoutReservationHook::on_slot_idle(Engine&, SlotId slot) {
  // Reached when a hold expires: reconcile the bookkeeping.
  auto it = held_.find(slot);
  if (it != held_.end()) {
    by_job_[it->second].erase(slot);
    held_.erase(it);
  }
}

void TimeoutReservationHook::on_slot_failed(Engine&, SlotId slot) {
  auto it = held_.find(slot);
  if (it != held_.end()) {
    by_job_[it->second].erase(slot);
    held_.erase(it);
  }
}

void TimeoutReservationHook::on_task_started(Engine&, TaskId, SlotId slot) {
  auto it = held_.find(slot);
  if (it != held_.end()) {
    by_job_[it->second].erase(slot);
    held_.erase(it);
  }
}

void TimeoutReservationHook::on_job_finished(Engine& engine, JobId job) {
  auto it = by_job_.find(job);
  if (it == by_job_.end()) return;
  const std::vector<SlotId> slots(it->second.begin(), it->second.end());
  for (SlotId s : slots) held_.erase(s);
  by_job_.erase(it);
  for (SlotId s : slots) {
    if (engine.cluster().slot(s).state() == SlotState::ReservedIdle &&
        engine.cluster().slot(s).reservation()->job == job) {
      engine.release_reservation(s);
    }
  }
}

}  // namespace ssr
