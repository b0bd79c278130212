#include "ssr/core/naive_policies.h"

#include <vector>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

std::unique_ptr<TableDrivenHook> make_static_reservation_hook(
    std::uint32_t reserved_slots, int class_min_priority) {
  TableDrivenConfig table;
  table.major_cycle = 1.0;
  table.intervals = {{0.0, 1.0}};
  table.reserved_slots = reserved_slots;
  table.class_min_priority = class_min_priority;
  return std::make_unique<TableDrivenHook>(std::move(table));
}

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
  engine.reserve_slot(info.slot, r);
}

void TimeoutReservationHook::on_task_killed(Engine& engine,
                                            const TaskFinishInfo& info) {
  on_task_finished(engine, info);
}

void TimeoutReservationHook::on_job_finished(Engine& engine, JobId job) {
  // Copy: every release changes the Cluster's list.
  const std::vector<SlotId> held = engine.cluster().reserved_idle_slots_of(job);
  for (SlotId s : held) {
    // A release offers its slot, and a task that offer starts may claim a
    // later slot of the copy for a higher-priority job.
    const Slot& slot = engine.cluster().slot(s);
    if (slot.state() == SlotState::ReservedIdle &&
        slot.reservation()->job == job) {
      engine.release_reservation(s);
    }
  }
}

}  // namespace ssr
