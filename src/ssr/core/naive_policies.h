// The two naive reservation strategies the paper contrasts against
// (Sec. III-A): static slot reservation and timeout-based reservation.
// Both are real policies in production systems (Mesos/Borg static
// reservations; Spark dynamic-allocation executor timeouts), and both are
// ReservationHooks so the ablation benches can compare them with
// speculative slot reservation under identical workloads.
#pragma once

#include <cstdint>
#include <memory>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/policies/table_driven.h"
#include "ssr/sched/types.h"

namespace ssr {

/// Sec. III-A.1 — static slot reservation: the operator carves out a fixed
/// number of slots for the latency-sensitive class (jobs with priority >=
/// class_min_priority).  The carve-out ignores the actual demand: too few
/// slots compromise isolation, too many waste utilization.  It is the
/// one-window table-driven reservation: a single window covering the whole
/// cycle, so the slots are held forever under TableDrivenHook::kTableJob.
std::unique_ptr<TableDrivenHook> make_static_reservation_hook(
    std::uint32_t reserved_slots, int class_min_priority);

/// Sec. III-A.2 — timeout-based reservation (Spark dynamic allocation): when
/// a task finishes, its slot is blindly held for the job for a fixed
/// timeout, whether or not a downstream computation exists.  The hook keeps
/// no state of its own: the Cluster indexes each job's held slots.
class TimeoutReservationHook : public ReservationHook {
 public:
  explicit TimeoutReservationHook(SimDuration timeout);

  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override;
  void on_task_killed(Engine& engine, const TaskFinishInfo& info) override;
  void on_slot_idle(Engine&, SlotId) override {}
  ReservedApprovalModel reserved_approval_model() const override {
    return ReservedApprovalModel::PriorityOverride;
  }
  void on_stage_submitted(Engine&, StageId) override {}
  void on_stage_fully_placed(Engine&, StageId) override {}
  void on_task_started(Engine&, TaskId, SlotId) override {}
  void on_job_finished(Engine& engine, JobId job) override;

 private:
  SimDuration timeout_;
};

}  // namespace ssr
