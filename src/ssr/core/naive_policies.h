// The two naive reservation strategies the paper contrasts against
// (Sec. III-A): static slot reservation and timeout-based reservation.
// Both are real policies in production systems (Mesos/Borg static
// reservations; Spark dynamic-allocation executor timeouts), and both are
// implemented here as ReservationHooks so the ablation benches can compare
// them with speculative slot reservation under identical workloads.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/types.h"

namespace ssr {

/// Sec. III-A.1 — static slot reservation: the operator carves out a fixed
/// number of slots for the latency-sensitive class (jobs with priority >=
/// class_min_priority).  The carve-out ignores the actual demand: too few
/// slots compromise isolation, too many waste utilization.
class StaticReservationHook : public ReservationHook {
 public:
  StaticReservationHook(std::uint32_t reserved_slots, int class_min_priority);

  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override;
  void on_task_killed(Engine& engine, const TaskFinishInfo& info) override;
  void on_slot_idle(Engine& engine, SlotId slot) override;
  void on_slot_failed(Engine& engine, SlotId slot) override;
  ReservedApprovalModel reserved_approval_model() const override {
    return ReservedApprovalModel::PriorityOverride;
  }
  void on_stage_submitted(Engine& engine, StageId stage) override;
  void on_stage_fully_placed(Engine&, StageId) override {}
  void on_task_started(Engine& engine, TaskId task, SlotId slot) override;
  void on_job_finished(Engine&, JobId) override {}

  /// Slots currently held idle for the class.
  std::size_t held_slots() const { return class_slots_.size(); }

  /// Sentinel job id used for the class reservations (no real job owns
  /// them; approval works through the reservation priority instead).
  static constexpr JobId kClassJob{0xFFFFFFFFu};

 private:
  /// Top up the carve-out to `target_` from the idle pool.
  void replenish(Engine& engine);

  std::uint32_t target_;
  int class_min_priority_;
  std::set<SlotId> class_slots_;  ///< currently ReservedIdle for the class
};

/// Sec. III-A.2 — timeout-based reservation (Spark dynamic allocation): when
/// a task finishes, its slot is blindly held for the job for a fixed
/// timeout, whether or not a downstream computation exists.
class TimeoutReservationHook : public ReservationHook {
 public:
  explicit TimeoutReservationHook(SimDuration timeout);

  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override;
  void on_task_killed(Engine& engine, const TaskFinishInfo& info) override;
  void on_slot_idle(Engine& engine, SlotId slot) override;
  void on_slot_failed(Engine& engine, SlotId slot) override;
  ReservedApprovalModel reserved_approval_model() const override {
    return ReservedApprovalModel::PriorityOverride;
  }
  void on_stage_submitted(Engine&, StageId) override {}
  void on_stage_fully_placed(Engine&, StageId) override {}
  void on_task_started(Engine&, TaskId, SlotId slot) override;
  void on_job_finished(Engine& engine, JobId job) override;

 private:
  SimDuration timeout_;
  std::map<SlotId, JobId> held_;  ///< our own view of live holds
  std::map<JobId, std::set<SlotId>> by_job_;
};

}  // namespace ssr
