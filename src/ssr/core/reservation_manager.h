// Speculative slot reservation — the paper's core contribution.
//
// ReservationManager implements the scheduler-side logic of Algorithm 1 plus
// the two utilization-loss mitigations of Sec. IV:
//
//  * HandleTaskCompletion: when a task of a non-final phase finishes, reserve
//    its slot for the downstream phase.  With a priori parallelism knowledge
//    (m current, n downstream): reserve all slots when n is unknown or
//    n == m; release the first m - n freed slots when n < m; reserve and
//    additionally pre-reserve n - m foreign slots once the finished fraction
//    exceeds the threshold R when n > m.
//  * Reservation deadline (Sec. IV-B): each phase's reservations expire at
//    phase_start + t_m * (1 - P^{1/N})^{-1/alpha}, with t_m estimated online
//    as the duration of the phase's first finishing task.  P = 1 never
//    expires.
//  * Straggler mitigation (Sec. IV-C): once the number of ongoing tasks in a
//    phase drops to the number of the job's reserved-idle slots, launch one
//    extra copy of every ongoing task on a reserved slot; the first finisher
//    wins and the loser is killed (the engine implements the race).
//
// TryAllocateTask's ApprovalLogic lives in approve(): a reserved slot may
// only be taken by the reserving job itself or by a strictly higher-priority
// job.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/core/ssr_config.h"
#include "ssr/sched/types.h"

namespace ssr {

class ReservationManager : public ReservationHook {
 public:
  explicit ReservationManager(SsrConfig config);

  // --- ReservationHook ------------------------------------------------------
  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override;
  void on_task_killed(Engine& engine, const TaskFinishInfo& info) override;
  void on_slot_idle(Engine& engine, SlotId slot) override;
  void on_slot_failed(Engine& engine, SlotId slot) override;
  ReservedApprovalModel reserved_approval_model() const override {
    return ReservedApprovalModel::PriorityOverride;
  }
  void on_stage_submitted(Engine& engine, StageId stage) override;
  void on_stage_fully_placed(Engine& engine, StageId stage) override;
  void on_task_started(Engine& engine, TaskId task, SlotId slot) override;
  void on_job_finished(Engine& engine, JobId job) override;

  // --- Introspection (tests, metrics) ---------------------------------------
  const SsrConfig& config() const { return config_; }

  /// Number of slots currently reserved (idle) on behalf of `job`.
  std::size_t reserved_count(JobId job) const;

  /// Cross-checks the manager's bookkeeping against the engine; throws
  /// CheckError on the first mismatch.  Holds between top-level engine
  /// callbacks (inside one, a batch release drops its records before the
  /// cluster lets the slots go).
  void check_bookkeeping(const Engine& engine) const;

  /// Total straggler copies this manager has launched.
  std::uint64_t copies_launched() const { return copies_launched_; }

  /// Total reservations that expired at their deadline.
  std::uint64_t reservations_expired() const { return reservations_expired_; }

  /// Learned Pareto tail index for a recurring job name (Hill estimator);
  /// nullopt until `tail_min_samples` completions have been observed or when
  /// learning is disabled.
  std::optional<double> learned_alpha(const std::string& job_name) const;

 private:
  /// Per-(upstream) stage reservation state.
  struct StageState {
    /// Absolute reservation deadline for slots reserved by this phase;
    /// computed from the first task completion.  kTimeInfinity if P = 1.
    std::optional<SimTime> deadline;
    /// Pre-reservation (Case m < n): downstream stage index and how many
    /// extra slots still need to be grabbed.
    bool prereserving = false;
    std::uint32_t prereserve_needed = 0;
    /// Live reservations this phase made (its slot records).
    std::uint32_t reserved = 0;
  };

  /// The manager's own view of a reservation it made, indexed by slot id
  /// (the cluster is authoritative for state; the record adds which
  /// upstream stage the reservation came from, for release-on-fully-placed
  /// and mitigation).  The reserving job is from_stage.job.
  struct SlotRecord {
    StageId from_stage;  ///< Upstream stage whose completion reserved it.
    StageId for_stage;   ///< Downstream stage it serves.
    bool prereserved = false;  ///< Came from Case-2.3 pre-reservation.
    bool live = false;
  };

  bool eligible(const Engine& engine, JobId job) const;

  /// Compute (and cache) the stage's reservation deadline; returns nullopt
  /// if the deadline already passed (reservations would be dead on arrival).
  std::optional<SimTime> stage_deadline(Engine& engine, StageId stage);

  /// Algorithm 1's "reserve s and s.priority <- k.job.priority".
  void reserve(Engine& engine, SlotId slot, StageId from_stage,
               StageId for_stage, SimTime deadline, bool prereserved = false);

  /// `slot`'s record, or nullptr if the manager holds none.  Most task
  /// starts find no record; the live count spares them the slot lookup.
  const SlotRecord* live_record(SlotId slot) const {
    if (live_records_ == 0 || slot.v >= reserved_.size() ||
        !reserved_[slot.v].live) {
      return nullptr;
    }
    return &reserved_[slot.v];
  }

  /// Drop `slot`'s record (consumed, expired, failed or released) and
  /// return it; nullopt if the manager holds none.
  std::optional<SlotRecord> take_record(SlotId slot);

  /// Keep `demand_` in step with a change to `ss`'s pre-reservation fields.
  void note_demand(StageId sid, const StageState& ss);

  /// Algorithm 1 HandleTaskCompletion for a slot freed by `info`'s task
  /// (shared by finish and kill paths).
  void handle_phase_slot(Engine& engine, const TaskFinishInfo& info);

  /// Offer an idle slot to pending pre-reservations (highest priority
  /// first).  Returns true if the slot was grabbed.
  bool try_prereserve(Engine& engine, SlotId slot);

  /// Grab currently-idle slots that fit for_stage's demand, up to the
  /// stage's outstanding pre-reservation count.
  void grab_idle_fitting_slots(Engine& engine, StageId sid, StageId for_stage,
                               SimTime deadline);

  /// Launch straggler copies for every stage of `job` whose trigger fires.
  void maybe_mitigate(Engine& engine, JobId job);

  /// Record a completed task's duration for per-name tail learning.
  void record_duration(const Engine& engine, const TaskFinishInfo& info);

  /// Tail index the deadline computation should use for `job`: the learned
  /// per-name estimate when available, the configured alpha otherwise.
  double alpha_for(const Engine& engine, JobId job) const;

  SsrConfig config_;
  std::map<StageId, StageState> stages_;
  /// Sized to the cluster on the first reservation.  A job's reserved
  /// slots, in id order, are Cluster::reserved_idle_slots_of(job).
  std::vector<SlotRecord> reserved_;
  std::uint32_t live_records_ = 0;
  /// Phases with open pre-reservation demand (prereserving and
  /// prereserve_needed > 0), in stage order.
  std::set<StageId> demand_;
  std::map<std::string, std::vector<double>> durations_by_name_;
  std::uint64_t copies_launched_ = 0;
  std::uint64_t reservations_expired_ = 0;
};

}  // namespace ssr
