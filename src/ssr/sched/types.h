// Shared scheduler types: configuration, the reservation hook interface the
// core SSR library implements, and the observer interface metrics collectors
// implement.
//
// The scheduler mirrors Spark's three-layer architecture (Sec. V of the
// paper): Engine plays DAGScheduler (barrier tracking, stage submission) and
// TaskSchedulerImpl (resourceOffers + ApprovalLogic); StageRuntime plays
// TaskSetManager (per-phase task lifecycle and delay scheduling).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"

namespace ssr {

class Engine;
struct Reservation;

/// Why a reservation stopped being active.  A reservation consumed by a task
/// start ("claimed") is not reported through on_reservation_released — the
/// on_task_started callback that fires for the claiming attempt is the
/// release notification in that case.
enum class ReservationEndReason {
  Expired,     ///< Deadline event fired with the reservation still current.
  Released,    ///< Policy released it (fully placed, job finished, override).
  SlotFailed,  ///< The reserved slot died (fault injection); the reservation
               ///< was broken, not consumed.
};

/// How the scheduler orders task sets when offering slots.
enum class SchedulingPolicy {
  /// Strict priority: higher job priority first; FIFO within a priority.
  Priority,
  /// Spark fair scheduler: fewest running tasks per fair-share weight first.
  Fair,
};

/// Pluggable stage-ordering / slot-ranking policy (the "policy zoo" seam,
/// DESIGN.md §14).  A selector refines — it does not replace — the built-in
/// SchedulingPolicy: when one is installed, active task sets are ordered by
/// descending stage_score() first, and only ties fall through to the
/// configured Priority/Fair comparison, so every selector inherits the
/// engine's deterministic total order.  rank_slots() optionally reorders the
/// candidate slots the engine already enumerated for a stage (e.g. best-fit
/// packing); it must only permute the vector, never add or drop entries —
/// the engine's approval logic stays the source of truth for which slots a
/// stage may take.
///
/// Both methods must be pure functions of engine state: no mutation, no
/// wall-clock/random input, no iteration-order dependence on unordered
/// containers (the nondet-iteration analyzer rule treats them as sinks).
/// Scores are doubles compared exactly, so derive them from deterministic
/// arithmetic over spec values (DurationDist::mean(), Resources components).
class StageSelector {
 public:
  virtual ~StageSelector() = default;

  /// Priority score for an active stage's task set; higher runs first.
  /// Called once when the stage's task set becomes active (scores are
  /// cached, not re-polled per offer).
  virtual double stage_score(const Engine& engine, StageId stage) const = 0;

  /// Optionally reorder `slots` (best candidate first) for `stage`.  Return
  /// false to keep the engine's id-order enumeration (the default).
  virtual bool rank_slots(const Engine& engine, StageId stage,
                          std::vector<SlotId>& slots) const {
    (void)engine;
    (void)stage;
    (void)slots;
    return false;
  }
};

struct SchedConfig {
  SchedulingPolicy policy = SchedulingPolicy::Priority;

  /// Optional stage-ordering/slot-ranking policy.  Null (the default) keeps
  /// the built-in Priority/Fair ordering byte-identical to before the
  /// selector seam existed.  Shared, not owned: the same selector instance
  /// may drive several engines (it is stateless by contract).
  std::shared_ptr<const StageSelector> selector;

  /// How long a task set insists on data-local slots before accepting any
  /// slot (spark.locality.wait; the paper and we use 3 s).
  SimDuration locality_wait = 3.0;

  /// Multiplier applied to a task's base duration when it runs on a slot
  /// without its parent stage's output (no data locality, cold executor).
  /// The paper measured up to two orders of magnitude in the cluster and
  /// conservatively simulates 5x (10x in the Fig. 15c stress setting).
  double locality_slowdown = 5.0;

  /// Per-task fixed scheduling overhead added to every attempt's runtime.
  /// Models driver latency; keeps zero-length phases from being free.
  SimDuration task_overhead = 0.0;
};

/// Everything the reservation hook needs to know about a finished (or
/// killed) task attempt.
struct TaskFinishInfo {
  TaskId task;
  SlotId slot;
  /// Parallelism m of the task's own stage.
  std::uint32_t stage_parallelism = 0;
  /// Number of original tasks of the stage that have finished (including
  /// this one).
  std::uint32_t stage_finished = 0;
  /// This attempt's measured duration (start to finish).
  SimDuration duration = 0.0;
};

/// What a hook's approve() does with ReservedIdle slots.  The engine uses
/// this to pick an indexed candidate enumeration on the scheduling hot path
/// instead of probing approve() against every reserved slot.  Whatever the
/// model, approve() itself stays the source of truth: the engine only ever
/// uses the model to *restrict* which slots it asks about, and the indexed
/// enumerations are constructed to visit exactly the slots approve() would
/// accept, in the same id order the full scan would.
enum class ReservedApprovalModel {
  /// approve() is arbitrary; the engine must probe every reserved slot.
  /// The conservative default — unknown hooks get the full-scan path.
  Custom,
  /// approve() never accepts a ReservedIdle slot (NullReservationHook).
  NeverApprove,
  /// approve() accepts a ReservedIdle slot iff the reservation belongs to
  /// the requesting job or the requester's priority strictly exceeds the
  /// reservation's (Algorithm 1's ApprovalLogic; all SSR policy hooks).
  PriorityOverride,
};

/// Interface the speculative-slot-reservation core implements; a null
/// default (no reservations, plain work conservation) is used otherwise.
///
/// Call ordering contract, per event:
///   task completes -> Cluster::end_task (slot now Idle)
///                  -> hook.on_task_finished (may reserve the slot)
///                  -> barrier bookkeeping (stage/job completion)
///                  -> the slot, if still idle, is offered to task sets.
class ReservationHook {
 public:
  virtual ~ReservationHook() = default;

  /// An original task attempt of a non-copy finished on `slot` (the slot is
  /// Idle at call time).  Algorithm 1's HandleTaskCompletion.
  virtual void on_task_finished(Engine& engine, const TaskFinishInfo& info) = 0;

  /// A running attempt was killed because its twin finished first.  The
  /// paper's mechanism treats the slot like a completed-task slot (it is warm
  /// and mid-phase), so implementations typically re-reserve it.
  virtual void on_task_killed(Engine& engine, const TaskFinishInfo& info) = 0;

  /// A slot became idle for a reason other than task completion (reservation
  /// expiry/override, job teardown, failure recovery).  Gives
  /// pre-reservation (Case-2.3) a chance to grab it.
  virtual void on_slot_idle(Engine& engine, SlotId slot) = 0;

  /// `slot` is transitioning to Dead (fault injection).  Any reservation it
  /// held has already been released by the engine; implementations must drop
  /// their own bookkeeping for the slot and must NOT reserve it (it is
  /// already Dead at call time).  Default: nothing to reconcile.
  virtual void on_slot_failed(Engine& engine, SlotId slot) {
    (void)engine;
    (void)slot;
  }

  /// ApprovalLogic (Algorithm 1, TryAllocateTask): may `job` with `priority`
  /// start a task on `slot`?  Must return true for unreserved idle slots.
  /// Must have no side effects: which stages an offer probes, and how often,
  /// is the engine's business (its precedence-ordered walk stops at the
  /// first stage that accepts, so it asks fewer stages than a full scan).
  /// The default is Algorithm 1's rule, which every SSR policy hook shares:
  /// an Idle slot, or a ReservedIdle one when `job` holds the reservation or
  /// `priority` strictly exceeds the reservation's.
  virtual bool approve(const Engine& engine, SlotId slot, JobId job,
                       int priority) const;

  /// Declares approve()'s behaviour on ReservedIdle slots so the engine can
  /// enumerate candidates from incremental indexes.  Override ONLY if
  /// approve() exactly matches the declared model; Custom is always safe.
  /// A hook that inherits approve() may declare PriorityOverride; one that
  /// overrides approve() must check that its body still matches.
  virtual ReservedApprovalModel reserved_approval_model() const {
    return ReservedApprovalModel::Custom;
  }

  /// A stage's task set was submitted (its barrier cleared).
  virtual void on_stage_submitted(Engine& engine, StageId stage) = 0;

  /// Every task of `stage` has been handed a slot; reservations made on the
  /// stage's behalf that were not consumed can be released.
  virtual void on_stage_fully_placed(Engine& engine, StageId stage) = 0;

  /// A task attempt started on `slot` (drives straggler-mitigation state).
  virtual void on_task_started(Engine& engine, TaskId task, SlotId slot) = 0;

  /// The job finished; all its reservations must be dropped.
  virtual void on_job_finished(Engine& engine, JobId job) = 0;
};

/// Passive observer for metrics collection and auditing.  All callbacks fire
/// at the simulated instant the event occurs, after the cluster state
/// transition they describe has been applied (so observers see the
/// post-event state).  This is the audit seam, parallel to ReservationHook:
/// metrics/trace_capture.h's TraceStream turns it into the TraceEvent
/// stream that the RunResult fold, the invariant audit and the Chrome
/// export consume.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_job_submitted(const Engine&, JobId) {}
  virtual void on_job_finished(const Engine&, JobId) {}
  virtual void on_stage_submitted(const Engine&, StageId) {}
  virtual void on_stage_finished(const Engine&, StageId) {}
  virtual void on_task_started(const Engine&, TaskId, SlotId) {}
  virtual void on_task_finished(const Engine&, TaskId, SlotId) {}
  virtual void on_task_killed(const Engine&, TaskId, SlotId) {}

  // --- Failure / recovery (fault injection) ---------------------------------

  /// A running attempt died with its slot.  Distinct from on_task_killed
  /// (losing a straggler race): the slot is about to go Dead, and the
  /// logical task may not be done.
  virtual void on_task_failed(const Engine&, TaskId, SlotId) {}
  /// A logical task went back to the pending queue: its failed attempt had
  /// no live twin, or its finished output was lost with a slot.  The TaskId
  /// is the attempt whose work was lost; the re-run is a fresh start of the
  /// original attempt.
  virtual void on_task_requeued(const Engine&, TaskId) {}
  /// A previously-finished stage lost outputs and re-opened; its barrier
  /// contribution was rolled back and on_stage_finished will fire again.
  virtual void on_stage_invalidated(const Engine&, StageId) {}
  /// A slot moved to Dead (already drained: no task, no reservation).
  virtual void on_slot_failed(const Engine&, SlotId) {}
  /// A slot moved Dead -> Idle.
  virtual void on_slot_recovered(const Engine&, SlotId) {}

  /// A slot moved Idle -> ReservedIdle.  `reservation.token` is already the
  /// cluster-assigned generation token.
  virtual void on_slot_reserved(const Engine&, SlotId, const Reservation&) {}
  /// A slot moved ReservedIdle -> Idle without being claimed by a task.
  virtual void on_reservation_released(const Engine&, SlotId,
                                       ReservationEndReason) {}
  /// run() finished: every job done, clock settled.  End-of-run accounting
  /// checks (slot-time conservation) hang off this callback.
  virtual void on_run_complete(const Engine&) {}
};

}  // namespace ssr
