// The scheduling engine: Spark's DAGScheduler + TaskSchedulerImpl over the
// discrete-event cluster.
//
// The engine is an *open system*: jobs may be submitted at any time while
// the simulation steps forward (submit + advance_to + drain), which is what
// the long-lived service mode and the multi-tenant virtual-cluster layer
// build on.  The classic closed-batch experiment — submit everything, then
// run() — is a thin wrapper over the same stepping core, and produces
// bit-identical event streams (see EventBand for the tie-break contract the
// equivalence rests on).
//
// Responsibilities:
//  * job lifecycle: arrival events, barrier tracking, stage submission in
//    topological order, job completion;
//  * resourceOffers: when a slot frees (or a stage is submitted) the engine
//    matches pending task sets to available slots under the configured
//    policy (priority or fair), delay scheduling, and the reservation hook's
//    ApprovalLogic;
//  * task execution: durations with locality penalties, completion events,
//    straggler-copy races (first finisher wins, the loser is killed).
//
// The speculative-slot-reservation core plugs in through ReservationHook;
// with the default NullReservationHook the engine is a plain work-conserving
// cluster scheduler — exactly the baseline the paper's Sec. II measures.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ssr/common/arena.h"
#include "ssr/common/ids.h"
#include "ssr/common/rng.h"
#include "ssr/common/time.h"
#include "ssr/dag/job.h"
#include "ssr/sched/stage_runtime.h"
#include "ssr/sched/types.h"
#include "ssr/sim/cluster.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/sim/simulator.h"

namespace ssr {

/// Baseline hook: no reservations ever; only unreserved idle slots are
/// approved.  Gives the naive work-conserving scheduler of Sec. II.
class NullReservationHook : public ReservationHook {
 public:
  void on_task_finished(Engine&, const TaskFinishInfo&) override {}
  void on_task_killed(Engine&, const TaskFinishInfo&) override {}
  void on_slot_idle(Engine&, SlotId) override {}
  bool approve(const Engine& engine, SlotId slot, JobId job,
               int priority) const override;
  ReservedApprovalModel reserved_approval_model() const override {
    return ReservedApprovalModel::NeverApprove;
  }
  void on_stage_submitted(Engine&, StageId) override {}
  void on_stage_fully_placed(Engine&, StageId) override {}
  void on_task_started(Engine&, TaskId, SlotId) override {}
  void on_job_finished(Engine&, JobId) override {}
};

/// The engine doubles as the FailureSink a FailureInjector drives: failure
/// events arrive through the ordinary event queue and are handled inline
/// (kill + re-queue running tasks, break reservations, invalidate resident
/// outputs) so a failure run stays deterministic.
class Engine : public FailureSink {
 public:
  Engine(SchedConfig config, std::uint32_t num_nodes,
         std::uint32_t slots_per_node, std::uint64_t seed);

  /// Heterogeneous cluster (Sec. III-C): per-node slot capacities.
  Engine(SchedConfig config,
         const std::vector<std::vector<Resources>>& node_slots,
         std::uint64_t seed);

  /// Dispatching ctor used by the experiment harness: an empty `node_slots`
  /// builds the homogeneous cluster (exactly the first ctor — goldens depend
  /// on that equivalence), a non-empty one the heterogeneous cluster and
  /// must then have `num_nodes` entries.
  Engine(SchedConfig config, std::uint32_t num_nodes,
         std::uint32_t slots_per_node,
         const std::vector<std::vector<Resources>>& node_slots,
         std::uint64_t seed);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Setup ---------------------------------------------------------------

  /// Register a job; its arrival fires at spec.submit_time, which must not
  /// be in the simulated past.  May be called at any point before drain():
  /// the closed harness submits everything up front, the open-system
  /// stepping API (advance_to) submits while the simulation runs.  Arrival
  /// events carry EventBand::kArrival, so a job submitted mid-run fires in
  /// exactly the same-instant order a closed run would have given it.
  JobId submit(JobSpec spec);

  /// Open-system submission: `at` overrides spec.submit_time.  Sugar for the
  /// submit_job(tenant, job, t) surface; tenancy itself lives in
  /// VirtualClusterManager, which calls back into submit() on admission.
  JobId submit_job(JobSpec spec, SimTime at);

  /// Install the reservation policy (the SSR core).  Must be called before
  /// the simulation starts stepping; defaults to NullReservationHook.
  void set_reservation_hook(std::unique_ptr<ReservationHook> hook);

  /// Register a metrics observer (non-owning; must outlive the engine's
  /// last step).
  void add_observer(EngineObserver* observer);

  // --- Open-system stepping ------------------------------------------------

  /// Process every event with time <= t; afterwards now() == t exactly,
  /// whether or not events fired (simulated time passes in an open system).
  /// Events tied at the boundary all fire, in band/insertion order; events
  /// strictly past t are never popped (bounded advance).  Interleave with
  /// submit() to model continuous job traffic.
  void advance_to(SimTime t);

  /// Run the simulation to quiescence and finalize the run: settles slot
  /// accounting, verifies every submitted job completed (throws CheckError
  /// if the system wedges — an invariant violation in a scheduling policy),
  /// and fires on_run_complete.  Terminal: no submit or advance after.
  void drain();

  /// Closed-batch wrapper over the stepping core: exactly drain().  Kept as
  /// the one-shot API every batch experiment uses.
  void run();

  /// Current simulated time (the stepping clock).
  SimTime now() const { return sim_.now(); }

  /// True once every job submitted so far has finished.
  bool all_jobs_finished() const;

  // --- Introspection -------------------------------------------------------

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  const SchedConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  std::uint32_t num_jobs() const {
    return static_cast<std::uint32_t>(jobs_.size());
  }
  const JobGraph& graph(JobId job) const;
  const std::string& job_name(JobId job) const { return graph(job).name(); }

  bool job_finished(JobId job) const;
  SimTime job_finish_time(JobId job) const;
  /// Completion time = finish - submit.  Job must have finished.
  SimDuration jct(JobId job) const;

  std::uint32_t running_tasks_of(JobId job) const;

  /// Runtime of a submitted stage; nullptr before its barrier clears.
  /// Remains valid after the stage completes (attempt history is kept).
  StageRuntime* stage_runtime(StageId stage);
  const StageRuntime* stage_runtime(StageId stage) const;

  // --- Operations used by the reservation core -----------------------------

  /// Reserve an idle slot.  Schedules the expiry event if the reservation
  /// carries a finite deadline.  Afterwards the slot is offered once to
  /// higher-priority task sets (they may override immediately).
  void reserve_slot(SlotId slot, Reservation reservation);

  /// Release a reservation and re-offer the slot.
  void release_reservation(SlotId slot);

  /// Launch a straggler copy of `task_index` on a slot reserved for the
  /// stage's job.  Returns false if preconditions fail (task already done,
  /// copy already live, slot not reserved for this job).
  bool launch_copy(StageId stage, std::uint32_t task_index, SlotId slot);

  // --- FailureSink (fault injection) ---------------------------------------
  //
  // Per failed slot, in order: a running attempt is killed (and its logical
  // task re-queued unless a live twin elsewhere masks the failure), a held
  // reservation is broken (ReservationEndReason::SlotFailed, then the hook's
  // on_slot_failed), the slot goes Dead, and every stage output resident on
  // it is invalidated — finished producer tasks whose data lived there are
  // resurrected, re-opening their stage's barrier if it had completed.
  // Recovery returns the slot Idle, cold and empty, through the normal
  // on_slot_idle/offer path.  All four calls are idempotent.

  void fail_node(NodeId node) override;
  void recover_node(NodeId node) override;
  void fail_slot(SlotId slot) override;
  void recover_slot(SlotId slot) override;

 private:
  /// One entry per active stage (one with pending tasks), keyed by the
  /// policy order, so the per-offer walk — the hottest loop at fig15 scale
  /// — usually stops after a few entries instead of visiting every active
  /// stage.  Each entry flattens the stage's precedence keys; priority,
  /// submit time, selector score and ids cannot change while the stage is
  /// active, and the fair share is re-keyed whenever its job's
  /// running_tasks moves.
  struct ActiveStage {
    StageRuntime* runtime;
    double policy_score;       ///< StageSelector::stage_score; 0 if none
    int priority;              ///< graph.priority()
    double fair_share;         ///< running_tasks / fair_weight (Fair only)
    double submit_time;        ///< graph.submit_time()
    std::uint32_t job_raw;     ///< id().job.v — final FIFO tie-breaks
    std::uint32_t stage_index; ///< id().index
    /// Activation count (0, 1, 2, ...): the stage's position in an
    /// activation-ordered list, which fixes arming (offer_slot).
    std::uint64_t activation;
  };
  /// Policy order over the cached keys: selector score, then fair share (or
  /// priority), then submit time, then job id, then stage index — a strict
  /// total order, since (job, stage) is unique.
  struct Precedes {
    SchedulingPolicy policy;
    bool operator()(const ActiveStage& a, const ActiveStage& b) const;
  };
  using ActiveIndex = std::set<ActiveStage, Precedes>;

  /// Per-stage bookkeeping, one array per job (a single allocation at
  /// submit, where setup time is spent).
  struct StageRecord {
    /// Created at submission; nullptr until the stage's barrier clears.
    /// The records live in the engine's stage arena (stable addresses,
    /// chunked allocation).
    StageRuntime* runtime = nullptr;
    /// Number of parent stages not yet finished.
    std::uint32_t unfinished_parents = 0;
    /// Slots on which the stage's tasks completed: the one record of where
    /// its output lives.  Child-stage submission reads it as the locality
    /// preference, and a slot failure as the outputs it lost.  Job-local,
    /// so teardown is proportional to the job, not to all jobs ever run.
    std::vector<SlotId> output_slots;
    /// The stage's entry in the active-stage index, or its end() while the
    /// stage is not active.
    ActiveIndex::iterator active_pos;
  };

  struct JobState {
    explicit JobState(JobGraph g) : graph(std::move(g)) {}
    JobGraph graph;
    SimTime finish_time = -1.0;
    std::uint32_t finished_stages = 0;
    std::uint32_t running_tasks = 0;
    std::vector<StageRecord> stages;  ///< by stage index
    bool done() const { return finished_stages == graph.num_stages(); }
    /// Running tasks per fair-share weight.  The division must stay a
    /// division (not a cached reciprocal multiply): the share's exact ULPs
    /// participate in tie-breaking, and digests are bit-exact.
    double fair_share() const {
      return static_cast<double>(running_tasks) / graph.spec().fair_weight;
    }
  };

  JobState& state(JobId job) { return jobs_.at(job.v); }
  const JobState& state(JobId job) const { return jobs_.at(job.v); }

  void arrive(JobId job);
  void submit_stage(JobId job, std::uint32_t stage_index);

  /// Draw base durations for a stage (explicit overrides win).
  std::vector<double> draw_durations(const StageSpec& spec);

  /// Offer one freed slot to pending task sets; at most one task starts.
  /// Walks the active-stage index in precedence order and starts the first
  /// stage that accepts the slot.  The locality-retry timers the walk arms
  /// on rejecting stages reproduce those of a scan over every active stage
  /// in activation order (see the definition).
  void offer_slot(SlotId slot);

  /// Let a stage greedily grab every available slot it can use.
  void place_stage_tasks(StageRuntime& stage);

  /// Append the ReservedIdle slots a PriorityOverride hook would approve for
  /// `job` at `priority` (foreign reservations of strictly lower priority),
  /// in ascending slot-id order, from the union of the priority buckets.
  void append_overridable_reserved(JobId job, int priority,
                                   std::vector<SlotId>& out);

  /// Can `stage` start its next pending task on `slot` right now?
  /// Checks approval and delay scheduling.  `slot` may be Idle or
  /// ReservedIdle; reservation override is part of approval.
  bool stage_accepts_slot(const StageRuntime& stage, SlotId slot) const;

  void start_attempt(StageRuntime& stage, TaskAttempt& attempt, SlotId slot);
  /// `epoch` is the attempt's epoch at scheduling time; a mismatch marks the
  /// event as stale (the attempt was failure-resurrected in between).
  void handle_completion(StageId stage_id, TaskId task, std::uint32_t epoch);
  void kill_attempt(StageRuntime& stage, TaskAttempt& attempt);
  void on_stage_complete(StageRuntime& stage);
  void finish_job(JobId job);

  // --- Failure handling helpers --------------------------------------------

  /// Drain and kill one slot; stages that gained pending tasks are appended
  /// to `to_place` (placement is deferred so a node failure drains every
  /// slot before any re-placement).
  void fail_slot_impl(SlotId slot, std::vector<StageRuntime*>& to_place);
  void recover_slot_impl(SlotId slot);
  /// Drop `slot` from every unfinished job's output slots, and resurrect
  /// the finished tasks whose outputs lived there while a child stage
  /// still needs them.
  void invalidate_outputs(SlotId slot, std::vector<StageRuntime*>& to_place);
  /// Re-insert a stage into the active-stage index if it is not there.
  void ensure_active(StageRuntime& stage);
  /// Offer pending work to the cluster for each distinct stage, in order.
  void place_after_failure(const std::vector<StageRuntime*>& to_place);

  // --- Active-stage index -------------------------------------------------

  void activate(StageRuntime& stage, JobState& js);
  /// Remove `stage` from the index; false if it was not there (an inner,
  /// re-entrant start_attempt already removed it).
  bool deactivate(StageRuntime& stage);
  /// Fair policy: re-key the active stages of `js` after its running_tasks
  /// moved.  No-op under Priority.
  void rekey_fair_share(JobState& js);

  /// Would arm_locality_retry schedule a timer for `stage` right now?
  bool locality_retry_armable(const StageRuntime& stage) const;
  void arm_locality_retry(StageRuntime& stage);
  /// Record `stage` in armable_ if it is armable (call wherever a stage may
  /// have become so: activation, its timer firing, a local launch).
  void note_armable(StageRuntime& stage);

  bool is_local(const StageRuntime& stage, SlotId slot) const;

  TaskFinishInfo make_finish_info(const StageRuntime& stage,
                                  const TaskAttempt& attempt) const;

  SchedConfig config_;
  Simulator sim_;
  Cluster cluster_;
  Rng rng_;

  /// Job records by raw job id; arena-backed so a JobState& held across a
  /// callback survives a submit() made inside it, without one heap object
  /// per job.
  Arena<JobState> jobs_;
  /// Stage runtimes in submission order, arena-backed for the same reason:
  /// attempt events, the active-stage index, and StageRecord::runtime hold
  /// raw StageRuntime pointers across the engine's lifetime.
  Arena<StageRuntime> stage_arena_;
  ActiveIndex active_ = ActiveIndex(Precedes{config_.policy});
  std::uint64_t activations_ = 0;
  /// Stages that may be armable (locality_retry_armable), pruned lazily at
  /// each offer.  Every armable stage is in it.  Usually empty.
  std::vector<StageRuntime*> armable_;

  /// Reusable buffers for place_stage_tasks (capacity persists across
  /// calls; moved out during use so any unexpected re-entry degrades to a
  /// fresh allocation instead of corruption): the candidate list, the idle
  /// snapshot that stands for group (3), and group (4)'s list.
  std::vector<SlotId> candidate_scratch_;
  SlotSet idle_scratch_;
  std::vector<SlotId> overridable_scratch_;
  /// Union of the overridable priority buckets (append_overridable_reserved).
  SlotSet lower_priority_scratch_;

  std::unique_ptr<ReservationHook> hook_;
  std::vector<EngineObserver*> observers_;
  bool started_ = false;  ///< the simulation has begun stepping
  bool drained_ = false;  ///< drain()/run() completed; the engine is closed
};

}  // namespace ssr
