#include "ssr/sched/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ssr/common/check.h"

namespace ssr {

bool ReservationHook::approve(const Engine& engine, SlotId slot, JobId job,
                              int priority) const {
  const Slot& s = engine.cluster().slot(slot);
  switch (s.state()) {
    case SlotState::Idle:
      return true;
    case SlotState::ReservedIdle: {
      // Algorithm 1, TryAllocateTask: skip unless the requester is the
      // reserving job itself or has a strictly higher priority.
      const Reservation& r = *s.reservation();
      return r.job == job || priority > r.priority;
    }
    case SlotState::Busy:
    case SlotState::Dead:
      return false;
  }
  return false;
}

bool NullReservationHook::approve(const Engine& engine, SlotId slot, JobId,
                                  int) const {
  return engine.cluster().slot(slot).state() == SlotState::Idle;
}

namespace {

void validate_sched_config(const SchedConfig& config) {
  SSR_CHECK_MSG(config.locality_wait >= 0.0, "locality wait must be >= 0");
  SSR_CHECK_MSG(config.locality_slowdown >= 1.0,
                "locality slowdown must be >= 1");
}

}  // namespace

Engine::Engine(SchedConfig config, std::uint32_t num_nodes,
               std::uint32_t slots_per_node, std::uint64_t seed)
    : config_(config),
      cluster_(num_nodes, slots_per_node),
      rng_(seed),
      hook_(std::make_unique<NullReservationHook>()) {
  validate_sched_config(config_);
}

Engine::Engine(SchedConfig config,
               const std::vector<std::vector<Resources>>& node_slots,
               std::uint64_t seed)
    : config_(config),
      cluster_(node_slots),
      rng_(seed),
      hook_(std::make_unique<NullReservationHook>()) {
  validate_sched_config(config_);
}

Engine::Engine(SchedConfig config, std::uint32_t num_nodes,
               std::uint32_t slots_per_node,
               const std::vector<std::vector<Resources>>& node_slots,
               std::uint64_t seed)
    : config_(config),
      cluster_(node_slots.empty() ? Cluster(num_nodes, slots_per_node)
                                  : Cluster(node_slots)),
      rng_(seed),
      hook_(std::make_unique<NullReservationHook>()) {
  SSR_CHECK_MSG(node_slots.empty() || node_slots.size() == num_nodes,
                "heterogeneous node_slots must cover every node");
  validate_sched_config(config_);
}

Engine::~Engine() = default;

JobId Engine::submit(JobSpec spec) {
  SSR_CHECK_MSG(!drained_, "submit() after drain(): the engine is closed");
  SSR_CHECK_MSG(spec.submit_time >= sim_.now(),
                "job submit time is in the simulated past");
  const JobId id{static_cast<std::uint32_t>(jobs_.size())};
  JobGraph graph(id, std::move(spec));
  const std::uint32_t n = graph.num_stages();
  // Reject jobs that could never run — before the arena records anything:
  // every stage needs at least one slot whose capacity covers its demand, or
  // the simulation would wedge.
  for (std::uint32_t i = 0; i < n; ++i) {
    SSR_CHECK_MSG(cluster_.fits_any_slot(graph.stage(i).demand),
                  "stage demand exceeds every slot capacity in the cluster");
  }
  // The fair share orders the active-stage index; a NaN share would break it.
  SSR_CHECK_MSG(config_.policy != SchedulingPolicy::Fair ||
                    graph.spec().fair_weight > 0.0,
                "fair weight must be positive");
  JobState& job = jobs_.emplace_back(std::move(graph));
  job.stages.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    job.stages[i].unfinished_parents =
        static_cast<std::uint32_t>(job.graph.stage(i).parents.size());
    job.stages[i].active_pos = active_.end();
  }

  const SimTime at = job.graph.submit_time();
  sim_.schedule_at(at, EventBand::kArrival, [this, id] { arrive(id); });
  return id;
}

JobId Engine::submit_job(JobSpec spec, SimTime at) {
  spec.submit_time = at;
  return submit(std::move(spec));
}

void Engine::set_reservation_hook(std::unique_ptr<ReservationHook> hook) {
  SSR_CHECK_MSG(!started_, "hook must be installed before the first step");
  SSR_CHECK_MSG(hook != nullptr, "hook must not be null");
  hook_ = std::move(hook);
}

void Engine::add_observer(EngineObserver* observer) {
  SSR_CHECK_MSG(observer != nullptr, "observer must not be null");
  observers_.push_back(observer);
}

void Engine::advance_to(SimTime t) {
  SSR_CHECK_MSG(!drained_, "advance_to() after drain(): the engine is closed");
  started_ = true;
  sim_.run_until(t);  // rejects a horizon in the past
}

bool Engine::all_jobs_finished() const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!jobs_[i].done()) return false;
  }
  return true;
}

void Engine::drain() {
  SSR_CHECK_MSG(!drained_, "drain()/run() may be called only once");
  started_ = true;
  // The engine closes only after quiescence: while the queue drains,
  // observers may still feed jobs back through submit() — the virtual-cluster
  // admission pump releases queued work from on_job_finished, and the run
  // loop naturally absorbs the new arrival events.
  sim_.run();
  drained_ = true;
  cluster_.settle(sim_.now());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& job = jobs_[i];
    SSR_CHECK_MSG(job.done(), "simulation wedged: "
                                  << job.graph.name() << " ("
                                  << job.graph.id() << ") has "
                                  << job.finished_stages << "/"
                                  << job.graph.num_stages()
                                  << " stages finished");
  }
  for (EngineObserver* o : observers_) o->on_run_complete(*this);
}

void Engine::run() { drain(); }

const JobGraph& Engine::graph(JobId job) const { return state(job).graph; }

bool Engine::job_finished(JobId job) const {
  return state(job).finish_time >= 0.0;
}

SimTime Engine::job_finish_time(JobId job) const {
  SSR_CHECK_MSG(job_finished(job), "job has not finished");
  return state(job).finish_time;
}

SimDuration Engine::jct(JobId job) const {
  return job_finish_time(job) - graph(job).submit_time();
}

std::uint32_t Engine::running_tasks_of(JobId job) const {
  return state(job).running_tasks;
}

StageRuntime* Engine::stage_runtime(StageId stage) {
  auto& job = state(stage.job);
  if (stage.index >= job.stages.size()) return nullptr;
  return job.stages[stage.index].runtime;
}

const StageRuntime* Engine::stage_runtime(StageId stage) const {
  const auto& job = state(stage.job);
  if (stage.index >= job.stages.size()) return nullptr;
  return job.stages[stage.index].runtime;
}

// --- Job lifecycle ----------------------------------------------------------

void Engine::arrive(JobId job) {
  for (EngineObserver* o : observers_) o->on_job_submitted(*this, job);
  for (std::uint32_t root : state(job).graph.roots()) {
    submit_stage(job, root);
  }
}

std::vector<double> Engine::draw_durations(const StageSpec& spec) {
  if (spec.explicit_durations) return *spec.explicit_durations;
  std::vector<double> out(spec.num_tasks);
  for (double& d : out) d = spec.duration->sample(rng_);
  return out;
}

void Engine::submit_stage(JobId job, std::uint32_t stage_index) {
  JobState& js = state(job);
  SSR_CHECK_MSG(js.stages[stage_index].runtime == nullptr,
                "stage submitted more than once");
  const StageId sid = js.graph.stage_id(stage_index);
  const StageSpec& spec = js.graph.stage(stage_index);

  StageRuntime& stage = stage_arena_.emplace_back(sid, spec, sim_.now(),
                                                  draw_durations(spec));
  js.stages[stage_index].runtime = &stage;

  // Data locality: downstream tasks prefer the slots that produced the
  // parents' outputs.
  std::vector<SlotId> preferred;
  for (std::uint32_t p : spec.parents) {
    const std::vector<SlotId>& outs = js.stages[p].output_slots;
    preferred.insert(preferred.end(), outs.begin(), outs.end());
  }
  stage.set_preferred_slots(std::move(preferred));

  activate(stage, js);
  // Observers before the hook: a hook that reserves here (e.g. a static
  // carve-out replenishing) can synchronously start this stage's tasks, and
  // the submission event must precede those starts in the observer stream.
  for (EngineObserver* o : observers_) o->on_stage_submitted(*this, sid);
  hook_->on_stage_submitted(*this, sid);

  place_stage_tasks(stage);
}

void Engine::on_stage_complete(StageRuntime& stage) {
  JobState& js = state(stage.id().job);
  ++js.finished_stages;
  for (EngineObserver* o : observers_) o->on_stage_finished(*this, stage.id());

  for (std::uint32_t child : js.graph.children(stage.id().index)) {
    // A child that already has a runtime was submitted before this
    // completion — possible only when the stage re-completes after a
    // failure invalidated it; the child's barrier cleared long ago and must
    // not be double-counted.  (In failure-free runs every child is
    // unsubmitted here, so this guard never fires.)
    StageRecord& record = js.stages[child];
    if (record.runtime != nullptr) continue;
    SSR_CHECK(record.unfinished_parents > 0);
    if (--record.unfinished_parents == 0) {
      submit_stage(stage.id().job, child);
    }
  }
  if (js.done()) finish_job(stage.id().job);
}

void Engine::finish_job(JobId job) {
  JobState& js = state(job);
  js.finish_time = sim_.now();
  hook_->on_job_finished(*this, job);  // releases the job's reservations
  for (StageRecord& record : js.stages) record.output_slots = {};
  for (EngineObserver* o : observers_) o->on_job_finished(*this, job);
}

// --- Offers -----------------------------------------------------------------

void Engine::activate(StageRuntime& stage, JobState& js) {
  // The selector score is sampled once, when the stage's task set becomes
  // active.  Selectors are pure functions of spec-level state (DAG shape,
  // expected durations, demand vectors), all fixed at submission, so caching
  // is exact — and keeps the precedence compare free of virtual calls.
  const double score =
      config_.selector != nullptr
          ? config_.selector->stage_score(*this, stage.id())
          : 0.0;
  SSR_CHECK_MSG(!std::isnan(score), "stage_score returned NaN");
  js.stages[stage.id().index].active_pos =
      active_
          .insert(ActiveStage{&stage, score, js.graph.priority(),
                              js.fair_share(), js.graph.submit_time(),
                              stage.id().job.v, stage.id().index,
                              activations_++})
          .first;
  note_armable(stage);
}

bool Engine::deactivate(StageRuntime& stage) {
  auto& pos = state(stage.id().job).stages[stage.id().index].active_pos;
  if (pos == active_.end()) return false;
  active_.erase(pos);
  pos = active_.end();
  return true;
}

void Engine::rekey_fair_share(JobState& js) {
  if (config_.policy != SchedulingPolicy::Fair) return;
  for (StageRecord& record : js.stages) {
    if (record.active_pos == active_.end()) continue;
    auto node = active_.extract(record.active_pos);
    node.value().fair_share = js.fair_share();
    record.active_pos = active_.insert(std::move(node)).position;
  }
}

bool Engine::Precedes::operator()(const ActiveStage& a,
                                  const ActiveStage& b) const {
  // Selector scores outrank the built-in policy; with no selector installed
  // every score is the same 0.0 and this comparison vanishes, keeping the
  // default ordering byte-identical to the pre-selector engine.
  if (a.policy_score != b.policy_score) {
    return a.policy_score > b.policy_score;
  }
  if (policy == SchedulingPolicy::Fair) {
    if (a.fair_share != b.fair_share) return a.fair_share < b.fair_share;
  } else {
    if (a.priority != b.priority) return a.priority > b.priority;
  }
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  if (a.job_raw != b.job_raw) return a.job_raw < b.job_raw;
  return a.stage_index < b.stage_index;
}

bool Engine::stage_accepts_slot(const StageRuntime& stage, SlotId slot) const {
  const JobId job = stage.id().job;
  // Resource fit (Sec. III-C): the slot's capacity must cover the stage's
  // per-task demand.  Homogeneous setups pass trivially ({1,1} in {1,1}).
  if (!stage.spec().demand.fits_in(cluster_.slot(slot).capacity())) {
    return false;
  }
  if (!hook_->approve(*this, slot, job, state(job).graph.priority())) {
    return false;
  }
  if (stage.is_preferred(slot)) return true;
  // Non-preferred slots — including the job's own *pre-reserved* ones, which
  // hold no parent data — are subject to delay scheduling: a guaranteed
  // remote slot is an option to exercise once the locality wait expires, not
  // a reason to pay the remote penalty early.
  return stage.accepts_any_slot(sim_.now(), config_.locality_wait);
}

void Engine::offer_slot(SlotId slot) {
  const SlotState st = cluster_.slot(slot).state();
  if (st == SlotState::Busy || st == SlotState::Dead) return;
  // Walk the index in precedence order: the first stage that accepts the
  // slot wins, usually a few entries in.  Arming schedules an event whose
  // sequence number orders same-instant events, so it must match the
  // activation-ordered linear scan the goldens were recorded with: a
  // rejecting stage is armed iff it precedes every accepting stage
  // activated before it, and stages are armed in activation order
  // (DESIGN.md §8).  Only armable stages qualify, so the walk goes past the
  // winner only while armable stages remain below it.
  std::erase_if(armable_, [this](const StageRuntime* stage) {
    return !locality_retry_armable(*stage);
  });
  std::size_t armable_left = armable_.size();
  const ActiveStage* best = nullptr;
  // Earliest activation among the accepting stages walked so far, which are
  // exactly those preceding the current one.
  std::uint64_t first_accepting = std::numeric_limits<std::uint64_t>::max();
  std::vector<const ActiveStage*> to_arm;
  for (const ActiveStage& active : active_) {
    if (best != nullptr && armable_left == 0) break;
    StageRuntime& stage = *active.runtime;
    // A stage fully placed by a re-entrant start stays indexed until the
    // outer start_attempt returns.
    if (stage.all_placed()) continue;
    const bool armable = armable_left > 0 && locality_retry_armable(stage);
    armable_left -= armable ? 1 : 0;
    if (stage_accepts_slot(stage, slot)) {
      if (best == nullptr) best = &active;
      first_accepting = std::min(first_accepting, active.activation);
    } else if (armable && active.activation < first_accepting) {
      to_arm.push_back(&active);
    }
  }
  std::sort(to_arm.begin(), to_arm.end(),
            [](const ActiveStage* a, const ActiveStage* b) {
              return a->activation < b->activation;
            });
  for (const ActiveStage* active : to_arm) {
    arm_locality_retry(*active->runtime);
  }
  if (best != nullptr) {
    StageRuntime& stage = *best->runtime;
    const std::uint32_t index = *stage.peek_pending();
    stage.take_pending(index);
    start_attempt(stage, stage.mutable_original(index), slot);
  }
}

void Engine::append_overridable_reserved(JobId job, int priority,
                                         std::vector<SlotId>& out) {
  // Word-wise union of the priority buckets strictly below the requester's
  // priority; its id order is that of one full scan over the reserved set
  // restricted to the slots a PriorityOverride approve() would accept.  The
  // buckets number the distinct reservation priorities ever used — a
  // handful.
  SlotSet& lower = lower_priority_scratch_;
  bool any = false;
  const auto& buckets = cluster_.reserved_idle_by_priority();
  for (auto it = buckets.begin(); it != buckets.end() && it->first < priority;
       ++it) {
    if (it->second.empty()) continue;
    if (any) {
      lower |= it->second;
    } else {
      lower = it->second;
      any = true;
    }
  }
  if (!any) return;
  for (SlotId s : lower) {
    // Own-job reservations normally carry the job's own priority and never
    // land in a lower bucket, but a hook is free to tag them differently;
    // they belong to candidate group (1), not here.
    if (cluster_.slot(s).reservation()->job != job) out.push_back(s);
  }
}

void Engine::place_stage_tasks(StageRuntime& stage) {
  if (stage.all_placed()) return;
  const JobId job = stage.id().job;
  const ReservedApprovalModel model = hook_->reserved_approval_model();
  const bool ranked = config_.selector != nullptr;

  // Candidate slots in preference order: (1) slots reserved for this job —
  // downstream computations reclaim their reservations first; (2) idle slots
  // holding parent outputs; (3) any other idle slot; (4) lower-priority
  // reservations (override).  Duplicates are harmless: a consumed slot fails
  // the availability re-check.  Groups (1) and (2) go into `candidates`.
  // Without a selector, the indexed path keeps group (3) as a snapshot of
  // the idle set's words and group (4) as a second list, both taken here,
  // and visits them after `candidates`: the loop stops once the stage is
  // placed, so it never lists every idle slot to place a few tasks.  The
  // buffers' capacity is recycled across calls; they are moved out during
  // use so a re-entrant call degrades to a fresh allocation instead of
  // corruption.
  std::vector<SlotId> candidates = std::move(candidate_scratch_);
  candidates.clear();
  SlotSet idle = std::move(idle_scratch_);
  bool scan_idle = false;
  std::vector<SlotId> overridable = std::move(overridable_scratch_);
  overridable.clear();
  if (model == ReservedApprovalModel::Custom) {
    // Reference enumeration: full id-ordered scans over the cluster's free
    // sets.  Hooks with unknown approval semantics get this path, and the
    // differential test suite forces it (via ReferenceSelector) to prove the
    // indexed enumeration below makes the same decisions.
    for (SlotId s : cluster_.reserved_idle_slots()) {
      if (cluster_.slot(s).reservation()->job == job) candidates.push_back(s);
    }
    for (SlotId s : cluster_.idle_slots()) {
      if (stage.is_preferred(s)) candidates.push_back(s);
    }
    for (SlotId s : cluster_.idle_slots()) {
      if (!stage.is_preferred(s)) candidates.push_back(s);
    }
    for (SlotId s : cluster_.reserved_idle_slots()) {
      if (cluster_.slot(s).reservation()->job != job) candidates.push_back(s);
    }
  } else {
    // Indexed enumeration.  Each group comes from an incrementally
    // maintained id-ordered index yielding exactly the slots, in exactly the
    // order, the reference scan above visits with the same filter.  Group
    // (4) additionally pre-applies the hook's declared approval rule, and a
    // delay-blocked stage skips group (3) outright; both prunings drop only
    // slots the per-candidate checks would reject, which is sound because
    // acceptance is monotone over the placement loop: slots only leave
    // availability (Idle/ReservedIdle -> Busy; no release or re-reservation
    // of a reserved slot can occur while no simulated time passes), and the
    // delay-scheduling relax time only moves later, so a slot rejectable at
    // snapshot time can never become acceptable mid-loop.
    const auto& own = cluster_.reserved_idle_slots_of(job);
    candidates.assign(own.begin(), own.end());
    for (SlotId s : stage.preferred_slots()) {
      if (cluster_.slot(s).state() == SlotState::Idle) candidates.push_back(s);
    }
    if (stage.accepts_any_slot(sim_.now(), config_.locality_wait)) {
      if (ranked) {
        for (SlotId s : cluster_.idle_slots()) {
          if (!stage.is_preferred(s)) candidates.push_back(s);
        }
      } else {
        idle = cluster_.idle_slots();
        scan_idle = true;
      }
    }
    if (model == ReservedApprovalModel::PriorityOverride) {
      append_overridable_reserved(job, state(job).graph.priority(),
                                  ranked ? candidates : overridable);
    }
    // NeverApprove: approve() rejects every reserved slot; nothing to add.
  }

  // Slot-ranking seam (DESIGN.md §14): a selector may permute the candidate
  // list (e.g. best-fit packing) before the placement loop.  Sound for the
  // same reason the indexed pruning above is: the loop's per-slot checks are
  // unchanged and acceptance is monotone, so reordering changes *which*
  // acceptable slots the earliest pending tasks land on, never whether a
  // slot is acceptable.  Both the reference and indexed enumerations pass
  // through here, so the differential suite covers ranked placement too.
  if (ranked) config_.selector->rank_slots(*this, stage.id(), candidates);

  // The snapshots hold exactly the slots, in exactly the order, that the
  // materialized list would, so the loop makes the same starts (DESIGN.md
  // §8).
  const auto place = [&](SlotId slot) {
    if (cluster_.slot(slot).state() == SlotState::Busy) return;
    if (!stage_accepts_slot(stage, slot)) return;
    const std::uint32_t index = *stage.peek_pending();
    stage.take_pending(index);
    start_attempt(stage, stage.mutable_original(index), slot);
  };
  for (SlotId slot : candidates) {
    if (stage.all_placed()) break;
    place(slot);
  }
  if (scan_idle) {
    for (SlotId slot : idle) {
      if (stage.all_placed()) break;
      if (!stage.is_preferred(slot)) place(slot);
    }
  }
  for (SlotId slot : overridable) {
    if (stage.all_placed()) break;
    place(slot);
  }
  candidate_scratch_ = std::move(candidates);
  idle_scratch_ = std::move(idle);
  overridable_scratch_ = std::move(overridable);
  arm_locality_retry(stage);
}

bool Engine::locality_retry_armable(const StageRuntime& stage) const {
  // A stage with no preferred slot accepts any slot, and one whose relax
  // time has passed already does.
  return !stage.all_placed() && !stage.retry_timer_armed() &&
         !stage.preferred_slots().empty() &&
         stage.locality_relax_time(config_.locality_wait) > sim_.now();
}

void Engine::arm_locality_retry(StageRuntime& stage) {
  if (!locality_retry_armable(stage)) return;
  stage.set_retry_timer_armed(true);
  sim_.schedule_at(stage.locality_relax_time(config_.locality_wait),
                   [this, sid = stage.id()] {
    StageRuntime* st = stage_runtime(sid);
    if (st == nullptr) return;
    st->set_retry_timer_armed(false);
    note_armable(*st);
    if (!st->all_placed()) place_stage_tasks(*st);
  });
}

void Engine::note_armable(StageRuntime& stage) {
  if (locality_retry_armable(stage) &&
      std::find(armable_.begin(), armable_.end(), &stage) == armable_.end()) {
    armable_.push_back(&stage);
  }
}

// --- Task execution ----------------------------------------------------------

bool Engine::is_local(const StageRuntime& stage, SlotId slot) const {
  if (stage.preferred_slots().empty()) return true;
  return stage.is_preferred(slot);
}

void Engine::start_attempt(StageRuntime& stage, TaskAttempt& attempt,
                           SlotId slot) {
  JobState& js = state(stage.id().job);
  // Straggler copies always run warm: the reserved slot executed this very
  // phase moments ago (Sec. IV-C — no JVM warm-up, data already local).
  const bool local = attempt.id.attempt > 0 || is_local(stage, slot);
  const double runtime =
      attempt.base_duration * (local ? 1.0 : config_.locality_slowdown) +
      config_.task_overhead;

  cluster_.start_task(slot, attempt.id, sim_.now());
  stage.mark_running(attempt, slot, sim_.now(), local);
  ++js.running_tasks;
  rekey_fair_share(js);
  // A local launch moves the relax time later, which can make the stage
  // armable again.
  if (local) note_armable(stage);

  // Passive observers see the event stream in cluster-transition order, so
  // they are notified before the hook, whose handler may itself transition
  // slots (reserve, release) and emit further observer events.
  for (EngineObserver* o : observers_) o->on_task_started(*this, attempt.id, slot);
  hook_->on_task_started(*this, attempt.id, slot);

  sim_.schedule_after(runtime, [this, sid = stage.id(), tid = attempt.id,
                                epoch = attempt.epoch] {
    handle_completion(sid, tid, epoch);
  });

  // Copies never change the pending queue; only the placement of the last
  // original flips the stage to fully-placed.  The hook hears it once, from
  // whichever start removes the stage: the hook call above may have
  // re-entered placement and placed the stage's last task already.
  if (attempt.id.attempt == 0 && stage.all_placed() && deactivate(stage)) {
    hook_->on_stage_fully_placed(*this, stage.id());
  }
}

TaskFinishInfo Engine::make_finish_info(const StageRuntime& stage,
                                        const TaskAttempt& attempt) const {
  TaskFinishInfo info;
  info.task = attempt.id;
  info.slot = attempt.slot;
  info.stage_parallelism = stage.parallelism();
  info.stage_finished = stage.finished_count();
  info.duration = attempt.finish_time - attempt.start_time;
  return info;
}

void Engine::handle_completion(StageId stage_id, TaskId task,
                               std::uint32_t epoch) {
  StageRuntime* stage = stage_runtime(stage_id);
  SSR_CHECK_MSG(stage != nullptr, "completion for unknown stage");
  TaskAttempt* attempt = stage->find_attempt(task);
  SSR_CHECK_MSG(attempt != nullptr, "completion for unknown attempt");
  if (attempt->state != AttemptState::Running || attempt->epoch != epoch) {
    // Stale event: the attempt lost a copy race and was killed, or it died
    // with its slot and was resurrected (the epoch mismatch keeps an event
    // from the pre-failure run from completing the re-run).
    return;
  }

  JobState& js = state(stage_id.job);
  stage->mark_finished(*attempt, sim_.now());
  --js.running_tasks;
  rekey_fair_share(js);
  cluster_.end_task(attempt->slot, sim_.now());
  js.stages[stage_id.index].output_slots.push_back(attempt->slot);
  // Observers must see the finish before the twin kill and before the hook
  // (which may immediately reserve the freed slot) — same ordering rule as
  // in start_attempt.
  for (EngineObserver* o : observers_) {
    o->on_task_finished(*this, task, attempt->slot);
  }

  // First finisher wins the race (Sec. IV-C): kill the twin attempt.
  TaskAttempt* twin = nullptr;
  if (task.attempt == 0) {
    twin = stage->running_copy(task.index);
  } else {
    TaskAttempt& original = stage->mutable_original(task.index);
    if (original.state == AttemptState::Running) twin = &original;
  }
  if (twin != nullptr) kill_attempt(*stage, *twin);

  hook_->on_task_finished(*this, make_finish_info(*stage, *attempt));

  if (stage->complete()) on_stage_complete(*stage);

  if (cluster_.slot(attempt->slot).state() == SlotState::Idle) {
    offer_slot(attempt->slot);
  }
}

void Engine::kill_attempt(StageRuntime& stage, TaskAttempt& attempt) {
  JobState& js = state(stage.id().job);
  cluster_.end_task(attempt.slot, sim_.now());
  stage.mark_killed(attempt, sim_.now());
  --js.running_tasks;
  rekey_fair_share(js);
  for (EngineObserver* o : observers_) {
    o->on_task_killed(*this, attempt.id, attempt.slot);
  }
  hook_->on_task_killed(*this, make_finish_info(stage, attempt));
  if (cluster_.slot(attempt.slot).state() == SlotState::Idle) {
    offer_slot(attempt.slot);
  }
}

// --- Reservation operations ---------------------------------------------------

void Engine::reserve_slot(SlotId slot, Reservation reservation) {
  const SimTime deadline = reservation.deadline;
  reservation.token = cluster_.reserve(slot, reservation, sim_.now());
  const std::uint64_t token = reservation.token;
  for (EngineObserver* o : observers_) {
    o->on_slot_reserved(*this, slot, reservation);
  }
  if (deadline < kTimeInfinity) {
    sim_.schedule_at(deadline, EventBand::kInternal, [this, slot, token] {
      if (cluster_.release_if_current(slot, token, sim_.now())) {
        for (EngineObserver* o : observers_) {
          o->on_reservation_released(*this, slot,
                                     ReservationEndReason::Expired);
        }
        hook_->on_slot_idle(*this, slot);
        if (cluster_.slot(slot).state() == SlotState::Idle) offer_slot(slot);
      }
    });
  }
  // A freshly reserved slot can still serve strictly higher-priority work.
  offer_slot(slot);
}

void Engine::release_reservation(SlotId slot) {
  cluster_.release_reservation(slot, sim_.now());
  for (EngineObserver* o : observers_) {
    o->on_reservation_released(*this, slot, ReservationEndReason::Released);
  }
  hook_->on_slot_idle(*this, slot);
  if (cluster_.slot(slot).state() == SlotState::Idle) offer_slot(slot);
}

bool Engine::launch_copy(StageId stage_id, std::uint32_t task_index,
                         SlotId slot) {
  StageRuntime* stage = stage_runtime(stage_id);
  if (stage == nullptr) return false;
  const Slot& s = cluster_.slot(slot);
  if (s.state() != SlotState::ReservedIdle ||
      s.reservation()->job != stage_id.job) {
    return false;
  }
  if (stage->task_done(task_index)) return false;
  if (stage->original(task_index).state != AttemptState::Running) return false;
  if (stage->has_live_copy(task_index)) return false;
  if (!stage->spec().demand.fits_in(s.capacity())) return false;

  const double duration = stage->spec().duration->sample(rng_);
  TaskAttempt& copy = stage->add_copy(task_index, duration);
  start_attempt(*stage, copy, slot);
  return true;
}

// --- Failure handling ---------------------------------------------------------

void Engine::fail_node(NodeId node) {
  // Drain every slot first, place displaced work once at the end: re-placing
  // after each slot would let a task land on a sibling slot that is about to
  // die in the same node failure.
  std::vector<StageRuntime*> to_place;
  for (SlotId slot : cluster_.slots_of_node(node)) {
    fail_slot_impl(slot, to_place);
  }
  place_after_failure(to_place);
}

void Engine::recover_node(NodeId node) {
  for (SlotId slot : cluster_.slots_of_node(node)) {
    recover_slot_impl(slot);
  }
}

void Engine::fail_slot(SlotId slot) {
  std::vector<StageRuntime*> to_place;
  fail_slot_impl(slot, to_place);
  place_after_failure(to_place);
}

void Engine::recover_slot(SlotId slot) { recover_slot_impl(slot); }

void Engine::fail_slot_impl(SlotId slot, std::vector<StageRuntime*>& to_place) {
  const Slot& s = cluster_.slot(slot);
  if (s.state() == SlotState::Dead) return;  // overlapping failure windows

  if (s.state() == SlotState::Busy) {
    const TaskId tid = *s.running_task();
    StageRuntime* stage = stage_runtime(tid.stage);
    SSR_CHECK_MSG(stage != nullptr, "busy slot with unknown stage");
    TaskAttempt* attempt = stage->find_attempt(tid);
    SSR_CHECK_MSG(attempt != nullptr && attempt->state == AttemptState::Running,
                  "busy slot without a running attempt");
    JobState& js = state(tid.stage.job);
    cluster_.end_task(slot, sim_.now());
    stage->mark_killed(*attempt, sim_.now());
    --js.running_tasks;
    rekey_fair_share(js);
    for (EngineObserver* o : observers_) o->on_task_failed(*this, tid, slot);
    // No hook on_task_killed here: that callback exists so policies re-reserve
    // the warm slot a race loser vacated, and this slot is dying.
    if (!stage->task_done(tid.index)) {
      // A live twin elsewhere masks the failure: the surviving attempt keeps
      // running and will finish the logical task.
      bool masked = false;
      bool already_queued = false;
      if (tid.attempt == 0) {
        masked = stage->running_copy(tid.index) != nullptr;
      } else {
        const AttemptState os = stage->original(tid.index).state;
        masked = os == AttemptState::Running;
        // Pending: the original was already resurrected (e.g. it died on a
        // sibling slot earlier in this same node failure).
        already_queued = os == AttemptState::Pending;
      }
      if (!masked && !already_queued) {
        stage->resurrect(tid.index);
        for (EngineObserver* o : observers_) o->on_task_requeued(*this, tid);
        ensure_active(*stage);
        to_place.push_back(stage);
      }
    }
  } else if (s.state() == SlotState::ReservedIdle) {
    cluster_.release_reservation(slot, sim_.now());
    for (EngineObserver* o : observers_) {
      o->on_reservation_released(*this, slot, ReservationEndReason::SlotFailed);
    }
    // No hook on_slot_idle: that path counts as a reservation expiry and may
    // re-reserve, and the slot is dying.  The hook reconciles its bookkeeping
    // in on_slot_failed below instead.
  }

  cluster_.fail_slot(slot, sim_.now());
  for (EngineObserver* o : observers_) o->on_slot_failed(*this, slot);
  // After the transition: the slot is Dead, so a buggy hook that tries to
  // reserve it fails a cluster state check instead of corrupting the run.
  hook_->on_slot_failed(*this, slot);

  invalidate_outputs(slot, to_place);
}

void Engine::invalidate_outputs(SlotId slot,
                                std::vector<StageRuntime*>& to_place) {
  // Visit every stage whose output lived on the slot, in ascending (job,
  // stage) order.  Finished jobs are skipped: nobody reads their data, and
  // finish_job already cleared their output slots.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    JobState& js = jobs_[j];
    if (js.finish_time >= 0.0) continue;
    for (std::uint32_t index = 0; index < js.stages.size(); ++index) {
      // The locality index forgets the dead slot whether or not a re-run is
      // needed — child stages must stop preferring it.
      if (std::erase(js.stages[index].output_slots, slot) == 0) continue;
      StageRuntime* stage = js.stages[index].runtime;
      SSR_CHECK_MSG(stage != nullptr, "output slots of an unsubmitted stage");
      // Re-run lost producers only while some dependent stage still needs
      // the data: a child not yet submitted, or submitted but not complete.
      bool needed = false;
      for (std::uint32_t child : js.graph.children(index)) {
        const StageRuntime* c = js.stages[child].runtime;
        if (c == nullptr || !c->complete()) {
          needed = true;
          break;
        }
      }
      if (!needed) continue;

      std::vector<std::uint32_t> lost;
      for (std::uint32_t i = 0; i < stage->parallelism(); ++i) {
        const TaskAttempt* fin = stage->finished_attempt(i);
        if (fin != nullptr && fin->slot == slot) lost.push_back(i);
      }
      if (lost.empty()) continue;

      const bool was_complete = stage->complete();
      for (std::uint32_t i : lost) {
        const TaskId winner = stage->finished_attempt(i)->id;
        stage->resurrect(i);
        for (EngineObserver* o : observers_) o->on_task_requeued(*this, winner);
      }
      if (was_complete) {
        // Roll back the stage's barrier contribution; on_stage_complete will
        // fire again when the re-runs finish.  Children already submitted
        // keep their cleared barrier (they re-read the re-produced outputs
        // for free in this model) — only unsubmitted ones wait again.
        --js.finished_stages;
        for (std::uint32_t child : js.graph.children(index)) {
          StageRecord& record = js.stages[child];
          if (record.runtime == nullptr) ++record.unfinished_parents;
        }
        for (EngineObserver* o : observers_) {
          o->on_stage_invalidated(*this, stage->id());
        }
      }
      ensure_active(*stage);
      to_place.push_back(stage);
    }
  }
}

void Engine::ensure_active(StageRuntime& stage) {
  JobState& js = state(stage.id().job);
  if (js.stages[stage.id().index].active_pos == active_.end()) {
    activate(stage, js);
  }
}

void Engine::place_after_failure(const std::vector<StageRuntime*>& to_place) {
  std::vector<StageRuntime*> seen;
  for (StageRuntime* stage : to_place) {
    if (std::find(seen.begin(), seen.end(), stage) != seen.end()) continue;
    seen.push_back(stage);
    if (!stage->all_placed()) place_stage_tasks(*stage);
  }
}

void Engine::recover_slot_impl(SlotId slot) {
  if (cluster_.slot(slot).state() != SlotState::Dead) return;  // idempotent
  cluster_.recover_slot(slot, sim_.now());
  for (EngineObserver* o : observers_) o->on_slot_recovered(*this, slot);
  // A recovered slot is an ordinary fresh idle slot: give pre-reservation its
  // usual chance, then offer it to pending task sets.
  hook_->on_slot_idle(*this, slot);
  if (cluster_.slot(slot).state() == SlotState::Idle) offer_slot(slot);
}

}  // namespace ssr
