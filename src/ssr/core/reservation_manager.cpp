#include "ssr/core/reservation_manager.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ssr/analysis/pareto.h"
#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

ReservationManager::ReservationManager(SsrConfig config) : config_(config) {
  SSR_CHECK_MSG(config_.isolation_p > 0.0 && config_.isolation_p <= 1.0,
                "isolation P must lie in (0, 1]");
  SSR_CHECK_MSG(config_.pareto_alpha > 1.0, "pareto alpha must exceed 1");
  SSR_CHECK_MSG(
      config_.prereserve_threshold >= 0.0 && config_.prereserve_threshold <= 1.0,
      "pre-reservation threshold R must lie in [0, 1]");
  SSR_CHECK_MSG(config_.tail_fraction > 0.0 && config_.tail_fraction < 1.0,
                "Hill tail fraction must lie in (0, 1)");
  SSR_CHECK_MSG(config_.tail_min_samples >= 10,
                "tail learning needs at least 10 samples");
}

bool ReservationManager::eligible(const Engine& engine, JobId job) const {
  return engine.graph(job).priority() >= config_.min_reserving_priority;
}

std::size_t ReservationManager::reserved_count(JobId job) const {
  return static_cast<std::size_t>(
      std::count_if(reserved_.begin(), reserved_.end(),
                    [job](const SlotRecord& rec) {
                      return rec.live && rec.from_stage.job == job;
                    }));
}

void ReservationManager::check_bookkeeping(const Engine& engine) const {
  const Cluster& cluster = engine.cluster();
  // Records against the cluster: each job's recorded slots are exactly its
  // reserved-idle index, the only per-job index the manager reads.
  std::map<JobId, std::vector<SlotId>> recorded;
  std::map<StageId, std::uint32_t> recount;
  for (std::uint32_t v = 0; v < reserved_.size(); ++v) {
    const SlotRecord& rec = reserved_[v];
    if (!rec.live) continue;
    const Slot& s = cluster.slot(SlotId{v});
    SSR_CHECK_MSG(s.state() == SlotState::ReservedIdle &&
                      s.reservation()->job == rec.from_stage.job,
                  "slot" << v << " recorded for " << rec.from_stage
                         << " is not reserved for its job");
    recorded[rec.from_stage.job].push_back(SlotId{v});
    ++recount[rec.from_stage];
  }
  SSR_CHECK_OP(live_records_, ==, cluster.reserved_idle_slots().size());
  std::set<JobId> jobs;
  for (const auto& [job, slots] : recorded) jobs.insert(job);
  for (SlotId s : cluster.reserved_idle_slots()) {
    jobs.insert(cluster.slot(s).reservation()->job);
  }
  for (JobId job : jobs) {
    const std::vector<SlotId>& index = cluster.reserved_idle_slots_of(job);
    SSR_CHECK_MSG(std::ranges::equal(recorded[job], index),
                  job << " holds " << index.size() << " reserved slots, "
                      << recorded[job].size() << " recorded");
  }

  for (const auto& [sid, ss] : stages_) {
    const auto n = recount.find(sid);
    const std::uint32_t recounted = n == recount.end() ? 0 : n->second;
    SSR_CHECK_OP(ss.reserved, ==, recounted);
    SSR_CHECK_MSG((ss.prereserving && ss.prereserve_needed > 0) ==
                      demand_.contains(sid),
                  sid << " demand set out of step");
  }
  for (StageId sid : demand_) {
    SSR_CHECK_MSG(stages_.contains(sid), sid << " in demand set, untracked");
  }

  // The mitigation pre-test reads running_originals() for the ongoing
  // tasks; that holds only while no done task keeps a running original.
  for (auto it = stages_.begin(); it != stages_.end();) {
    const JobId job = it->first.job;
    const JobGraph& graph = engine.graph(job);
    for (std::uint32_t i = 0; i < graph.num_stages(); ++i) {
      const StageRuntime* st = engine.stage_runtime(graph.stage_id(i));
      if (st == nullptr || st->complete()) continue;
      SSR_CHECK_OP(st->running_task_indices().size(), ==,
                   std::size_t{st->running_originals()});
    }
    it = stages_.lower_bound(StageId{JobId{job.v + 1}, 0});
  }
}

// --- Tail-index learning (Sec. III-B, recurring jobs) -------------------------

void ReservationManager::record_duration(const Engine& engine,
                                         const TaskFinishInfo& info) {
  if (!config_.learn_tail_index) return;
  if (info.duration <= 0.0) return;
  auto& samples = durations_by_name_[engine.job_name(info.task.stage.job)];
  // Cap the history: the Hill estimator only needs the recent tail, and the
  // map must not grow without bound across thousands of recurrences.
  constexpr std::size_t kMaxSamples = 20000;
  if (samples.size() < kMaxSamples) samples.push_back(info.duration);
}

std::optional<double> ReservationManager::learned_alpha(
    const std::string& job_name) const {
  if (!config_.learn_tail_index) return std::nullopt;
  auto it = durations_by_name_.find(job_name);
  if (it == durations_by_name_.end() ||
      it->second.size() < config_.tail_min_samples) {
    return std::nullopt;
  }
  const auto k = static_cast<std::size_t>(
      static_cast<double>(it->second.size()) * config_.tail_fraction);
  if (k < 1 || k >= it->second.size()) return std::nullopt;
  return hill_tail_index(it->second, k);
}

double ReservationManager::alpha_for(const Engine& engine, JobId job) const {
  const auto learned = learned_alpha(engine.job_name(job));
  // Guard against degenerate estimates: the deadline formula needs
  // alpha > 1, and near-1 values produce absurd deadlines.
  if (learned && *learned > 1.05) return *learned;
  return config_.pareto_alpha;
}

// --- Deadline policy (Sec. IV-B) --------------------------------------------

std::optional<SimTime> ReservationManager::stage_deadline(Engine& engine,
                                                          StageId stage) {
  StageState& ss = stages_[stage];
  if (!ss.deadline) {
    if (config_.isolation_p >= 1.0) {
      ss.deadline = kTimeInfinity;
    } else {
      const StageRuntime* st = engine.stage_runtime(stage);
      SSR_CHECK_MSG(st != nullptr && st->first_finish_duration().has_value(),
                    "deadline computed before any task finished");
      // t_m is approximated by the duration of the first task to finish in
      // the phase (Sec. IV-B.2); the deadline is anchored at phase start.
      // alpha is the operator's configured estimate, or the per-name Hill
      // estimate for recurring jobs with enough history.
      const ParetoModel model{alpha_for(engine, stage.job),
                              *st->first_finish_duration()};
      const SimDuration d = deadline_for_isolation(model, config_.isolation_p,
                                                   st->parallelism());
      ss.deadline = st->submitted_at() + d;
    }
  }
  if (*ss.deadline != kTimeInfinity && *ss.deadline <= engine.sim().now()) {
    return std::nullopt;  // reservation would expire immediately
  }
  return ss.deadline;
}

// --- Algorithm 1 --------------------------------------------------------------

void ReservationManager::reserve(Engine& engine, SlotId slot,
                                 StageId from_stage, StageId for_stage,
                                 SimTime deadline, bool prereserved) {
  const JobId job = from_stage.job;
  Reservation r;
  r.job = job;
  r.priority = engine.graph(job).priority();
  r.deadline = deadline;
  r.for_stage = for_stage;
  // Record before engine.reserve_slot: the reservation can be overridden by
  // a higher-priority task in the very same call, which lands in
  // on_task_started and must find the record.
  if (reserved_.empty()) reserved_.resize(engine.cluster().num_slots());
  reserved_[slot.v] = SlotRecord{from_stage, for_stage, prereserved, true};
  ++live_records_;
  ++stages_[from_stage].reserved;
  engine.reserve_slot(slot, r);
}

std::optional<ReservationManager::SlotRecord> ReservationManager::take_record(
    SlotId slot) {
  if (live_record(slot) == nullptr) return std::nullopt;
  SlotRecord& rec = reserved_[slot.v];
  rec.live = false;
  --live_records_;
  // The phase's state is gone only for a record made while its job was
  // being torn down (on_job_finished's releases can re-reserve).
  auto ss = stages_.find(rec.from_stage);
  if (ss != stages_.end()) --ss->second.reserved;
  return rec;
}

void ReservationManager::note_demand(StageId sid, const StageState& ss) {
  if (ss.prereserving && ss.prereserve_needed > 0) {
    demand_.insert(sid);
  } else {
    demand_.erase(sid);
  }
}

void ReservationManager::handle_phase_slot(Engine& engine,
                                           const TaskFinishInfo& info) {
  const StageId sid = info.task.stage;
  const JobId job = sid.job;
  if (!eligible(engine, job)) return;
  // The slot can already be gone: when a straggler race resolves, the killed
  // twin's hook may pre-reserve the winner's (momentarily idle) slot before
  // the winner's own completion hook runs.  Nothing left to reserve then.
  if (engine.cluster().slot(info.slot).state() != SlotState::Idle) return;
  const JobGraph& graph = engine.graph(job);
  if (graph.is_final_stage(sid.index)) {
    return;  // Algorithm 1 line 3: release the slot
  }

  const auto deadline = stage_deadline(engine, sid);
  if (!deadline) return;  // deadline already passed — reserving is pointless

  const std::uint32_t m = info.stage_parallelism;
  const std::optional<std::uint32_t> n =
      graph.downstream_parallelism(sid.index);
  const std::uint32_t child_index = *graph.first_child(sid.index);
  const StageId for_stage = graph.stage_id(child_index);

  // Changing resource demands across phases (Sec. III-C): if this slot is
  // too small for a downstream task, release it immediately and pre-reserve
  // right-sized slots instead.  try_prereserve only matches fitting slots.
  const Resources& child_demand = graph.stage(child_index).demand;
  if (!child_demand.fits_in(engine.cluster().slot(info.slot).capacity())) {
    if (config_.enable_prereservation) {
      StageState& ss = stages_[sid];
      if (!ss.prereserving) {
        // The whole downstream phase needs right-sized slots.  A mixed
        // cluster can over-reserve slightly; leftovers are released the
        // moment the downstream is fully placed.
        ss.prereserving = true;
        ss.prereserve_needed = n.value_or(m);
        note_demand(sid, ss);
      }
      grab_idle_fitting_slots(engine, sid, for_stage, *deadline);
    }
    return;
  }

  if (!n.has_value() || *n == m) {
    // Case-1 (unknown) or unchanged parallelism: reserve every slot.
    reserve(engine, info.slot, sid, for_stage, *deadline);
    return;
  }
  if (*n < m) {
    // Decreasing parallelism: let go the first m - n slots that become idle
    // (minimizes utilization loss), hold the remainder.
    if (info.stage_finished <= m - *n) return;
    reserve(engine, info.slot, sid, for_stage, *deadline);
    return;
  }

  // Increasing parallelism (m < n): reserve, and once the finished fraction
  // exceeds R, start pre-reserving the extra n - m slots (Case-2.3).
  reserve(engine, info.slot, sid, for_stage, *deadline);
  if (!config_.enable_prereservation) return;
  StageState& ss = stages_[sid];
  const StageRuntime* st = engine.stage_runtime(sid);
  if (!ss.prereserving && st != nullptr &&
      st->finished_fraction() > config_.prereserve_threshold) {
    ss.prereserving = true;
    ss.prereserve_needed = *n - m;
    note_demand(sid, ss);
    grab_idle_fitting_slots(engine, sid, for_stage, *deadline);
  }
}

void ReservationManager::grab_idle_fitting_slots(Engine& engine, StageId sid,
                                                 StageId for_stage,
                                                 SimTime deadline) {
  // Grab slots that are idle right now; future releases arrive via
  // on_slot_idle / the post-completion hook.
  StageState& ss = stages_[sid];
  const Resources& demand =
      engine.graph(for_stage.job).stage(for_stage.index).demand;
  // Walk a snapshot: reserving mutates the idle set.
  const SlotSet idle = engine.cluster().idle_slots();
  for (SlotId s : idle) {
    if (ss.prereserve_needed == 0) break;
    if (engine.cluster().slot(s).state() != SlotState::Idle) continue;
    if (!demand.fits_in(engine.cluster().slot(s).capacity())) continue;
    --ss.prereserve_needed;
    note_demand(sid, ss);
    reserve(engine, s, sid, for_stage, deadline, /*prereserved=*/true);
  }
}

void ReservationManager::on_task_finished(Engine& engine,
                                          const TaskFinishInfo& info) {
  record_duration(engine, info);
  handle_phase_slot(engine, info);
  // If Algorithm 1 released (or skipped) the slot, another job's pending
  // pre-reservation may claim it before it goes back to the general pool.
  if (engine.cluster().slot(info.slot).state() == SlotState::Idle) {
    try_prereserve(engine, info.slot);
  }
  maybe_mitigate(engine, info.task.stage.job);
}

void ReservationManager::on_task_killed(Engine& engine,
                                        const TaskFinishInfo& info) {
  // The twin finished, so the logical task is done and this slot is exactly
  // as warm as a completed-task slot: apply the same reservation rule
  // (cf. Fig. 9 — after the copy of Task-4 completes, both slots carry over).
  handle_phase_slot(engine, info);
  if (engine.cluster().slot(info.slot).state() == SlotState::Idle) {
    try_prereserve(engine, info.slot);
  }
  maybe_mitigate(engine, info.task.stage.job);
}

void ReservationManager::on_slot_idle(Engine& engine, SlotId slot) {
  // A release we did not initiate ourselves means the deadline expired (the
  // engine's expiry timer) — reconcile the record.
  if (take_record(slot)) ++reservations_expired_;
  try_prereserve(engine, slot);
}

void ReservationManager::on_slot_failed(Engine&, SlotId slot) {
  // The reservation (if any) was broken by the failure, not expired: drop
  // the record without touching the expiry counter.  No pre-reservation
  // either — the slot is Dead.
  take_record(slot);
}

void ReservationManager::on_stage_submitted(Engine&, StageId) {}

void ReservationManager::on_stage_fully_placed(Engine& engine, StageId stage) {
  const JobId job = stage.job;
  const JobGraph& graph = engine.graph(job);

  // Stop pre-reserving on behalf of this stage: every task has a slot.
  for (std::uint32_t parent : graph.stage(stage.index).parents) {
    auto it = stages_.find(graph.stage_id(parent));
    if (it != stages_.end()) {
      it->second.prereserving = false;
      it->second.prereserve_needed = 0;
      note_demand(it->first, it->second);
    }
  }

  // Release reservations that were made for this stage but not consumed
  // (e.g. the downstream phase turned out narrower than speculated).  Drop
  // every record before the first release: the releases re-enter the hook.
  std::vector<SlotId> to_release;
  for (SlotId s : engine.cluster().reserved_idle_slots_of(job)) {
    const SlotRecord* rec = live_record(s);
    if (rec != nullptr && rec->for_stage == stage) to_release.push_back(s);
  }
  for (SlotId s : to_release) take_record(s);
  for (SlotId s : to_release) engine.release_reservation(s);
}

void ReservationManager::on_task_started(Engine& engine, TaskId task,
                                         SlotId slot) {
  // The reservation (if any) was consumed by the reserving job's downstream
  // task or straggler copy — or overridden by a higher-priority job.
  const auto rec = take_record(slot);
  if (rec && rec->prereserved && task.stage.job != rec->from_stage.job) {
    // A higher-priority override took a pre-reserved slot: the extra-slot
    // demand is unmet again, so keep requesting (Algorithm 1, line 17).
    auto ss = stages_.find(rec->from_stage);
    if (ss != stages_.end() && ss->second.prereserving) {
      ++ss->second.prereserve_needed;
      note_demand(ss->first, ss->second);
    }
  }
  maybe_mitigate(engine, task.stage.job);
}

void ReservationManager::on_job_finished(Engine& engine, JobId job) {
  std::vector<SlotId> slots;
  for (SlotId s : engine.cluster().reserved_idle_slots_of(job)) {
    if (live_record(s) != nullptr) slots.push_back(s);
  }
  for (SlotId s : slots) take_record(s);
  for (SlotId s : slots) engine.release_reservation(s);
  const StageId lo{job, 0};
  const StageId hi{JobId{job.v + 1}, 0};
  stages_.erase(stages_.lower_bound(lo), stages_.lower_bound(hi));
  demand_.erase(demand_.lower_bound(lo), demand_.lower_bound(hi));
}

// --- Pre-reservation (Case-2.3) -----------------------------------------------

bool ReservationManager::try_prereserve(Engine& engine, SlotId slot) {
  if (!config_.enable_prereservation) return false;
  if (engine.cluster().slot(slot).state() != SlotState::Idle) return false;

  // Pick the highest-priority pending demand whose downstream task fits
  // this slot; ties go to the earliest stage.
  StageId best{};
  int best_priority = 0;
  bool found = false;
  for (StageId sid : demand_) {
    const JobGraph& g = engine.graph(sid.job);
    const auto child = g.first_child(sid.index);
    if (!child) continue;
    if (!g.stage(*child).demand.fits_in(
            engine.cluster().slot(slot).capacity())) {
      continue;
    }
    const int prio = g.priority();
    if (!found || prio > best_priority) {
      best = sid;
      best_priority = prio;
      found = true;
    }
  }
  if (!found) return false;

  StageState& ss = stages_[best];
  const auto deadline = stage_deadline(engine, best);
  if (!deadline) {
    ss.prereserving = false;
    ss.prereserve_needed = 0;
    note_demand(best, ss);
    return false;
  }
  const JobGraph& graph = engine.graph(best.job);
  const StageId for_stage = graph.stage_id(*graph.first_child(best.index));
  --ss.prereserve_needed;
  note_demand(best, ss);
  reserve(engine, slot, best, for_stage, *deadline, /*prereserved=*/true);
  return true;
}

// --- Straggler mitigation (Sec. IV-C) ------------------------------------------

void ReservationManager::maybe_mitigate(Engine& engine, JobId job) {
  if (!config_.enable_straggler_mitigation) return;

  // Visit the job's phases in place: the copies launched below re-enter the
  // hook, but nothing on that path adds or erases a phase.
  for (auto it = stages_.lower_bound(StageId{job, 0});
       it != stages_.end() && it->first.job == job; ++it) {
    const StageId sid = it->first;
    const std::uint32_t reserved = it->second.reserved;
    if (reserved == 0) continue;
    StageRuntime* st = engine.stage_runtime(sid);
    if (st == nullptr || st->complete()) continue;
    // Trigger: enough reserved slots to give *every* ongoing task a copy.
    // At a hook call no original of a done task is still running (the twin
    // is killed first), so the running originals are exactly the ongoing
    // tasks; the test needs no scan.
    const std::uint32_t running = st->running_originals();
    if (running == 0 || running > reserved) continue;

    // Reserved-idle slots this phase contributed, in id order.  The
    // cluster's per-job set is fetched afresh per phase: launching copies
    // can drain it, which invalidates the reference.
    std::vector<SlotId> phase_slots;
    for (SlotId s : engine.cluster().reserved_idle_slots_of(job)) {
      const SlotRecord* rec = live_record(s);
      if (rec != nullptr && rec->from_stage == sid) phase_slots.push_back(s);
    }
    const auto ongoing = st->running_task_indices();

    std::size_t next_slot = 0;
    for (std::uint32_t task_index : ongoing) {
      if (st->has_live_copy(task_index)) continue;
      while (next_slot < phase_slots.size()) {
        const SlotId s = phase_slots[next_slot++];
        if (engine.cluster().slot(s).state() != SlotState::ReservedIdle) {
          continue;
        }
        if (engine.launch_copy(sid, task_index, s)) {
          ++copies_launched_;
          break;
        }
      }
    }
  }
}

}  // namespace ssr
