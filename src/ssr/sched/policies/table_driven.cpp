#include "ssr/sched/policies/table_driven.h"

#include <climits>
#include <cmath>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

TableDrivenHook::TableDrivenHook(TableDrivenConfig config)
    : config_(std::move(config)) {
  SSR_CHECK_MSG(config_.major_cycle > 0.0 &&
                    config_.major_cycle < kTimeInfinity,
                "major cycle must be positive and finite");
  SSR_CHECK_MSG(!config_.intervals.empty(), "timetable has no windows");
  SSR_CHECK_MSG(config_.class_min_priority > INT_MIN,
                "class_min_priority - 1 must be representable");
  SimTime prev_end = 0.0;
  for (const TableInterval& w : config_.intervals) {
    SSR_CHECK_MSG(w.start >= prev_end,
                  "table windows must be sorted and disjoint");
    SSR_CHECK_MSG(w.start < w.end, "table window must be non-empty");
    SSR_CHECK_MSG(w.end <= config_.major_cycle,
                  "table window must lie inside the major cycle");
    prev_end = w.end;
  }
  holds_forever_ = config_.intervals.size() == 1 &&
                   config_.intervals.front().start == 0.0 &&
                   config_.intervals.front().end == config_.major_cycle;
}

SimTime TableDrivenHook::phase_of(SimTime t) const {
  // fmod of non-negative simulated times; the result is in
  // [0, major_cycle).  Exact multiples of the cycle land on phase 0, the
  // start of a fresh cycle — which is what makes back-to-back windows
  // [x, cycle) + [0, y) behave as one contiguous window across the wrap.
  return std::fmod(t, config_.major_cycle);
}

bool TableDrivenHook::in_window(SimTime t) const {
  const SimTime phase = phase_of(t);
  for (const TableInterval& w : config_.intervals) {
    if (phase >= w.start && phase < w.end) return true;
    if (phase < w.start) break;  // sorted: no later window can contain it
  }
  return false;
}

SimTime TableDrivenHook::window_end(SimTime t) const {
  const SimTime phase = phase_of(t);
  for (const TableInterval& w : config_.intervals) {
    if (phase >= w.start && phase < w.end) return t + (w.end - phase);
  }
  SSR_CHECK_MSG(false, "window_end called outside every window");
  return t;
}

SimTime TableDrivenHook::next_window_start_after(SimTime t) const {
  const SimTime phase = phase_of(t);
  const SimTime cycle_base = t - phase;
  for (const TableInterval& w : config_.intervals) {
    if (cycle_base + w.start > t) return cycle_base + w.start;
  }
  // Every window start of this cycle is at or behind t: wrap to the first
  // window of the next cycle.
  return cycle_base + config_.major_cycle + config_.intervals.front().start;
}

void TableDrivenHook::replenish(Engine& engine) {
  const SimTime now = engine.sim().now();
  if (held_.size() >= config_.reserved_slots || !in_window(now)) return;
  // A periodic table goes quiet once every submitted job finished: a
  // 100%-duty table would otherwise re-reserve at each expiry forever and
  // drain() would never terminate.  A job submitted later restarts it via
  // on_stage_submitted.  A one-window table needs no such guard: its
  // reservations never expire.
  if (!holds_forever_ && engine.all_jobs_finished()) return;
  const SimTime deadline = holds_forever_ ? kTimeInfinity : window_end(now);
  // Walk a snapshot: reserving mutates the idle set.
  const SlotSet idle = engine.cluster().idle_slots();
  for (SlotId s : idle) {
    if (held_.size() >= config_.reserved_slots) break;
    if (engine.cluster().slot(s).state() != SlotState::Idle) continue;
    Reservation r;
    r.job = kTableJob;
    // Class jobs (priority >= class_min_priority) pass the strictly-higher
    // approval test against this value; everyone else is walled out.
    r.priority = config_.class_min_priority - 1;
    // The engine's expiry event releases the slot at the window edge even
    // if this hook is never called again before then.
    r.deadline = deadline;
    held_.insert(s);
    engine.reserve_slot(s, r);
  }
}

void TableDrivenHook::arm_wakeup(Engine& engine) {
  if (holds_forever_ || wakeup_armed_) return;
  wakeup_armed_ = true;
  const SimTime at = next_window_start_after(engine.sim().now());
  engine.sim().schedule_at(at, EventBand::kInternal, [this, &engine] {
    wakeup_armed_ = false;
    // Go quiet once every submitted job finished so drain() terminates; a
    // job submitted later re-arms the chain via on_stage_submitted.
    if (engine.all_jobs_finished()) return;
    replenish(engine);
    arm_wakeup(engine);
  });
}

void TableDrivenHook::on_task_finished(Engine& engine, const TaskFinishInfo&) {
  replenish(engine);
  arm_wakeup(engine);
}

void TableDrivenHook::on_task_killed(Engine& engine, const TaskFinishInfo&) {
  replenish(engine);
  arm_wakeup(engine);
}

void TableDrivenHook::on_slot_idle(Engine& engine, SlotId slot) {
  // Reached when a windowed reservation expires at its window edge (or a
  // policy released some other reservation): reconcile, then re-establish
  // the target if we are inside a (possibly adjacent) window.
  held_.erase(slot);
  replenish(engine);
}

void TableDrivenHook::on_slot_failed(Engine& engine, SlotId slot) {
  // A windowed slot died; the engine already broke the reservation.
  if (held_.erase(slot) > 0) replenish(engine);
}

void TableDrivenHook::on_stage_submitted(Engine& engine, StageId) {
  // First chance to establish the timetable once work exists.
  replenish(engine);
  arm_wakeup(engine);
}

void TableDrivenHook::on_task_started(Engine& engine, TaskId, SlotId slot) {
  // A class job claimed a windowed slot; top the window back up.
  if (held_.erase(slot) > 0) replenish(engine);
}

}  // namespace ssr
