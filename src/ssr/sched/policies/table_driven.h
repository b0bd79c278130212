// Table-driven time-partitioned reservation policy, in the spirit of
// litmus-rt's `reservations/table-driven-ss` (SNIPPETS.md §1–3): the
// operator writes a static timetable — a major cycle and a set of slot
// windows inside it — and during every window a fixed number of slots is
// held for the latency-sensitive class, unconditionally, whether or not the
// class has work.
//
// This is the hard-isolation *upper* baseline of the policy zoo
// (DESIGN.md §14): inside its windows the class sees guaranteed capacity
// with zero queueing interference, like a table-driven CPU reservation sees
// its minor-cycle slices; outside them it competes like everyone else.  The
// price is paid in utilization — windowed slots sit ReservedIdle whenever
// the class is idle — which is exactly the trade-off the cross-policy
// shoot-out quantifies against SSR's demand-driven reservations.
//
// Mechanically the policy is a ReservationHook: window starts are simulator
// wakeups, and every reservation carries the absolute end of its window as
// the deadline, so the engine's ordinary expiry machinery tears the
// timetable down on time even if the hook never runs again.
//
// A table whose single window covers the whole major cycle is the static
// carve-out of Sec. III-A.1 (core/naive_policies.h): its reservations never
// expire and it arms no wakeups.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/types.h"

namespace ssr {

/// One reservation window, half-open, in cycle-relative time:
/// [start, end) with 0 <= start < end <= major_cycle.
struct TableInterval {
  SimTime start = 0.0;
  SimTime end = 0.0;
};

struct TableDrivenConfig {
  /// Timetable period: the window pattern repeats every major_cycle
  /// simulated seconds, forever.
  SimDuration major_cycle = 60.0;

  /// Windows within one cycle, sorted by start, pairwise disjoint.
  std::vector<TableInterval> intervals;

  /// Slots held for the class during each window.
  std::uint32_t reserved_slots = 0;

  /// Jobs with priority >= this belong to the protected class and may claim
  /// the windowed slots (the reservations are tagged class_min_priority - 1,
  /// so the standard strictly-higher-priority override admits exactly the
  /// class).  Must exceed INT_MIN.
  int class_min_priority = 1;
};

class TableDrivenHook : public ReservationHook {
 public:
  /// Validates the timetable (positive finite cycle; at least one window;
  /// windows sorted, disjoint, inside the cycle; class_min_priority - 1
  /// representable); throws CheckError on a malformed table.
  explicit TableDrivenHook(TableDrivenConfig config);

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

  // --- Pure timetable queries (exercised by the property tests) -------------

  /// Is absolute time `t` inside a reservation window?
  bool in_window(SimTime t) const;

  /// Absolute end of the window containing `t`.  Precondition: in_window(t).
  SimTime window_end(SimTime t) const;

  /// Absolute start of the first window strictly after `t` (wraps across the
  /// major-cycle boundary).  Precondition: the table has >= 1 window.
  SimTime next_window_start_after(SimTime t) const;

  /// Slots currently held ReservedIdle for the class.
  std::size_t held_slots() const { return held_.size(); }

  /// Sentinel owner of the windowed reservations (no real job; approval
  /// works through the reservation priority).
  static constexpr JobId kTableJob{0xFFFFFFFEu};

 private:
  /// Cycle-relative phase of `t`: t mod major_cycle.
  SimTime phase_of(SimTime t) const;

  /// Top the held set up to reserved_slots if now is inside a window;
  /// no-op outside windows.
  void replenish(Engine& engine);

  /// Ensure a wakeup is pending for the next window start.  The chain
  /// re-arms itself while unfinished jobs exist and goes quiet otherwise,
  /// so drain() terminates; any later hook callback re-arms it.  A
  /// one-window table arms nothing.
  void arm_wakeup(Engine& engine);

  TableDrivenConfig config_;
  /// One window covering the whole cycle: reservations are held forever.
  bool holds_forever_ = false;
  /// Currently ReservedIdle for the class.  The hook's only way to tell
  /// whether a failed or claimed slot was one of its own.
  std::set<SlotId> held_;
  bool wakeup_armed_ = false;
};

}  // namespace ssr
