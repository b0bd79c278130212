// Per-phase task lifecycle — the analog of Spark's TaskSetManager.
//
// A StageRuntime is created the moment a stage's barrier clears (all parents
// finished) and owns the stage's task attempts: the originals (attempt 0) and
// any straggler-mitigation copies (attempt >= 1).  It also implements delay
// scheduling: the task set prefers slots holding its parents' outputs and
// only accepts arbitrary slots after `locality_wait` has elapsed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/dag/job.h"

namespace ssr {

enum class AttemptState { Pending, Running, Finished, Killed };

/// One task attempt (original or copy).
struct TaskAttempt {
  TaskId id;
  AttemptState state = AttemptState::Pending;
  double base_duration = 0.0;  ///< Duration before any locality penalty.
  SimTime start_time = -1.0;
  SimTime finish_time = -1.0;
  SlotId slot{};       ///< Valid while Running / after Finished.
  bool local = false;  ///< Whether the attempt ran with data locality.
  /// Bumped each time the attempt is resurrected after a failure; completion
  /// events carry the epoch they were scheduled under, so an event from a
  /// pre-failure run of the attempt cannot complete its re-run.
  std::uint32_t epoch = 0;
};

/// Runtime state of one submitted stage.
class StageRuntime {
 public:
  StageRuntime(StageId id, const StageSpec& spec, SimTime submitted_at,
               std::vector<double> durations);

  StageId id() const { return id_; }
  const StageSpec& spec() const { return *spec_; }
  SimTime submitted_at() const { return submitted_at_; }

  std::uint32_t parallelism() const { return spec_->num_tasks; }
  std::uint32_t finished_count() const { return finished_; }
  std::uint32_t running_originals() const { return running_originals_; }
  std::uint32_t pending_count() const {
    return static_cast<std::uint32_t>(pending_.size()) - pending_head_;
  }
  bool all_placed() const { return pending_head_ == pending_.size(); }
  bool complete() const { return finished_ == spec_->num_tasks; }

  /// Fraction of original tasks finished — drives the pre-reservation
  /// threshold test (finishedTaskFraction > R in Algorithm 1).
  double finished_fraction() const {
    return static_cast<double>(finished_) /
           static_cast<double>(spec_->num_tasks);
  }

  /// Duration of the first original task to finish; the paper's online
  /// estimate of the Pareto scale parameter t_m.  nullopt until one finishes.
  std::optional<double> first_finish_duration() const {
    return first_finish_duration_;
  }

  // --- Pending queue ------------------------------------------------------

  /// Index of the next unplaced original task; does not remove it.
  std::optional<std::uint32_t> peek_pending() const;

  /// Remove a specific task index from the pending queue (it is starting).
  void take_pending(std::uint32_t task_index);

  const TaskAttempt& original(std::uint32_t task_index) const {
    return originals_.at(task_index);
  }
  TaskAttempt& mutable_original(std::uint32_t task_index) {
    return originals_.at(task_index);
  }

  /// Indices of original tasks currently Running (for straggler copies).
  std::vector<std::uint32_t> running_task_indices() const;

  // --- Copies (straggler mitigation) --------------------------------------

  /// Register a new copy attempt for `task_index`; returns its attempt id.
  TaskAttempt& add_copy(std::uint32_t task_index, double base_duration);

  bool has_live_copy(std::uint32_t task_index) const;

  /// The copy of `task_index` that is currently Running, if any.
  TaskAttempt* running_copy(std::uint32_t task_index);

  /// Locate any attempt (original or copy) by id; nullptr if unknown.
  TaskAttempt* find_attempt(TaskId id);

  /// The attempt whose completion finished `task_index` (original first,
  /// then copies); nullptr while the task is not done.  Failure handling
  /// asks this to learn which slot holds the task's output.
  const TaskAttempt* finished_attempt(std::uint32_t task_index) const;

  // --- Attempt state transitions (engine-driven) ---------------------------

  void mark_running(TaskAttempt& attempt, SlotId slot, SimTime now,
                    bool local);
  /// Marks the attempt finished; updates finished count / t_m estimate when
  /// the attempt is the first completion of its task index.
  void mark_finished(TaskAttempt& attempt, SimTime now);
  void mark_killed(TaskAttempt& attempt, SimTime now);

  /// Failure recovery: put the logical task back in the pending queue by
  /// resetting its original attempt (which must be Finished or Killed) to a
  /// fresh Pending with a bumped epoch.  If the task was done, it no longer
  /// is; the stage re-opens accordingly.  The base duration is kept, so the
  /// re-run consumes no randomness and a failure cannot perturb the RNG
  /// stream of unrelated draws.
  void resurrect(std::uint32_t task_index);

  /// True if the logical task (any attempt) has already finished.
  bool task_done(std::uint32_t task_index) const {
    return done_.at(task_index);
  }

  // --- Delay scheduling ----------------------------------------------------

  /// Slots that hold a parent stage's output (preferred, data-local), in
  /// ascending id order.  The hot path walks this instead of filtering the
  /// whole idle set, so candidate enumeration is proportional to the
  /// stage's locality footprint; the sorted order keeps it bit-identical
  /// with an id-ordered idle-set scan.
  const std::vector<SlotId>& preferred_slots() const { return preferred_; }
  /// Takes the parents' output slots in any order, duplicates included.
  void set_preferred_slots(std::vector<SlotId> preferred);
  bool is_preferred(SlotId slot) const {
    return std::binary_search(preferred_.begin(), preferred_.end(), slot);
  }

  /// Whether the task set currently accepts slots without locality.  True
  /// when it has no locality preference at all, or when `locality_wait` has
  /// elapsed since submission / the last local launch (Spark semantics).
  bool accepts_any_slot(SimTime now, SimDuration locality_wait) const;

  /// Time at which accepts_any_slot() flips to true (for retry timers).
  SimTime locality_relax_time(SimDuration locality_wait) const;

  void note_local_launch(SimTime now) { last_local_launch_ = now; }

  /// Retry-timer bookkeeping so the engine schedules one timer at a time.
  bool retry_timer_armed() const { return retry_timer_armed_; }
  void set_retry_timer_armed(bool armed) { retry_timer_armed_ = armed; }

 private:
  StageId id_;
  const StageSpec* spec_;
  SimTime submitted_at_;

  // Stage runtimes live for the engine's lifetime, so these stay compact:
  // a fig15-scale run keeps over ten thousand of them.
  std::vector<TaskAttempt> originals_;
  // list: stable references on growth (a hook may launch another copy while
  // the engine still holds one), and no allocation until the first copy.
  std::list<TaskAttempt> copies_;
  // FIFO of unplaced task indices, live from pending_head_ on.
  std::vector<std::uint32_t> pending_;
  std::uint32_t pending_head_ = 0;
  std::vector<bool> done_;  ///< by task index

  std::uint32_t finished_ = 0;
  std::uint32_t running_originals_ = 0;
  std::optional<double> first_finish_duration_;

  std::vector<SlotId> preferred_;  ///< sorted, unique
  SimTime last_local_launch_;
  bool retry_timer_armed_ = false;
};

}  // namespace ssr
