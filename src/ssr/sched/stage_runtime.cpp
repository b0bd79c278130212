#include "ssr/sched/stage_runtime.h"

#include <algorithm>

#include "ssr/common/check.h"

namespace ssr {

StageRuntime::StageRuntime(StageId id, const StageSpec& spec,
                           SimTime submitted_at, std::vector<double> durations)
    : id_(id),
      spec_(&spec),
      submitted_at_(submitted_at),
      last_local_launch_(submitted_at) {
  SSR_CHECK_MSG(durations.size() == spec.num_tasks,
                "one duration per task required");
  originals_.reserve(spec.num_tasks);
  pending_.reserve(spec.num_tasks);
  for (std::uint32_t i = 0; i < spec.num_tasks; ++i) {
    TaskAttempt attempt;
    attempt.id = TaskId{id_, i, /*attempt=*/0};
    attempt.base_duration = durations[i];
    originals_.push_back(attempt);
    pending_.push_back(i);
  }
  done_.resize(spec.num_tasks, false);
}

std::optional<std::uint32_t> StageRuntime::peek_pending() const {
  if (all_placed()) return std::nullopt;
  return pending_[pending_head_];
}

void StageRuntime::take_pending(std::uint32_t task_index) {
  const auto head = pending_.begin() + pending_head_;
  const auto it = std::find(head, pending_.end(), task_index);
  SSR_CHECK_MSG(it != pending_.end(), "task not pending");
  if (it == head) {
    ++pending_head_;
  } else {
    pending_.erase(it);
  }
  // Fully placed: give the buffer back; a failure re-queue starts a new one.
  if (all_placed()) {
    pending_ = {};
    pending_head_ = 0;
  }
}

std::vector<std::uint32_t> StageRuntime::running_task_indices() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < originals_.size(); ++i) {
    if (originals_[i].state == AttemptState::Running && !task_done(i)) {
      out.push_back(i);
    }
  }
  return out;
}

TaskAttempt& StageRuntime::add_copy(std::uint32_t task_index,
                                    double base_duration) {
  SSR_CHECK_MSG(task_index < originals_.size(), "bad task index");
  std::uint32_t attempt_no = 1;
  for (const TaskAttempt& c : copies_) {
    if (c.id.index == task_index) {
      attempt_no = std::max(attempt_no, c.id.attempt + 1);
    }
  }
  TaskAttempt attempt;
  attempt.id = TaskId{id_, task_index, attempt_no};
  attempt.base_duration = base_duration;
  copies_.push_back(attempt);
  return copies_.back();
}

bool StageRuntime::has_live_copy(std::uint32_t task_index) const {
  return std::any_of(copies_.begin(), copies_.end(),
                     [task_index](const TaskAttempt& c) {
                       return c.id.index == task_index &&
                              (c.state == AttemptState::Pending ||
                               c.state == AttemptState::Running);
                     });
}

TaskAttempt* StageRuntime::running_copy(std::uint32_t task_index) {
  for (TaskAttempt& c : copies_) {
    if (c.id.index == task_index && c.state == AttemptState::Running) {
      return &c;
    }
  }
  return nullptr;
}

TaskAttempt* StageRuntime::find_attempt(TaskId id) {
  if (id.stage != id_) return nullptr;
  if (id.attempt == 0) {
    if (id.index >= originals_.size()) return nullptr;
    return &originals_[id.index];
  }
  for (TaskAttempt& c : copies_) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

const TaskAttempt* StageRuntime::finished_attempt(
    std::uint32_t task_index) const {
  if (!task_done(task_index)) return nullptr;
  const TaskAttempt& original = originals_.at(task_index);
  if (original.state == AttemptState::Finished) return &original;
  for (const TaskAttempt& c : copies_) {
    if (c.id.index == task_index && c.state == AttemptState::Finished) {
      return &c;
    }
  }
  return nullptr;
}

void StageRuntime::resurrect(std::uint32_t task_index) {
  TaskAttempt& original = originals_.at(task_index);
  SSR_CHECK_MSG(original.state == AttemptState::Finished ||
                    original.state == AttemptState::Killed,
                "resurrect needs a settled original attempt");
  original.state = AttemptState::Pending;
  original.start_time = -1.0;
  original.finish_time = -1.0;
  original.slot = SlotId{};
  original.local = false;
  ++original.epoch;
  if (done_[task_index]) {
    done_[task_index] = false;
    SSR_CHECK(finished_ > 0);
    --finished_;
  }
  pending_.push_back(task_index);
}

void StageRuntime::mark_running(TaskAttempt& attempt, SlotId slot, SimTime now,
                                bool local) {
  SSR_CHECK_MSG(attempt.state == AttemptState::Pending,
                "attempt already started");
  attempt.state = AttemptState::Running;
  attempt.slot = slot;
  attempt.start_time = now;
  attempt.local = local;
  if (attempt.id.attempt == 0) ++running_originals_;
  if (local) note_local_launch(now);
}

void StageRuntime::mark_finished(TaskAttempt& attempt, SimTime now) {
  SSR_CHECK_MSG(attempt.state == AttemptState::Running,
                "only running attempts can finish");
  attempt.state = AttemptState::Finished;
  attempt.finish_time = now;
  if (attempt.id.attempt == 0) --running_originals_;
  const bool first_completion_of_task = !done_[attempt.id.index];
  if (first_completion_of_task) {
    done_[attempt.id.index] = true;
    ++finished_;
    if (!first_finish_duration_) {
      first_finish_duration_ = now - attempt.start_time;
    }
  }
}

void StageRuntime::mark_killed(TaskAttempt& attempt, SimTime now) {
  SSR_CHECK_MSG(attempt.state == AttemptState::Running,
                "only running attempts can be killed");
  attempt.state = AttemptState::Killed;
  attempt.finish_time = now;
  if (attempt.id.attempt == 0) --running_originals_;
}

void StageRuntime::set_preferred_slots(std::vector<SlotId> preferred) {
  std::sort(preferred.begin(), preferred.end());
  preferred.erase(std::unique(preferred.begin(), preferred.end()),
                  preferred.end());
  preferred_ = std::move(preferred);
}

bool StageRuntime::accepts_any_slot(SimTime now,
                                    SimDuration locality_wait) const {
  if (preferred_.empty()) return true;  // no locality preference at all
  return now >= locality_relax_time(locality_wait);
}

SimTime StageRuntime::locality_relax_time(SimDuration locality_wait) const {
  return last_local_launch_ + locality_wait;
}

}  // namespace ssr
