#include "ssr/exp/trace_replay.h"

#include <algorithm>

#include "ssr/common/check.h"

namespace ssr {

namespace {
constexpr int kIdle = 0;
constexpr int kBusy = 1;
constexpr int kReservedIdle = 2;
constexpr int kDead = 3;

std::tuple<JobId, std::uint32_t, std::uint32_t> logical_task(TaskId task) {
  return {task.stage.job, task.stage.index, task.index};
}
}  // namespace

void ReplayResultBuilder::on_trace_begin(const TraceHeader& header) {
  header_ = header;
  slots_.assign(header.num_slots, SlotMirror{});
}

ReplayResultBuilder::SlotMirror& ReplayResultBuilder::slot_mirror(SlotId slot) {
  SSR_CHECK_MSG(slot.v < slots_.size(),
                "trace references " << slot << " but the header declares only "
                                    << slots_.size() << " slots");
  return slots_[slot.v];
}

void ReplayResultBuilder::accrue(SlotMirror& s, SimTime now) {
  // Cluster::accrue, verbatim: same expression, same accumulator layout.
  const double elapsed = now - s.state_since;
  switch (s.state) {
    case kBusy:
      s.busy += elapsed;
      break;
    case kReservedIdle:
      s.reserved_idle += elapsed;
      reserved_idle_by_job_[s.reserved_job] += elapsed;
      break;
    case kDead:
      s.dead += elapsed;
      break;
    default:
      break;
  }
  s.state_since = now;
}

JobTaskStats& ReplayResultBuilder::end_attempt(const TraceEvent& e) {
  SlotMirror& s = slot_mirror(e.slot);
  SSR_CHECK_MSG(s.state == kBusy && s.task == e.task,
                "trace ends attempt " << e.task << " on " << e.slot
                                      << ", which is not running it");
  // The slot was stamped when the attempt started and no event touched it
  // since, so this is exactly the attempt's run time.
  const double busy = e.time - s.state_since;
  accrue(s, e.time);
  s.state = kIdle;
  JobTaskStats& ts = task_stats_[e.task.stage.job];
  ts.busy_seconds += busy;
  return ts;
}

void ReplayResultBuilder::on_trace_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kJobSubmitted: {
      JobMirror& j = jobs_[e.job];
      j.name = e.job_name;
      j.priority = e.priority;
      j.submit = e.time;
      break;
    }
    case TraceEventKind::kJobFinished:
      jobs_[e.job].finish = e.time;
      break;
    case TraceEventKind::kStageSubmitted:
    case TraceEventKind::kStageFinished:
      break;  // no RunResult contribution
    case TraceEventKind::kTaskStarted: {
      SlotMirror& s = slot_mirror(e.slot);
      accrue(s, e.time);
      s.state = kBusy;
      s.task = e.task;
      JobTaskStats& ts = task_stats_[e.task.stage.job];
      ++ts.tasks_started;
      if (e.task.attempt >= 1) ++ts.copies_started;
      if (e.local) ++ts.local_starts;
      break;
    }
    case TraceEventKind::kTaskFinished: {
      JobTaskStats& ts = end_attempt(e);
      ++ts.tasks_finished;
      if (e.task.attempt >= 1) ++ts.copies_won;
      if (failed_pending_.erase(logical_task(e.task)) > 0) {
        ++recovery_.failures_masked;
      }
      break;
    }
    case TraceEventKind::kTaskKilled:
      ++end_attempt(e).tasks_killed;
      break;
    case TraceEventKind::kTaskFailed:
      // The attempt dies and the slot empties; the slot itself goes Dead in
      // the following kSlotFailed event (same split as the live engine).
      ++end_attempt(e).tasks_failed;
      ++recovery_.tasks_failed;
      failed_pending_.insert(logical_task(e.task));
      break;
    case TraceEventKind::kTaskRequeued:
      ++recovery_.tasks_requeued;
      failed_pending_.erase(logical_task(e.task));
      break;
    case TraceEventKind::kStageInvalidated:
      ++recovery_.stages_invalidated;
      break;
    case TraceEventKind::kSlotFailed: {
      SlotMirror& s = slot_mirror(e.slot);
      accrue(s, e.time);
      s.state = kDead;
      ++recovery_.slots_failed;
      break;
    }
    case TraceEventKind::kSlotRecovered: {
      SlotMirror& s = slot_mirror(e.slot);
      accrue(s, e.time);
      s.state = kIdle;
      ++recovery_.slots_recovered;
      break;
    }
    case TraceEventKind::kSlotReserved: {
      SlotMirror& s = slot_mirror(e.slot);
      accrue(s, e.time);
      s.state = kReservedIdle;
      s.reserved_job = e.job;
      break;
    }
    case TraceEventKind::kReservationReleased: {
      SlotMirror& s = slot_mirror(e.slot);
      accrue(s, e.time);
      s.state = kIdle;
      if (e.reason == ReservationEndReason::Expired) ++expired_releases_;
      if (e.reason == ReservationEndReason::SlotFailed) {
        ++recovery_.reservations_broken;
      }
      break;
    }
    case TraceEventKind::kRunComplete:
      finalize(e.time);
      break;
  }
}

void ReplayResultBuilder::finalize(SimTime now) {
  // Cluster::settle: flush every slot in ascending id order.
  for (SlotMirror& s : slots_) accrue(s, now);

  result_ = RunResult{};
  result_.jobs.reserve(jobs_.size());
  for (const auto& [id, j] : jobs_) {
    JobResult jr;
    jr.id = id;
    jr.name = j.name;
    jr.priority = j.priority;
    jr.submit = j.submit;
    jr.finish = j.finish;
    jr.jct = j.finish - j.submit;
    auto ts = task_stats_.find(id);
    jr.busy_seconds = ts != task_stats_.end() ? ts->second.busy_seconds : 0.0;
    auto ri = reserved_idle_by_job_.find(id);
    jr.reserved_idle_seconds =
        ri != reserved_idle_by_job_.end() ? ri->second : 0.0;
    result_.jobs.push_back(std::move(jr));
    result_.makespan = std::max(result_.makespan, j.finish);
  }
  // Totals fold in ascending slot-id order, like the Cluster total_* scans.
  for (const SlotMirror& s : slots_) {
    result_.busy_time += s.busy;
    result_.reserved_idle_time += s.reserved_idle;
    result_.dead_time += s.dead;
  }
  result_.utilization =
      result_.makespan > 0.0
          ? result_.busy_time /
                (result_.makespan * static_cast<double>(slots_.size()))
          : 0.0;
  if (header_.counts_expired) {
    result_.reservations_expired = expired_releases_;
  }
  // Ascending-job fold over the stats map.
  for (const auto& [job, s] : task_stats_) {
    result_.task_totals.tasks_started += s.tasks_started;
    result_.task_totals.tasks_finished += s.tasks_finished;
    result_.task_totals.tasks_killed += s.tasks_killed;
    result_.task_totals.tasks_failed += s.tasks_failed;
    result_.task_totals.copies_started += s.copies_started;
    result_.task_totals.copies_won += s.copies_won;
    result_.task_totals.local_starts += s.local_starts;
    result_.task_totals.busy_seconds += s.busy_seconds;
  }
  result_.recovery = recovery_;
  result_.suspicions = header_.suspicions;
  result_.false_suspicions = header_.false_suspicions;
  complete_ = true;
}

const JobTaskStats& ReplayResultBuilder::task_stats(JobId job) const {
  static const JobTaskStats kEmpty;
  auto it = task_stats_.find(job);
  return it == task_stats_.end() ? kEmpty : it->second;
}

const RunResult& ReplayResultBuilder::result() const {
  SSR_CHECK_MSG(complete_,
                "replayed trace never reached run-complete; the capture is "
                "from an unfinished run");
  return result_;
}

RunResult replay_run_result(const TraceReplayer& replayer) {
  ReplayResultBuilder builder;
  replayer.replay({&builder});
  return builder.result();
}

}  // namespace ssr
