#include "ssr/exp/trace_replay.h"

#include <algorithm>

#include "ssr/common/check.h"

namespace ssr {

namespace {
std::tuple<JobId, std::uint32_t, std::uint32_t> logical_task(TaskId task) {
  return {task.stage.job, task.stage.index, task.index};
}
}  // namespace

void ReplayResultBuilder::on_trace_begin(const TraceHeader& header) {
  header_ = header;
  slots_ = SlotModel(header.num_slots);
}

JobTaskStats& ReplayResultBuilder::end_attempt(const TraceEvent& e) {
  const SlotModel::Record& s = slots_.at(e.slot);
  SSR_CHECK_MSG(s.state == SlotState::Busy && s.task == e.task,
                "trace ends attempt " << e.task << " on " << e.slot
                                      << ", which is not running it");
  const double busy = slots_.to_idle(e.slot, e.time);
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
      slots_.to_busy(e.slot, e.task, e.time);
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
    case TraceEventKind::kSlotFailed:
      slots_.to_dead(e.slot, e.time);
      ++recovery_.slots_failed;
      break;
    case TraceEventKind::kSlotRecovered:
      slots_.to_idle(e.slot, e.time);
      ++recovery_.slots_recovered;
      break;
    case TraceEventKind::kSlotReserved:
      slots_.to_reserved(e.slot, e.job, e.priority, e.deadline, e.time);
      break;
    case TraceEventKind::kReservationReleased: {
      slots_.to_idle(e.slot, e.time);
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
  slots_.settle(now);

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
    jr.reserved_idle_seconds = slots_.reserved_idle_of(id);
    result_.jobs.push_back(std::move(jr));
    result_.makespan = std::max(result_.makespan, j.finish);
  }
  result_.busy_time = slots_.total_busy();
  result_.reserved_idle_time = slots_.total_reserved_idle();
  result_.dead_time = slots_.total_dead();
  result_.utilization =
      result_.makespan > 0.0
          ? result_.busy_time /
                (result_.makespan * static_cast<double>(slots_.num_slots()))
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
