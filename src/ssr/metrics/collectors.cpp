#include "ssr/metrics/collectors.h"

#include <algorithm>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

// --- RunningTasksSeries -------------------------------------------------------

void RunningTasksSeries::record(const Engine& engine, JobId job, int delta) {
  int& cur = current_[job];
  cur += delta;
  SSR_CHECK_MSG(cur >= 0, "running task count went negative");
  changes_[job].emplace_back(engine.sim().now(), cur);
}

void RunningTasksSeries::on_task_started(const Engine& engine, TaskId task,
                                         SlotId) {
  record(engine, task.stage.job, +1);
}

void RunningTasksSeries::on_task_finished(const Engine& engine, TaskId task,
                                          SlotId) {
  record(engine, task.stage.job, -1);
}

void RunningTasksSeries::on_task_killed(const Engine& engine, TaskId task,
                                        SlotId) {
  record(engine, task.stage.job, -1);
}

void RunningTasksSeries::on_task_failed(const Engine& engine, TaskId task,
                                        SlotId) {
  record(engine, task.stage.job, -1);
}

const std::vector<std::pair<SimTime, int>>& RunningTasksSeries::changes(
    JobId job) const {
  static const std::vector<std::pair<SimTime, int>> kEmpty;
  auto it = changes_.find(job);
  return it == changes_.end() ? kEmpty : it->second;
}

std::vector<std::pair<SimTime, int>> RunningTasksSeries::sampled(
    JobId job, SimDuration dt, SimTime horizon) const {
  SSR_CHECK_MSG(dt > 0.0, "sampling interval must be positive");
  const auto& log = changes(job);
  std::vector<std::pair<SimTime, int>> out;
  std::size_t i = 0;
  int value = 0;
  for (SimTime t = 0.0; t <= horizon + 1e-9; t += dt) {
    while (i < log.size() && log[i].first <= t) value = log[i++].second;
    out.emplace_back(t, value);
  }
  return out;
}

// --- JctCollector ---------------------------------------------------------------

void JctCollector::on_job_finished(const Engine& engine, JobId job) {
  JobCompletion rec;
  rec.job = job;
  rec.name = engine.job_name(job);
  rec.priority = engine.graph(job).priority();
  rec.submit = engine.graph(job).submit_time();
  rec.finish = engine.sim().now();
  records_.push_back(std::move(rec));
}

std::vector<double> JctCollector::jcts_named(const std::string& name) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.name == name) out.push_back(r.jct());
  }
  return out;
}

double JctCollector::mean_jct_with_priority_at_least(int priority) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.priority >= priority) {
      acc += r.jct();
      ++n;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

double JctCollector::mean_jct_with_priority_below(int priority) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.priority < priority) {
      acc += r.jct();
      ++n;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

}  // namespace ssr
