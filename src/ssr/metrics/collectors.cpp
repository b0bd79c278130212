#include "ssr/metrics/collectors.h"

#include "ssr/common/check.h"

namespace ssr {

// --- RunningTasksSeries -------------------------------------------------------

void RunningTasksSeries::emit(const Engine&, const TraceEvent& e) {
  int delta = 0;
  switch (e.kind) {
    case TraceEventKind::kTaskStarted:
      delta = +1;
      break;
    case TraceEventKind::kTaskFinished:
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed:
      delta = -1;
      break;
    default:
      return;
  }
  auto& log = changes_[e.task.stage.job];
  const int running = (log.empty() ? 0 : log.back().second) + delta;
  SSR_CHECK_MSG(running >= 0, "running task count went negative");
  log.emplace_back(e.time, running);
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

}  // namespace ssr
