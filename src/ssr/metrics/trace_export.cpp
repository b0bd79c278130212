#include "ssr/metrics/trace_export.h"

#include <sstream>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/metrics/json.h"

namespace ssr {
namespace {

/// 1 simulated second -> 1000 trace microseconds (1 ms).
long long to_us(SimTime t) { return static_cast<long long>(t * 1000.0); }

}  // namespace

std::uint32_t TraceExporter::track_of(const std::string& tenant) {
  if (tenant.empty()) return 0;
  auto it = track_index_.find(tenant);
  if (it == track_index_.end()) {
    tracks_.push_back(tenant);
    it = track_index_
             .emplace(tenant, static_cast<std::uint32_t>(tracks_.size() - 1))
             .first;
  }
  return it->second;
}

const std::pair<std::string, std::string>& TraceExporter::job_of(
    JobId job) const {
  auto it = jobs_.find(job);
  SSR_CHECK_MSG(it != jobs_.end(),
                "trace references " << job << " before submitting it");
  return it->second;
}

void TraceExporter::close_attempt(const TraceEvent& event, bool killed) {
  auto it = open_.find(event.task);
  SSR_CHECK_MSG(it != open_.end(),
                "trace ends attempt " << event.task << " without a start");
  Attempt& a = events_[it->second];
  SSR_CHECK_EQ(a.slot, event.slot);  // attempt must end on its start slot
  a.end = event.time;
  a.killed = killed;
  open_.erase(it);
}

void TraceExporter::on_trace_event(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kJobSubmitted:
      jobs_[event.job] = {event.job_name, event.tenant};
      instants_.push_back({"submit " + event.job_name, event.time});
      break;
    case TraceEventKind::kJobFinished:
      instants_.push_back({"finish " + job_of(event.job).first, event.time});
      break;
    case TraceEventKind::kTaskStarted: {
      const auto& [name, tenant] = job_of(event.task.stage.job);
      Attempt a;
      a.task = event.task;
      a.slot = event.slot;
      a.start = event.time;
      a.job_name = name;
      a.track = track_of(tenant);
      open_[event.task] = events_.size();
      events_.push_back(std::move(a));
      break;
    }
    case TraceEventKind::kTaskFinished:
      close_attempt(event, /*killed=*/false);
      break;
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed:
      close_attempt(event, /*killed=*/true);
      break;
    default:
      break;
  }
}

void TraceExporter::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  // Name the process tracks up front (metadata events); the viewer then
  // groups each tenant's slot timelines under its own named process.
  for (std::uint32_t pid = 0; pid < tracks_.size(); ++pid) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(tracks_[pid])
       << "\"}}";
  }
  for (const Attempt& a : events_) {
    std::ostringstream name;
    name << a.job_name << " " << a.task;
    if (a.killed) name << " (killed)";
    const SimTime end = a.end >= 0.0 ? a.end : a.start;
    sep();
    os << "{\"name\":\"" << json_escape(name.str())
       << "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" << to_us(a.start)
       << ",\"dur\":" << to_us(end - a.start) << ",\"pid\":" << a.track
       << ",\"tid\":" << a.slot.v << ",\"args\":{\"attempt\":"
       << a.task.attempt << ",\"killed\":" << (a.killed ? "true" : "false")
       << "}}";
  }
  for (const Instant& i : instants_) {
    sep();
    os << "{\"name\":\"" << json_escape(i.name)
       << "\",\"cat\":\"job\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << to_us(i.at)
       << ",\"pid\":0,\"tid\":0}";
  }
  os << "]}";
}

}  // namespace ssr
