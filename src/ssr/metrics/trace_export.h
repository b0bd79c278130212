// Chrome-tracing (catapult) export of a simulated run.
//
// TraceExporter records every task attempt as a complete event ("ph":"X")
// on a track per slot, so a run can be loaded into chrome://tracing or
// https://ui.perfetto.dev and inspected visually: barriers show up as
// vertical cliffs, reservations as gaps on otherwise busy slot tracks,
// straggler copies as overlapping attempts of the same task id.  Times are
// exported in microseconds (1 simulated second = 1 ms of trace time keeps
// hour-long simulations navigable).
//
// TraceExporter is a TraceConsumer, so one implementation serves a live run
// (attach it to a TraceFanOut) and a capture (TraceReplayer::replay).  An
// attempt that ends in kTaskKilled or kTaskFailed is marked killed.
// Tenanted attempts land on a per-tenant process track ("pid"), so fig15-
// scale open-system runs separate cleanly by tenant in the trace viewer;
// untenanted runs keep everything on the default "cluster" process.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr {

class TraceExporter : public TraceConsumer {
 public:
  /// Job submit/finish become instant markers; task start opens an attempt
  /// that the matching finish, kill or failure closes.
  void on_trace_event(const TraceEvent& event) override;

  /// Write the collected events as a Chrome trace JSON document.
  void write_json(std::ostream& os) const;

  std::size_t event_count() const { return events_.size(); }
  /// Process-track names, indexed by pid (track 0 is "cluster").
  const std::vector<std::string>& tracks() const { return tracks_; }

 private:
  struct Attempt {
    TaskId task;
    SlotId slot;
    SimTime start = 0.0;
    SimTime end = -1.0;  ///< -1 while running
    bool killed = false;
    std::string job_name;
    std::uint32_t track = 0;  ///< pid: index into tracks_
  };
  struct Instant {
    std::string name;
    SimTime at;
  };

  void close_attempt(const TraceEvent& event, bool killed);
  std::uint32_t track_of(const std::string& tenant);
  /// (name, tenant) captured from the job's kJobSubmitted event.
  const std::pair<std::string, std::string>& job_of(JobId job) const;

  std::map<JobId, std::pair<std::string, std::string>> jobs_;
  std::map<TaskId, std::size_t> open_;  ///< running attempt -> index
  std::vector<Attempt> events_;
  std::vector<Instant> instants_;
  std::vector<std::string> tracks_{"cluster"};
  std::map<std::string, std::uint32_t> track_index_;
};

}  // namespace ssr
