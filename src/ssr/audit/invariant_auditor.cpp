#include "ssr/audit/invariant_auditor.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr::audit {

namespace {

template <typename T>
std::string str(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// Enough digits to tell apart any two doubles the exact comparison does.
std::string exact(double value) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

}  // namespace

InvariantAuditor::InvariantAuditor(AuditOptions options) : options_(options) {}

void InvariantAuditor::attach(Engine& engine) {
  replay_.on_trace_begin(header_for(engine));
  engine.add_observer(this);
}

void InvariantAuditor::emit(const Engine& engine, const TraceEvent& event) {
  replay_.on_trace_event(event);
  if (event.kind == TraceEventKind::kRunComplete) {
    check_run_complete(engine, event.time);
  }
  ++events_;
  cross_check(engine);
  if (options_.throw_on_violation && violations().size() > reported_) {
    const Violation& first = violations()[reported_];
    reported_ = violations().size();
    throw CheckError("invariant audit: " + first.to_string());
  }
  reported_ = violations().size();
}

void InvariantAuditor::cross_check(const Engine& engine) {
  const Cluster& cluster = engine.cluster();
  const SimTime now = engine.sim().now();
  std::uint32_t idle = 0;
  std::uint32_t busy = 0;
  std::uint32_t reserved = 0;
  std::uint32_t dead = 0;
  for (std::uint32_t i = 0; i < cluster.num_slots(); ++i) {
    const SlotId id{i};
    const SlotState actual = cluster.slot(id).state();
    const SlotState seen = replay_.model().at(id).state;
    if (actual != seen) {
      Violation v;
      v.invariant = kStateMismatch;
      v.time = now;
      v.subject = str(id);
      v.expected = std::string("observed-event state ") +
                   slot_state_name(seen);
      v.actual = std::string("cluster state ") + slot_state_name(actual);
      replay_.record(v);
    }
    switch (actual) {
      case SlotState::Idle:
        ++idle;
        break;
      case SlotState::Busy:
        ++busy;
        break;
      case SlotState::ReservedIdle:
        ++reserved;
        break;
      case SlotState::Dead:
        ++dead;
        break;
    }
    const bool in_idle = cluster.idle_slots().contains(id);
    const bool in_reserved = cluster.reserved_idle_slots().contains(id);
    // A ReservedIdle slot is also in its job's list and its priority's
    // bucket, and a bucket holds only ReservedIdle slots of its priority.
    const std::optional<Reservation>& r = cluster.slot(id).reservation();
    bool in_job = false;
    bool buckets_ok = true;
    if (actual == SlotState::ReservedIdle) {
      const std::vector<SlotId>& mine = cluster.reserved_idle_slots_of(r->job);
      in_job = std::binary_search(mine.begin(), mine.end(), id);
      buckets_ok = cluster.reserved_idle_by_priority().contains(r->priority);
    }
    for (const auto& [priority, bucket] : cluster.reserved_idle_by_priority()) {
      const bool expected = actual == SlotState::ReservedIdle &&
                            r->priority == priority;
      buckets_ok = buckets_ok && bucket.contains(id) == expected;
    }
    const bool index_ok = ((actual == SlotState::Idle && in_idle &&
                            !in_reserved) ||
                           (actual == SlotState::ReservedIdle && in_reserved &&
                            !in_idle && in_job) ||
                           ((actual == SlotState::Busy ||
                             actual == SlotState::Dead) &&
                            !in_idle && !in_reserved)) &&
                          buckets_ok;
    if (!index_ok) {
      Violation v;
      v.invariant = kSlotConservation;
      v.time = now;
      v.subject = str(id);
      v.expected = "free-slot indexes consistent with slot state";
      v.actual = std::string(slot_state_name(actual)) +
                 " but idle-index=" + (in_idle ? "yes" : "no") +
                 " reserved-index=" + (in_reserved ? "yes" : "no") +
                 " job-index=" + (in_job ? "yes" : "no") +
                 " priority-buckets=" + (buckets_ok ? "ok" : "wrong");
      replay_.record(v);
    }
  }
  const std::uint32_t total = idle + busy + reserved + dead;
  const bool sizes_ok =
      cluster.idle_slots().size() == idle &&
      cluster.reserved_idle_slots().size() == reserved &&
      total == cluster.num_slots();
  if (!sizes_ok) {
    Violation v;
    v.invariant = kSlotConservation;
    v.time = now;
    v.subject = "cluster";
    v.expected =
        "idle + busy + reserved-idle + dead == " + str(cluster.num_slots());
    v.actual = str(idle) + " + " + str(busy) + " + " + str(reserved) + " + " +
               str(dead) + " (idle index " + str(cluster.idle_slots().size()) +
               ", reserved index " +
               str(cluster.reserved_idle_slots().size()) + ")";
    replay_.record(v);
  }
}

void InvariantAuditor::check_run_complete(const Engine& engine, SimTime now) {
  const Cluster& cluster = engine.cluster();
  const SlotModel& model = replay_.model();
  // Engine::drain settles the cluster before notifying, and replay_ settled
  // its model on this event, so both describe [0, now].  Both accrue
  // the same transitions with the same expression and sum the slots in the
  // same order, so any difference at all is a divergence.
  const auto check_total = [&](const char* what, double cluster_total,
                               double observed) {
    if (cluster_total != observed) {
      Violation v;
      v.invariant = kSlotAccounting;
      v.time = now;
      v.subject = what;
      v.expected = "cluster total " + exact(cluster_total);
      v.actual = "event-stream total " + exact(observed);
      replay_.record(v);
    }
  };
  check_total("busy slot-seconds", cluster.total_busy_time(),
              model.total_busy());
  check_total("reserved-idle slot-seconds", cluster.total_reserved_idle_time(),
              model.total_reserved_idle());
  check_total("dead slot-seconds", cluster.total_dead_time(),
              model.total_dead());
  // No task lost: a failure may kill attempts and invalidate outputs, but
  // recovery must leave every submitted stage complete by end of run.
  for (std::uint32_t j = 0; j < engine.num_jobs(); ++j) {
    const JobId job{j};
    const std::uint32_t stages = engine.graph(job).num_stages();
    for (std::uint32_t s = 0; s < stages; ++s) {
      const StageRuntime* st = engine.stage_runtime(StageId{job, s});
      if (st != nullptr && !st->complete()) {
        Violation v;
        v.invariant = kTaskLost;
        v.time = now;
        v.subject = str(StageId{job, s});
        v.expected = "every submitted stage complete at end of run";
        v.actual = str(st->finished_count()) + "/" + str(st->parallelism()) +
                   " tasks finished";
        replay_.record(v);
      }
    }
  }
}

}  // namespace ssr::audit
