#include "ssr/audit/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr::audit {

namespace {

/// Absolute slack (slot-seconds) for the end-of-run accounting comparison;
/// scaled up with the magnitude of the compared totals to absorb float
/// accumulation error on long runs.
constexpr double kAccountingTolerance = 1e-6;

template <typename T>
std::string str(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

LedgerSlotState to_ledger(SlotState s) {
  switch (s) {
    case SlotState::Idle:
      return LedgerSlotState::Idle;
    case SlotState::Busy:
      return LedgerSlotState::Busy;
    case SlotState::ReservedIdle:
      return LedgerSlotState::ReservedIdle;
    case SlotState::Dead:
      return LedgerSlotState::Dead;
  }
  return LedgerSlotState::Idle;
}

const char* state_name(LedgerSlotState s) {
  switch (s) {
    case LedgerSlotState::Idle:
      return "Idle";
    case LedgerSlotState::Busy:
      return "Busy";
    case LedgerSlotState::ReservedIdle:
      return "ReservedIdle";
    case LedgerSlotState::Dead:
      return "Dead";
  }
  return "?";
}

}  // namespace

InvariantAuditor::InvariantAuditor(AuditOptions options) : options_(options) {}

void InvariantAuditor::attach(Engine& engine) {
  ledger(engine);  // size the mirror before any event fires
  engine.add_observer(this);
}

SlotLedger& InvariantAuditor::ledger(const Engine& engine) {
  if (!begun_) {
    TraceHeader header;
    header.num_slots = engine.cluster().num_slots();
    replay_.on_trace_begin(header);
    busy_since_.assign(header.num_slots, kTimeZero);
    reserved_since_.assign(header.num_slots, kTimeZero);
    dead_since_.assign(header.num_slots, kTimeZero);
    begun_ = true;
  }
  return replay_.ledger();
}

const std::vector<Violation>& InvariantAuditor::violations() const {
  static const std::vector<Violation> kEmpty;
  return begun_ ? replay_.ledger().violations() : kEmpty;
}

void InvariantAuditor::emit(const Engine& engine, const TraceEvent& event) {
  SlotLedger& lg = ledger(engine);
  advance_mirrors(lg, event);
  replay_.on_trace_event(event);
  if (event.kind == TraceEventKind::kRunComplete) {
    check_run_complete(engine, lg, event.time);
  }
  ++events_;
  cross_check(engine, lg);
  if (options_.throw_on_violation && violations().size() > reported_) {
    const Violation& first = violations()[reported_];
    reported_ = violations().size();
    throw CheckError("invariant audit: " + first.to_string());
  }
  reported_ = violations().size();
}

void InvariantAuditor::advance_mirrors(const SlotLedger& lg,
                                       const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kTaskStarted:
      // A start on a reserved slot consumes the reservation: close its
      // reserved-idle interval.
      if (lg.slot_state(e.slot) == LedgerSlotState::ReservedIdle) {
        reserved_seconds_ += e.time - reserved_since_[e.slot.v];
      }
      busy_since_[e.slot.v] = e.time;
      break;
    case TraceEventKind::kTaskFinished:
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed:
      if (lg.slot_state(e.slot) == LedgerSlotState::Busy) {
        busy_seconds_ += e.time - busy_since_[e.slot.v];
      }
      break;
    case TraceEventKind::kSlotFailed:
      dead_since_.at(e.slot.v) = e.time;
      break;
    case TraceEventKind::kSlotRecovered:
      if (lg.slot_state(e.slot) == LedgerSlotState::Dead) {
        dead_seconds_ += e.time - dead_since_[e.slot.v];
      }
      break;
    case TraceEventKind::kSlotReserved:
      reserved_since_.at(e.slot.v) = e.time;
      break;
    case TraceEventKind::kReservationReleased:
      if (lg.slot_state(e.slot) == LedgerSlotState::ReservedIdle) {
        reserved_seconds_ += e.time - reserved_since_[e.slot.v];
      }
      break;
    default:
      break;  // no slot-time transition
  }
}

void InvariantAuditor::cross_check(const Engine& engine, SlotLedger& lg) {
  const Cluster& cluster = engine.cluster();
  const SimTime now = engine.sim().now();
  std::uint32_t idle = 0;
  std::uint32_t busy = 0;
  std::uint32_t reserved = 0;
  std::uint32_t dead = 0;
  for (std::uint32_t i = 0; i < cluster.num_slots(); ++i) {
    const SlotId id{i};
    const SlotState actual = cluster.slot(id).state();
    const LedgerSlotState seen = lg.slot_state(id);
    if (to_ledger(actual) != seen) {
      // Bypass the ledger event API: record directly via a release/claim
      // would double-count, so synthesize the violation here.
      Violation v;
      v.invariant = kStateMismatch;
      v.time = now;
      v.subject = str(id);
      v.expected = std::string("observed-event state ") + state_name(seen);
      v.actual = std::string("cluster state ") + state_name(to_ledger(actual));
      lg.record(v);
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
      v.actual = std::string(state_name(to_ledger(actual))) +
                 " but idle-index=" + (in_idle ? "yes" : "no") +
                 " reserved-index=" + (in_reserved ? "yes" : "no") +
                 " job-index=" + (in_job ? "yes" : "no") +
                 " priority-buckets=" + (buckets_ok ? "ok" : "wrong");
      lg.record(v);
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
    lg.record(v);
  }
}

void InvariantAuditor::check_run_complete(const Engine& engine, SlotLedger& lg,
                                          SimTime now) {
  const Cluster& cluster = engine.cluster();
  // Engine::run() settles the cluster before notifying, so the cluster
  // totals and the event-stream totals describe the same interval [0, now].
  const auto check_total = [&](const char* what, double cluster_total,
                               double observed) {
    const double tolerance =
        kAccountingTolerance +
        1e-9 * std::max(std::abs(cluster_total), std::abs(observed));
    if (std::abs(cluster_total - observed) > tolerance) {
      Violation v;
      v.invariant = kSlotAccounting;
      v.time = now;
      v.subject = what;
      v.expected = "cluster total " + str(cluster_total);
      v.actual = "event-stream total " + str(observed);
      lg.record(v);
    }
  };
  check_total("busy slot-seconds", cluster.total_busy_time(), busy_seconds_);
  // Close the still-open reserved-idle intervals (e.g. a static carve-out
  // with an infinite deadline holds its slots through end of run).
  double reserved_observed = reserved_seconds_;
  for (std::uint32_t i = 0; i < cluster.num_slots(); ++i) {
    if (lg.slot_state(SlotId{i}) == LedgerSlotState::ReservedIdle) {
      reserved_observed += now - reserved_since_[i];
    }
  }
  check_total("reserved-idle slot-seconds", cluster.total_reserved_idle_time(),
              reserved_observed);
  // Close the still-open dead intervals of slots that never recovered, so
  // the dead-time comparison covers permanent failures too.
  double dead_observed = dead_seconds_;
  for (std::uint32_t i = 0; i < cluster.num_slots(); ++i) {
    if (lg.slot_state(SlotId{i}) == LedgerSlotState::Dead) {
      dead_observed += now - dead_since_[i];
    }
  }
  check_total("dead slot-seconds", cluster.total_dead_time(), dead_observed);
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
        lg.record(v);
      }
    }
  }
}

}  // namespace ssr::audit
