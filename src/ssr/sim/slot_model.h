// Algorithm 1's per-slot state machine and its slot-time accounting, as the
// event stream's consumers see it.  The RunResult fold (exp/trace_replay.h)
// and the invariant audit (audit/trace_replay_auditor.h) each hold a
// SlotModel and move it at the transitions the events mark.  A move accrues the time since
// the slot's last move with Cluster::accrue's expression, and the totals sum
// the slots in id order like Cluster's, so a model driven by a run's events
// equals that run's Cluster bit for bit; ScenarioHarness::collect and
// InvariantAuditor compare the two with ==.  Cluster does not use the model:
// it stays the independent reference.
//
// The model checks nothing but slot ids.  It applies any move, legal or not,
// so each consumer decides what an illegal transition means (the fold
// throws, the audit records a violation) and one bad event does not cascade.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/ids.h"
#include "ssr/common/time.h"

namespace ssr {

/// Idle, Busy (running one attempt), ReservedIdle (empty but withheld by a
/// reservation) or Dead (failed; see sim/cluster.h).
enum class SlotState { Idle, Busy, ReservedIdle, Dead };

const char* slot_state_name(SlotState state);

class SlotModel {
 public:
  /// One slot.  `owner`, `priority` and `deadline` describe the last
  /// reservation placed on it and `task` the last attempt started there; a
  /// move leaves them as they were, so they mean something only while
  /// `state` is ReservedIdle or Busy respectively.
  struct Record {
    SlotState state = SlotState::Idle;
    JobId owner;
    int priority = 0;
    SimTime deadline = kTimeInfinity;
    TaskId task;
    SimTime since = kTimeZero;  ///< time of the last move
    double busy = 0.0;
    double reserved_idle = 0.0;
    double dead = 0.0;
  };

  explicit SlotModel(std::uint32_t num_slots = 0) : slots_(num_slots) {}

  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  /// Throws CheckError for a slot id the model does not hold, as every move
  /// does.
  const Record& at(SlotId slot) const { return slots_[index(slot)]; }

  // --- Moves ----------------------------------------------------------------
  // Each returns the elapsed time it accrued into the state the slot left.
  // Ending an attempt (Busy -> Idle) therefore returns the attempt's run
  // time: no event touches a slot between an attempt's start and its end.

  double to_busy(SlotId slot, TaskId task, SimTime now) {
    const double elapsed = to(slot, SlotState::Busy, now);
    slots_[slot.v].task = task;
    return elapsed;
  }

  double to_reserved(SlotId slot, JobId owner, int priority, SimTime deadline,
                     SimTime now) {
    const double elapsed = to(slot, SlotState::ReservedIdle, now);
    Record& r = slots_[slot.v];
    r.owner = owner;
    r.priority = priority;
    r.deadline = deadline;
    return elapsed;
  }

  double to_idle(SlotId slot, SimTime now) {
    return to(slot, SlotState::Idle, now);
  }
  double to_dead(SlotId slot, SimTime now) {
    return to(slot, SlotState::Dead, now);
  }

  /// Accrues every slot up to `now` in ascending id order (Cluster::settle).
  void settle(SimTime now);

  // --- Accounting -----------------------------------------------------------

  double total_busy() const;
  double total_reserved_idle() const;
  double total_dead() const;

  /// Reserved-idle seconds accrued by the reservations `owner` held.
  double reserved_idle_of(JobId owner) const;

 private:
  std::size_t index(SlotId slot) const {
    SSR_CHECK_MSG(slot.v < slots_.size(),
                  "trace references " << slot
                                      << " but the header declares only "
                                      << slots_.size() << " slots");
    return slot.v;
  }

  /// Accrues the time since the slot's last move into the state it leaves
  /// (under its owner's reservation, if ReservedIdle), then enters `state`.
  double to(SlotId slot, SlotState state, SimTime now) {
    Record& r = slots_[index(slot)];
    const double elapsed = accrue(r, now);
    r.state = state;
    return elapsed;
  }

  /// Cluster::accrue: the same expression into the same accumulators.
  double accrue(Record& r, SimTime now) {
    const double elapsed = now - r.since;
    switch (r.state) {
      case SlotState::Busy:
        r.busy += elapsed;
        break;
      case SlotState::ReservedIdle:
        r.reserved_idle += elapsed;
        reserved_idle_by_owner_[r.owner] += elapsed;
        break;
      case SlotState::Dead:
        r.dead += elapsed;
        break;
      case SlotState::Idle:
        break;
    }
    r.since = now;
    return elapsed;
  }

  std::vector<Record> slots_;
  /// Looked up, never iterated.  Owners include the hooks' sentinel ids near
  /// 2^32 and, on replay, ids read from an untrusted capture, so a dense
  /// vector indexed by id could be sized by any of them.
  std::unordered_map<JobId, double> reserved_idle_by_owner_;
};

}  // namespace ssr
