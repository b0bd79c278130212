// Structured invariant-violation reports.
//
// Every audited invariant has a stable string id; seeded-bug tests assert on
// the exact id, and operators grep audit logs by it.  A Violation carries the
// simulated instant, the subject (slot / task / stage), and the expected vs
// actual condition, so a report pinpoints the offending event without a
// debugger.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ssr/common/time.h"

namespace ssr::audit {

// --- Invariant ids (see DESIGN.md §7 for the paper mapping) -----------------

/// idle + busy + reserved-idle slot counts must equal cluster capacity, and
/// the cluster's idle/reserved index sets must agree with per-slot states.
inline constexpr const char* kSlotConservation = "slot-conservation";
/// The slot state the event stream implies disagrees with the cluster's.
inline constexpr const char* kStateMismatch = "slot-state-mismatch";
/// A task of an equal/lower-priority foreign job landed on a reserved slot
/// (Algorithm 1's ApprovalLogic).
inline constexpr const char* kReservedSlotPriority = "reserved-slot-priority";
/// reserve() on a slot that is not Idle.
inline constexpr const char* kDoubleReserve = "reservation-double-reserve";
/// A claim after the reservation's deadline 𝒟 passed.
inline constexpr const char* kExpiredClaim = "reservation-expired-claim";
/// release() on a slot with no active reservation.
inline constexpr const char* kDoubleRelease = "reservation-double-release";
/// An expiry fired at a time other than the reservation's deadline.
inline constexpr const char* kExpiryTime = "reservation-expiry-time";
/// Event timestamps moved backwards.
inline constexpr const char* kTimeMonotonic = "event-time-monotonic";
/// A stage was submitted (or a task started) before every upstream task
/// finished, or a stage was submitted/finished twice.
inline constexpr const char* kBarrierOrdering = "barrier-ordering";
/// Task attempt state machine broken: a start on a busy slot (which is also
/// how a second claim of one reservation shows), or a finish/kill of a task
/// that is not running on the slot.
inline constexpr const char* kTaskLifecycle = "task-lifecycle";
/// The busy / reserved-idle / dead slot-seconds the event stream implies
/// differ, in any bit, from the cluster's accounting (the RunResult fold
/// accrues the same stream with the same SlotModel).
inline constexpr const char* kSlotAccounting = "slot-accounting";
/// A dead slot was used: reserve/start/claim on a Dead slot, failure of a
/// non-drained slot, or recovery of a slot that was not Dead.
inline constexpr const char* kDeadSlotUse = "dead-slot-use";
/// End of run with a submitted stage still incomplete — a failure lost a
/// task and recovery never re-ran it.
inline constexpr const char* kTaskLost = "task-lost";

// --- Multi-tenant virtual clusters (audit/tenant_audit.h) -------------------

/// An admission pushed a tenant's in-flight slot demand past its maximum
/// share at the admission instant.
inline constexpr const char* kTenantShareOverrun = "tenant-share-overrun";
/// Admission within a tenant was not FIFO-monotone: admission instants went
/// backwards, or a job was admitted before it was requested.
inline constexpr const char* kTenantAdmissionOrder = "tenant-admission-order";
/// Virtual-cluster slot conservation broken: guaranteed minima exceed the
/// physical cluster, or a tenant's counters disagree with the replayed
/// admission/completion log.
inline constexpr const char* kTenantSlotConservation =
    "tenant-slot-conservation";

/// One invariant violation, ready for logging or test assertions.
struct Violation {
  std::string invariant;  ///< one of the k* ids above
  SimTime time = 0.0;     ///< simulated instant of the offending event
  std::string subject;    ///< e.g. "slot3", "job1/s0/t2"
  std::string expected;
  std::string actual;

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Violation& v);

/// Multi-line report ("N invariant violations:\n  ..."); empty string when
/// the list is empty.
std::string format_report(const std::vector<Violation>& violations);

}  // namespace ssr::audit
