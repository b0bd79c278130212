// Runtime invariant auditor for the scheduling engine.
//
// InvariantAuditor attaches to an Engine as a TraceStream: every callback
// becomes the same TraceEvent a capture would hold, the event drives the
// SlotLedger through ReplayAuditor (the one event -> ledger mapping, shared
// with replayed captures), and the auditor adds what only a live engine can
// answer.  It validates, on every event, the state-machine invariants the
// paper states informally (see DESIGN.md §7 for the invariant -> paper
// mapping):
//
//  * global slot conservation: idle + busy + reserved-idle == capacity, and
//    the cluster's idle/reserved index sets agree with per-slot states;
//  * the reserved-slot priority rule: a reserved slot is only ever taken by
//    the reserving job or a strictly higher-priority job (Alg. 1);
//  * reservation lifecycle legality: reserve -> {claim | expire-at-deadline |
//    release}, never double-claim, never claim past the deadline 𝒟;
//  * event-time monotonicity across the whole observer stream;
//  * barrier ordering: no downstream-phase task starts before every upstream
//    task finished;
//  * slot-time accounting: the busy / reserved-idle / dead slot-seconds the
//    event stream implies (the same stream the RunResult fold consumes)
//    match the cluster's own accounting at end of run;
//  * failure safety: no task starts, claim, or reservation ever touches a
//    Dead slot, and no logical task is lost — at end of run every submitted
//    stage is complete even when fault injection killed attempts and
//    invalidated resident outputs.
//
// Violations produce structured audit::Violation reports; with
// `throw_on_violation` (the default, and what `-DSSR_AUDIT=ON` builds use via
// run_scenario) the first violation throws ssr::CheckError so tests and
// benches fail loudly at the offending event.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssr/audit/slot_ledger.h"
#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/audit/violation.h"
#include "ssr/common/ids.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr::audit {

struct AuditOptions {
  /// Throw ssr::CheckError at the first violation (audited builds).  When
  /// false the auditor only collects, which seeded-bug tests use to assert
  /// on exact invariant ids.
  bool throw_on_violation = true;
};

class InvariantAuditor : public TraceStream {
 public:
  explicit InvariantAuditor(AuditOptions options = {});

  /// Register with `engine` (non-owning; the auditor must outlive run()).
  /// Must be called before Engine::run().
  void attach(Engine& engine);

  // --- Results --------------------------------------------------------------

  bool clean() const { return violations().empty(); }
  const std::vector<Violation>& violations() const;
  /// Human-readable multi-line report; empty when clean.
  std::string report() const { return format_report(violations()); }
  std::uint64_t events_audited() const { return events_; }

 protected:
  /// In order: advance the slot-time mirrors from the ledger state before
  /// the transition, apply the transition (ReplayAuditor), run the
  /// end-of-run checks on kRunComplete, then cross-check the cluster and
  /// apply the throw policy.
  void emit(const Engine& engine, const TraceEvent& event) override;

 private:
  /// The ledger, sized from `engine` on first use.
  SlotLedger& ledger(const Engine& engine);
  void advance_mirrors(const SlotLedger& lg, const TraceEvent& event);
  void check_run_complete(const Engine& engine, SlotLedger& lg, SimTime now);
  void cross_check(const Engine& engine, SlotLedger& lg);

  AuditOptions options_;
  ReplayAuditor replay_;
  bool begun_ = false;  ///< replay_ has seen on_trace_begin
  std::uint64_t events_ = 0;
  std::size_t reported_ = 0;  ///< violations already thrown for

  // Slot-time accounting mirrors (indexed by slot id).
  std::vector<SimTime> busy_since_;
  std::vector<SimTime> reserved_since_;
  std::vector<SimTime> dead_since_;
  double busy_seconds_ = 0.0;
  double reserved_seconds_ = 0.0;
  double dead_seconds_ = 0.0;
};

}  // namespace ssr::audit
