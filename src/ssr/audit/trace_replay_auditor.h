// The one mapping from TraceEvents to SlotLedger calls.
//
// ReplayAuditor runs the invariant audit over an event stream with no
// Engine: each TraceEvent maps onto one SlotLedger call (claim-vs-start
// split on the ledger's own reserved state, task_failed folded onto
// on_kill, stage parents from the captured barrier lists, run completion
// settling the ledger's slot-time accounting).  It audits a
// capture through TraceReplayer, and InvariantAuditor forwards every live
// event to one, adding the cross-checks against the Engine.  A capture of a
// clean run must replay clean; a capture that trips the ledger names the
// violated invariant — the replay-verify CI step uses this to re-certify
// committed fixtures without re-simulating them.
#pragma once

#include <map>
#include <optional>

#include "ssr/audit/slot_ledger.h"
#include "ssr/common/ids.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr::audit {

class ReplayAuditor : public TraceConsumer {
 public:
  void on_trace_begin(const TraceHeader& header) override;
  void on_trace_event(const TraceEvent& event) override;

  /// Valid after on_trace_begin (replay() fires it first).
  const SlotLedger& ledger() const;
  SlotLedger& ledger();

  bool clean() const { return ledger().clean(); }

 private:
  std::optional<SlotLedger> ledger_;
  /// Job priorities captured at submission (the claim check's input).
  std::map<JobId, int> priority_;
};

}  // namespace ssr::audit
