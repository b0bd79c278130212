// Shared engine wiring for scenario runners and equivalence tests.
//
// ScenarioHarness bundles exactly what run_scenario() builds around an
// Engine — reservation hook, the RunResult fold, failure injector, and
// (under -DSSR_AUDIT=ON) the invariant auditor — in one construction order,
// so the closed harness (scenario.cpp), the open-system runner
// (open_scenario.cpp), and the open-vs-closed equivalence suite all drive
// *identically configured* engines.  The bit-identical guarantee between
// run_scenario() and incremental submit/advance_to stepping rests on this
// shared wiring: any attach-order drift would shift observer callback order
// and break digest equality.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ssr/exp/scenario.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sched/engine.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"

namespace ssr::audit {
class InvariantAuditor;
}  // namespace ssr::audit

namespace ssr {

class EngineMetrics;
class ReservationManager;

class ScenarioHarness {
 public:
  /// Builds the engine and attaches, in order: reservation hook, a
  /// TraceFanOut feeding the RunResult fold, trace recorder (only when
  /// options.capture_path is set), metrics observer (only when
  /// options.metrics is set), failure injector (only for non-empty detected
  /// schedules — a failure-free run stays bit-identical to one that never
  /// saw an injector), invariant auditor (only when the library was built
  /// with -DSSR_AUDIT=ON).  The injector is driven by the failure
  /// detector's *detected* schedule (sim/failure_detector.h), which equals
  /// the ground truth verbatim when the detector is off.
  ScenarioHarness(const ClusterSpec& cluster, const RunOptions& options);
  ~ScenarioHarness();

  ScenarioHarness(const ScenarioHarness&) = delete;
  ScenarioHarness& operator=(const ScenarioHarness&) = delete;

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

  /// The detector's verdict on options.failures (pass-through when off).
  const DetectionOutcome& detection() const { return detection_; }

  /// The folded RunResult after the engine drained.  `ids` must be every
  /// job in submission order, which is the fold's row order.  Throws
  /// CheckError if the fold disagrees with the Cluster's or Engine's own
  /// accounting in any bit.  Also writes the capture file when
  /// options.capture_path was set.
  RunResult collect(const std::vector<JobId>& ids);

 private:
  Engine engine_;
  DetectionOutcome detection_;
  FailureInjector injector_;
  /// Typed view of the installed hook when it is a ReservationManager.
  const ReservationManager* manager_ = nullptr;
  TraceFanOut stream_;
  ReplayResultBuilder fold_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<EngineMetrics> metrics_;
  /// Registry + policy label for the end-of-run snapshots collect() records
  /// (recovery counters); non-owning, mirrors options.metrics.
  MetricsRegistry* registry_ = nullptr;
  std::string metrics_policy_;
  std::string capture_path_;
  /// Present only when ssr_exp was compiled with SSR_AUDIT_ENABLED; kept as
  /// a pointer so this header stays macro-free (no ODR drift between the
  /// library and test translation units).
  std::unique_ptr<audit::InvariantAuditor> auditor_;
};

}  // namespace ssr
