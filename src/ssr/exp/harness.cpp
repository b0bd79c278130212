#include "ssr/exp/harness.h"

#include <ios>
#include <utility>

#include "ssr/audit/invariant_auditor.h"
#include "ssr/common/check.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/metrics/engine_metrics.h"

namespace ssr {
namespace {

/// Installs the run's reservation hook (the engine owns it) and returns it
/// when it is a ReservationManager, whose expiry counter the fold
/// reproduces.
const ReservationManager* install_hook(Engine& engine,
                                       const RunOptions& options) {
  std::unique_ptr<ReservationHook> hook;
  if (options.hook_factory) {
    hook = options.hook_factory();
  } else if (options.ssr) {
    hook = std::make_unique<ReservationManager>(*options.ssr);
  }
  if (hook == nullptr) return nullptr;
  const auto* manager = dynamic_cast<const ReservationManager*>(hook.get());
  engine.set_reservation_hook(std::move(hook));
  return manager;
}

TraceHeader run_header(const Engine& engine, const RunOptions& options,
                       bool counts_expired, const DetectionOutcome& detection) {
  TraceHeader header = header_for(engine);
  header.seed = options.seed;
  header.counts_expired = counts_expired;
  header.suspicions = detection.suspicions.size();
  header.false_suspicions = detection.false_suspicions();
  header.policy = options.metrics_policy;
  return header;
}

void check_same(double folded, double reference, const char* what,
                JobId job) {
  SSR_CHECK_MSG(folded == reference,
                "RunResult fold disagrees with the engine on "
                    << what << " of " << job << ": " << std::hexfloat
                    << folded << " vs " << reference);
}

void check_same(double folded, double reference, const char* what) {
  SSR_CHECK_MSG(folded == reference,
                "RunResult fold disagrees with the engine on "
                    << what << ": " << std::hexfloat << folded << " vs "
                    << reference);
}

/// The fold must agree bit for bit with the accounting the Cluster and
/// Engine keep themselves: that is the reference every live-vs-replay
/// comparison rests on.
void check_against_engine(const RunResult& result, const Engine& engine,
                          const ReservationManager* manager) {
  const Cluster& cluster = engine.cluster();
  check_same(result.busy_time, cluster.total_busy_time(), "busy slot-seconds");
  check_same(result.reserved_idle_time, cluster.total_reserved_idle_time(),
             "reserved-idle slot-seconds");
  check_same(result.dead_time, cluster.total_dead_time(), "dead slot-seconds");
  for (const JobResult& j : result.jobs) {
    check_same(j.submit, engine.graph(j.id).submit_time(), "submit time",
               j.id);
    check_same(j.finish, engine.job_finish_time(j.id), "finish time", j.id);
    check_same(j.reserved_idle_seconds, cluster.reserved_idle_time_of(j.id),
               "reserved-idle slot-seconds", j.id);
  }
  if (manager != nullptr) {
    SSR_CHECK_EQ(result.reservations_expired, manager->reservations_expired());
  }
}

}  // namespace

ScenarioHarness::ScenarioHarness(const ClusterSpec& cluster,
                                 const RunOptions& options)
    : engine_(options.sched, cluster.nodes, cluster.slots_per_node,
              cluster.node_slots, options.seed),
      detection_(
          detect_failures(options.failures, options.detector, cluster.nodes)),
      injector_(detection_.detected),
      manager_(install_hook(engine_, options)),
      stream_(run_header(engine_, options,
                         /*counts_expired=*/manager_ != nullptr, detection_)),
      capture_path_(options.capture_path) {
  stream_.attach(fold_);
  engine_.add_observer(&stream_);
  if (!capture_path_.empty()) {
    recorder_ = std::make_unique<TraceRecorder>(
        cluster.nodes, engine_.cluster().num_slots(), options.seed,
        options.metrics_policy, /*counts_expired=*/manager_ != nullptr);
    recorder_->set_detector_outcome(detection_.suspicions.size(),
                                    detection_.false_suspicions());
    engine_.add_observer(recorder_.get());
  }
  if (options.metrics != nullptr) {
    registry_ = options.metrics;
    metrics_policy_ = options.metrics_policy;
    metrics_ = std::make_unique<EngineMetrics>(*options.metrics,
                                               options.metrics_policy);
    engine_.add_observer(metrics_.get());
  }
  if (!detection_.detected.empty()) {
    injector_.attach(engine_.sim(), engine_);
  }
#if defined(SSR_AUDIT_ENABLED)
  // -DSSR_AUDIT=ON: every scenario run (each test case and bench/sweep
  // trial) is audited; the first invariant violation throws CheckError.
  auditor_ = std::make_unique<audit::InvariantAuditor>();
  auditor_->attach(engine_);
#endif
}

ScenarioHarness::~ScenarioHarness() = default;

void ScenarioHarness::set_tenant_resolver(
    const std::function<const std::string*(JobId)>& resolver) {
  stream_.set_tenant_resolver(resolver);
  if (recorder_ != nullptr) recorder_->set_tenant_resolver(resolver);
  if (metrics_ != nullptr) metrics_->set_tenant_resolver(resolver);
  if (auditor_ != nullptr) auditor_->set_tenant_resolver(resolver);
}

RunResult ScenarioHarness::collect(const std::vector<JobId>& ids) {
  RunResult result = fold_.result();  // throws unless the engine drained
  SSR_CHECK_MSG(ids.size() == result.jobs.size(),
                "collect() takes every job in submission order: got "
                    << ids.size() << " ids for " << result.jobs.size()
                    << " jobs");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SSR_CHECK_EQ(ids[i], result.jobs[i].id);
  }
  check_against_engine(result, engine_, manager_);
  if (registry_ != nullptr) {
    // End-of-run snapshot of the non-event-shaped state (the per-event
    // series were fed live by the EngineMetrics observer).
    record_recovery(*registry_, result.recovery, metrics_policy_);
  }
  if (recorder_ != nullptr && !capture_path_.empty()) {
    recorder_->write_file(capture_path_);
  }
  return result;
}

}  // namespace ssr
