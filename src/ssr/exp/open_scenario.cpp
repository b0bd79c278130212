#include "ssr/exp/open_scenario.h"

#include <utility>

#include "ssr/audit/tenant_audit.h"
#include "ssr/audit/violation.h"
#include "ssr/common/check.h"
#include "ssr/exp/harness.h"
#include "ssr/metrics/engine_metrics.h"

namespace ssr {

RunResult run_open_scenario(const ClusterSpec& cluster,
                            const OpenScenarioSpec& spec,
                            std::vector<OpenArrival> arrivals,
                            const RunOptions& options) {
  ScenarioHarness harness(cluster, options);
  Engine& engine = harness.engine();
  VirtualClusterManager vcm(engine);
  for (const VirtualClusterSpec& tenant : spec.tenants) {
    vcm.add_cluster(tenant);
  }
  // Tenancy is registered at admission, before the arrival event fires, so
  // tenant_of resolves by the time on_job_submitted reaches any observer.
  harness.set_tenant_resolver([&vcm](JobId job) { return vcm.tenant_of(job); });

  SimTime last = 0.0;
  for (OpenArrival& arrival : arrivals) {
    SSR_CHECK_MSG(arrival.at >= last,
                  "open arrivals must be sorted by time (job '"
                      << arrival.spec.name << "' at " << arrival.at
                      << " after " << last << ")");
    last = arrival.at;
    engine.advance_to(arrival.at);
    vcm.submit_job(arrival.tenant, std::move(arrival.spec));
  }
  engine.drain();

#if defined(SSR_AUDIT_ENABLED)
  {
    const std::vector<audit::Violation> violations =
        audit::audit_virtual_clusters(vcm, engine.cluster().num_slots());
    SSR_CHECK_MSG(violations.empty(), audit::format_report(violations));
  }
#endif

  // Admitted jobs got dense ids in admission order; rejected submissions
  // never entered the engine.
  std::vector<JobId> ids;
  ids.reserve(engine.num_jobs());
  for (std::uint32_t i = 0; i < engine.num_jobs(); ++i) {
    ids.push_back(JobId{i});
  }
  RunResult result = harness.collect(ids);

  result.tenants.reserve(spec.tenants.size());
  for (const std::string& name : vcm.tenant_names()) {
    const VirtualClusterSpec& shares = vcm.spec(name);
    const TenantStats& stats = vcm.stats(name);
    TenantResult tr;
    tr.name = name;
    tr.min_slots = shares.min_slots;
    tr.max_slots = shares.max_slots;
    tr.submitted = stats.submitted;
    tr.admitted = stats.admitted;
    tr.rejected = stats.rejected;
    tr.completed = stats.completed;
    tr.queued = stats.queued_total;
    tr.peak_demand = stats.peak_demand_in_flight;
    tr.mean_queue_delay = stats.mean_queue_delay();
    tr.max_queue_delay = stats.max_queue_delay;
    tr.mean_jct = stats.mean_jct();
    result.tenants.push_back(std::move(tr));
  }
  if (options.metrics != nullptr) {
    record_tenant_stats(*options.metrics, vcm);
  }
  return result;
}

}  // namespace ssr
