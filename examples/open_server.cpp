// Example: a long-lived multi-tenant scheduling service.
//
// The paper's experiments are closed batches; the system it motivates is a
// service: tenants submit jobs continuously against a shared cluster, and
// the operator carves per-tenant virtual clusters (min/max slot shares) so
// one tenant's burst cannot starve another.  This example runs that
// deployment end to end on the open-system stepping API:
//
//   * an "interactive" tenant — high-priority SQL/ML queries, a guaranteed
//     share, SSR reservations keeping its barriers tight;
//   * a "batch" tenant — a heavier elastic share with admission queueing;
//   * a "besteffort" tenant — a small share with queueing OFF, so over-quota
//     submissions are rejected outright.
//
// Midway through the stream the operator transfers slots from batch to
// interactive — an elastic resize while jobs are in flight — and the final
// table shows the admission/SLO ledger every tenant ends up with.  The whole
// run is metered through a MetricsRegistry (per-tenant label groups fed live
// by the EngineMetrics observer, the admission ledger snapshotted at drain),
// exported as one ssr-metrics-v1 JSON document — what a real deployment
// would scrape.
//
//   $ ./example_open_server [metrics.json]
#include <iomanip>
#include <iostream>

#include "ssr/metrics/engine_metrics.h"
#include "ssr/metrics/registry.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/workload/open_arrival.h"

using namespace ssr;

int main(int argc, char** argv) {
  std::cout << "Open-system service with multi-tenant virtual clusters\n\n";

  Engine engine(SchedConfig{}, /*num_nodes=*/10, /*slots_per_node=*/2,
                /*seed=*/7);  // 20 slots
  VirtualClusterManager vcm(engine);
  MetricsRegistry metrics;
  EngineMetrics meter(metrics, /*policy=*/"service");
  engine.add_observer(&meter);
  vcm.add_cluster({.name = "interactive",
                   .min_slots = 6,
                   .max_slots = 10,
                   .queue_when_full = true});
  vcm.add_cluster({.name = "batch",
                   .min_slots = 10,
                   .max_slots = 16,
                   .queue_when_full = true});
  vcm.add_cluster({.name = "besteffort",
                   .min_slots = 2,
                   .max_slots = 4,
                   .queue_when_full = false});

  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "interactive",
                      .mean_interarrival = 25.0,
                      .num_jobs = 30,
                      .min_parallelism = 4,
                      .max_parallelism = 8,
                      .priority = 10});
  profiles.push_back({.tenant = "batch",
                      .mean_interarrival = 40.0,
                      .num_jobs = 20,
                      .min_parallelism = 8,
                      .max_parallelism = 12,
                      .priority = 0});
  profiles.push_back({.tenant = "besteffort",
                      .mean_interarrival = 15.0,
                      .num_jobs = 40,
                      .min_parallelism = 2,
                      .max_parallelism = 4,
                      .priority = 0});
  const std::vector<OpenArrival> arrivals = make_open_arrivals(profiles, 42);

  // The service loop: step to each arrival, offer it to admission control.
  const SimTime rebalance_at = 400.0;
  bool rebalanced = false;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  for (const OpenArrival& arrival : arrivals) {
    if (!rebalanced && arrival.at >= rebalance_at) {
      // Operator action mid-stream: interactive traffic deserves more of the
      // cluster; move 4 slots of share out of batch while its jobs run.
      engine.advance_to(rebalance_at);
      vcm.transfer("batch", "interactive", 4);
      rebalanced = true;
      std::cout << "t=" << rebalance_at
                << ": transferred 4 slots batch -> interactive\n";
    }
    engine.advance_to(arrival.at);
    switch (vcm.submit_job(arrival.tenant, arrival.spec)) {
      case AdmissionOutcome::Admitted:
        break;
      case AdmissionOutcome::Queued:
        ++queued;
        break;
      case AdmissionOutcome::Rejected:
        ++rejected;
        break;
    }
  }
  engine.drain();

  std::cout << "stream done at t=" << std::fixed << std::setprecision(1)
            << engine.now() << " sim-s: " << engine.num_jobs()
            << " jobs admitted, " << queued << " waited in a queue, "
            << rejected << " rejected\n\n";

  std::cout << std::left << std::setw(12) << "tenant" << std::right
            << std::setw(8) << "share" << std::setw(6) << "subm"
            << std::setw(6) << "admit" << std::setw(6) << "rej"
            << std::setw(7) << "peak" << std::setw(12) << "mean-wait"
            << std::setw(12) << "mean-jct" << "\n";
  for (const std::string& name : vcm.tenant_names()) {
    const VirtualClusterSpec& shares = vcm.spec(name);
    const TenantStats& stats = vcm.stats(name);
    std::cout << std::left << std::setw(12) << name << std::right
              << std::setw(5) << shares.min_slots << "/" << std::left
              << std::setw(2) << shares.max_slots << std::right
              << std::setw(6) << stats.submitted << std::setw(6)
              << stats.admitted << std::setw(6) << stats.rejected
              << std::setw(7) << stats.peak_demand_in_flight << std::setw(12)
              << std::setprecision(1) << stats.mean_queue_delay()
              << std::setw(12) << stats.mean_jct() << "\n";
  }
  std::cout << "\nEvery admission stayed within its tenant's max share; the "
               "queues drained\nby quiescence (checked by the manager at "
               "drain()).\n";

  // End-of-run metrics export: snapshot the ledger the table above printed
  // into the registry, then write the whole document.
  record_tenant_stats(metrics, vcm);
  std::cout << "\nmetrics registry: " << metrics.num_metrics()
            << " series; per-tenant jobs_finished =";
  for (const std::string& name : vcm.tenant_names()) {
    MetricGroup tenant =
        metrics.group({{"policy", "service"}, {"tenant", name}});
    std::cout << " " << name << ":" << tenant.counter("jobs_finished").value();
  }
  std::cout << "\n";
  if (argc > 1) {
    metrics.write_json_file(argv[1]);
    std::cout << "wrote ssr-metrics-v1 document to " << argv[1] << "\n";
  } else {
    std::cout << "(pass a path to export the ssr-metrics-v1 JSON document)\n";
  }
  return 0;
}
