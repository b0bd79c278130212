// Registry wiring for the scheduling engine.
//
// EngineMetrics is the TraceStream fold that feeds a MetricsRegistry from the
// live event stream.  Every series carries a {policy=<name>} label group, so
// reports from different scheduler configurations (nossr / ssr / carve-out)
// stay separable in one registry; a job admitted by a VirtualClusterManager
// carries its tenant (JobSpec::tenant), and its job- and task-level series
// are additionally recorded under {policy, tenant} label groups, which is
// what the per-tenant isolation dashboards aggregate.
//
// Two free functions close the loop on state that is not event-shaped:
// record_recovery() snapshots the RecoveryStats counters and
// record_tenant_stats() the VirtualClusterManager's admission ledger into
// gauge/counter series at end of run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/registry.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr {

class VirtualClusterManager;

/// Default duration-histogram bounds (seconds): exponential 0.5 .. 512.
std::vector<double> default_duration_bounds();

class EngineMetrics : public TraceStream {
 public:
  /// Series are created eagerly (so an empty run still exports a complete,
  /// all-zero document) under the {policy=`policy`} label group; a tenant's
  /// {policy, tenant} group is created at that tenant's first job.
  EngineMetrics(MetricsRegistry& registry, std::string policy);

 protected:
  /// One step of the fold; `engine` is read only at kRunComplete (the
  /// utilization gauge).
  void emit(const Engine& engine, const TraceEvent& event) override;

 private:
  /// The job- and task-level series of one label group, bound once.
  struct JobSeries {
    explicit JobSeries(MetricGroup group);

    Counter& jobs_submitted;
    Counter& jobs_finished;
    Counter& tasks_started;
    Counter& tasks_finished;
    Counter& tasks_killed;
    Counter& tasks_failed;
    Counter& tasks_requeued;
    Histogram& task_duration_seconds;
    Histogram& jct_seconds;
  };

  struct JobRecord {
    SimTime submitted = kTimeZero;
    JobSeries* tenant = nullptr;  ///< nullptr = unmetered
  };

  /// The record kJobSubmitted wrote for `job`, or an unmetered one.
  const JobRecord& record_of(JobId job) const;
  /// Count an event of `job` in the {policy} series and its tenant's.
  template <typename Update>
  void count(JobId job, Update update);
  /// Start time of the attempt that just left `slot`; kTimeInfinity when
  /// the fold saw no start there.
  SimTime end_attempt(SlotId slot);

  MetricsRegistry& registry_;
  std::string policy_;
  MetricGroup group_;  ///< {policy}
  // Declared in series-creation order: write_json lists metrics in it.
  JobSeries all_;
  Counter& stages_submitted_;
  Counter& stages_finished_;
  Counter& stages_invalidated_;
  Counter& slots_failed_;
  Counter& slots_recovered_;
  Counter& reservations_made_;
  Counter& reservations_expired_;
  Counter& reservations_released_;
  Counter& reservations_broken_;
  Gauge& makespan_seconds_;
  Gauge& utilization_;
  /// {policy, tenant} series, keyed by tenant name (node-stable, so
  /// JobRecord::tenant stays valid).
  std::map<std::string, JobSeries> tenants_;
  std::vector<JobRecord> jobs_;  ///< indexed by JobId
  /// Start time of the attempt running on each slot (indexed by SlotId):
  /// no event touches a slot between an attempt's start and its end.
  std::vector<SimTime> started_at_;
};

/// Snapshot the fault-injection outcome counters under {policy=`policy`}.
void record_recovery(MetricsRegistry& registry, const RecoveryStats& stats,
                     const std::string& policy);

/// Snapshot every tenant's admission/SLO ledger under {tenant=<name>} label
/// groups (shares, admission counts, queue delays, peak demand).
void record_tenant_stats(MetricsRegistry& registry,
                         const VirtualClusterManager& vcm);

}  // namespace ssr
