#include "ssr/metrics/engine_metrics.h"

#include <utility>

#include "ssr/sched/engine.h"
#include "ssr/sched/virtual_cluster.h"

namespace ssr {

std::vector<double> default_duration_bounds() {
  return {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0};
}

EngineMetrics::JobSeries::JobSeries(MetricGroup group)
    : jobs_submitted(group.counter("jobs_submitted")),
      jobs_finished(group.counter("jobs_finished")),
      tasks_started(group.counter("tasks_started")),
      tasks_finished(group.counter("tasks_finished")),
      tasks_killed(group.counter("tasks_killed")),
      tasks_failed(group.counter("tasks_failed")),
      tasks_requeued(group.counter("tasks_requeued")),
      task_duration_seconds(group.histogram("task_duration_seconds",
                                            default_duration_bounds())),
      jct_seconds(group.histogram("jct_seconds", default_duration_bounds())) {}

EngineMetrics::EngineMetrics(MetricsRegistry& registry, std::string policy)
    : registry_(registry),
      policy_(std::move(policy)),
      group_(registry_.group({{"policy", policy_}})),
      all_(group_),
      stages_submitted_(group_.counter("stages_submitted")),
      stages_finished_(group_.counter("stages_finished")),
      stages_invalidated_(group_.counter("stages_invalidated")),
      slots_failed_(group_.counter("slots_failed")),
      slots_recovered_(group_.counter("slots_recovered")),
      reservations_made_(group_.counter("reservations_made")),
      reservations_expired_(group_.counter("reservations_expired")),
      reservations_released_(group_.counter("reservations_released")),
      reservations_broken_(group_.counter("reservations_broken")),
      makespan_seconds_(group_.gauge("makespan_seconds")),
      utilization_(group_.gauge("utilization")) {}

const EngineMetrics::JobRecord& EngineMetrics::record_of(JobId job) const {
  static const JobRecord kUnseen;
  return job.v < jobs_.size() ? jobs_[job.v] : kUnseen;
}

template <typename Update>
void EngineMetrics::count(JobId job, Update update) {
  update(all_);
  if (JobSeries* tenant = record_of(job).tenant) update(*tenant);
}

SimTime EngineMetrics::end_attempt(SlotId slot) {
  if (slot.v >= started_at_.size()) return kTimeInfinity;
  return std::exchange(started_at_[slot.v], kTimeInfinity);
}

void EngineMetrics::emit(const Engine& engine, const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kJobSubmitted: {
      if (e.job.v >= jobs_.size()) jobs_.resize(std::size_t{e.job.v} + 1);
      JobRecord& record = jobs_[e.job.v];
      record.submitted = e.time;
      if (!e.tenant.empty()) {
        const MetricGroup group =
            registry_.group({{"policy", policy_}, {"tenant", e.tenant}});
        record.tenant = &tenants_.try_emplace(e.tenant, group).first->second;
      }
      count(e.job, [](JobSeries& s) { s.jobs_submitted.inc(); });
      break;
    }
    case TraceEventKind::kJobFinished: {
      const double jct = e.time - record_of(e.job).submitted;
      count(e.job, [jct](JobSeries& s) {
        s.jobs_finished.inc();
        s.jct_seconds.observe(jct);
      });
      break;
    }
    case TraceEventKind::kStageSubmitted:
      stages_submitted_.inc();
      break;
    case TraceEventKind::kStageFinished:
      stages_finished_.inc();
      break;
    case TraceEventKind::kTaskStarted:
      if (e.slot.v >= started_at_.size()) {
        started_at_.resize(std::size_t{e.slot.v} + 1, kTimeInfinity);
      }
      started_at_[e.slot.v] = e.time;
      count(e.task.stage.job, [](JobSeries& s) { s.tasks_started.inc(); });
      break;
    case TraceEventKind::kTaskFinished: {
      const SimTime start = end_attempt(e.slot);
      count(e.task.stage.job, [&e, start](JobSeries& s) {
        s.tasks_finished.inc();
        if (start != kTimeInfinity) {
          s.task_duration_seconds.observe(e.time - start);
        }
      });
      break;
    }
    case TraceEventKind::kTaskKilled:
      end_attempt(e.slot);
      count(e.task.stage.job, [](JobSeries& s) { s.tasks_killed.inc(); });
      break;
    case TraceEventKind::kTaskFailed:
      end_attempt(e.slot);
      count(e.task.stage.job, [](JobSeries& s) { s.tasks_failed.inc(); });
      break;
    case TraceEventKind::kTaskRequeued:
      count(e.task.stage.job, [](JobSeries& s) { s.tasks_requeued.inc(); });
      break;
    case TraceEventKind::kStageInvalidated:
      stages_invalidated_.inc();
      break;
    case TraceEventKind::kSlotFailed:
      slots_failed_.inc();
      break;
    case TraceEventKind::kSlotRecovered:
      slots_recovered_.inc();
      break;
    case TraceEventKind::kSlotReserved:
      reservations_made_.inc();
      break;
    case TraceEventKind::kReservationReleased:
      switch (e.reason) {
        case ReservationEndReason::Expired:
          reservations_expired_.inc();
          break;
        case ReservationEndReason::Released:
          reservations_released_.inc();
          break;
        case ReservationEndReason::SlotFailed:
          reservations_broken_.inc();
          break;
      }
      break;
    case TraceEventKind::kRunComplete:
      makespan_seconds_.set(e.time);
      utilization_.set(engine.cluster().utilization(e.time));
      break;
  }
}

void record_recovery(MetricsRegistry& registry, const RecoveryStats& stats,
                     const std::string& policy) {
  MetricGroup g = registry.group({{"policy", policy}});
  g.counter("recovery_slots_failed").inc(stats.slots_failed);
  g.counter("recovery_slots_recovered").inc(stats.slots_recovered);
  g.counter("recovery_tasks_failed").inc(stats.tasks_failed);
  g.counter("recovery_tasks_requeued").inc(stats.tasks_requeued);
  g.counter("recovery_failures_masked").inc(stats.failures_masked);
  g.counter("recovery_stages_invalidated").inc(stats.stages_invalidated);
  g.counter("recovery_reservations_broken").inc(stats.reservations_broken);
}

void record_tenant_stats(MetricsRegistry& registry,
                         const VirtualClusterManager& vcm) {
  for (const std::string& name : vcm.tenant_names()) {
    const VirtualClusterSpec& shares = vcm.spec(name);
    const TenantStats& stats = vcm.stats(name);
    MetricGroup g = registry.group({{"tenant", name}});
    g.gauge("min_slots").set(shares.min_slots);
    g.gauge("max_slots").set(shares.max_slots);
    g.counter("jobs_submitted_total").inc(stats.submitted);
    g.counter("jobs_admitted_total").inc(stats.admitted);
    g.counter("jobs_rejected_total").inc(stats.rejected);
    g.counter("jobs_completed_total").inc(stats.completed);
    g.counter("jobs_queued_total").inc(stats.queued_total);
    g.gauge("peak_demand_slots").set(stats.peak_demand_in_flight);
    g.gauge("mean_queue_delay_seconds").set(stats.mean_queue_delay());
    g.gauge("max_queue_delay_seconds").set(stats.max_queue_delay);
    g.gauge("mean_jct_seconds").set(stats.mean_jct());
  }
}

}  // namespace ssr
