// Tests for the metrics collectors (running-task series, task stats, JCT
// records) against engine-driven scenarios, and for the structured metrics
// registry (registry.h): metric resolution and label-group isolation,
// histogram bucket semantics, JSON export (escaping, empty-run eagerness),
// and the engine/recovery/tenant wiring through RunOptions.metrics.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/common/check.h"
#include "ssr/exp/open_scenario.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/engine_metrics.h"
#include "ssr/metrics/registry.h"
#include "ssr/sched/engine.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

TEST(JctCollector, RecordsCompletionsInFinishOrder) {
  Engine engine(SchedConfig{}, 1, 2, 1);
  JctCollector jcts;
  engine.add_observer(&jcts);
  engine.submit(JobBuilder("slow").priority(5)
                    .stage(1, fixed_duration(20.0)).build());
  engine.submit(JobBuilder("fast").priority(5)
                    .submit_at(1.0).stage(1, fixed_duration(5.0)).build());
  engine.run();

  const auto& recs = jcts.completions();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "fast");  // finishes at 6
  EXPECT_EQ(recs[1].name, "slow");  // finishes at 20
  EXPECT_DOUBLE_EQ(recs[0].jct(), 5.0);
  EXPECT_DOUBLE_EQ(recs[1].jct(), 20.0);
  EXPECT_EQ(recs[0].priority, 5);
}

TEST(JctCollector, NamedAndPriorityQueries) {
  Engine engine(SchedConfig{}, 2, 2, 1);
  JctCollector jcts;
  engine.add_observer(&jcts);
  engine.submit(JobBuilder("a").priority(10)
                    .stage(1, fixed_duration(4.0)).build());
  engine.submit(JobBuilder("a").priority(10)
                    .stage(1, fixed_duration(6.0)).build());
  engine.submit(JobBuilder("b").priority(0)
                    .stage(1, fixed_duration(8.0)).build());
  engine.run();

  const auto a = jcts.jcts_named("a");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(jcts.mean_jct_with_priority_at_least(5), 5.0);
  EXPECT_DOUBLE_EQ(jcts.mean_jct_with_priority_below(5), 8.0);
  EXPECT_DOUBLE_EQ(jcts.mean_jct_with_priority_at_least(100), 0.0);
}

TEST(RunningTasksSeries, UnknownJobYieldsEmptySeries) {
  RunningTasksSeries series;
  EXPECT_TRUE(series.changes(JobId{99}).empty());
  const auto sampled = series.sampled(JobId{99}, 1.0, 5.0);
  ASSERT_EQ(sampled.size(), 6u);
  for (const auto& [t, v] : sampled) EXPECT_EQ(v, 0);
}

TEST(RunningTasksSeries, RejectsNonPositiveInterval) {
  RunningTasksSeries series;
  EXPECT_THROW(series.sampled(JobId{0}, 0.0, 5.0), CheckError);
}

TEST(TaskStats, TotalsAggregateAcrossJobs) {
  Engine engine(SchedConfig{}, 2, 2, 1);
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  engine.submit(JobBuilder("x").stage(3, fixed_duration(2.0)).build());
  engine.submit(JobBuilder("y").stage(2, fixed_duration(2.0)).build());
  engine.run();
  const JobTaskStats t = fold.result().task_totals;
  EXPECT_EQ(t.tasks_started, 5u);
  EXPECT_EQ(t.tasks_finished, 5u);
  EXPECT_EQ(t.copies_started, 0u);
  EXPECT_EQ(fold.task_stats(JobId{42}).tasks_started, 0u);  // unknown job
}

// --- Metrics registry --------------------------------------------------------

std::string registry_json(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.write_json(os);
  return os.str();
}

TEST(MetricsRegistry, ResolvingSameNameAndLabelsYieldsSameInstance) {
  MetricsRegistry registry;
  registry.counter("hits").inc();
  registry.counter("hits").inc(2);
  EXPECT_EQ(registry.counter("hits").value(), 3u);
  EXPECT_EQ(registry.num_metrics(), 1u);

  registry.gauge("level").set(4.5);
  registry.gauge("level").add(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("level").value(), 5.0);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(MetricsRegistry, LabelGroupsIsolateSeries) {
  MetricsRegistry registry;
  MetricGroup a = registry.group({{"tenant", "a"}});
  MetricGroup b = registry.group({{"tenant", "b"}});
  a.counter("jobs").inc(3);
  b.counter("jobs").inc(7);
  // Same metric name, disjoint series — and the unlabeled root is a third.
  EXPECT_EQ(a.counter("jobs").value(), 3u);
  EXPECT_EQ(b.counter("jobs").value(), 7u);
  EXPECT_EQ(registry.counter("jobs").value(), 0u);
  EXPECT_EQ(registry.num_metrics(), 3u);
  // A fresh handle with equal labels resolves the same storage.
  EXPECT_EQ(registry.group({{"tenant", "a"}}).counter("jobs").value(), 3u);
}

TEST(MetricsRegistry, TypeAndBucketMismatchesAreRejected) {
  MetricsRegistry registry;
  registry.counter("m").inc();
  EXPECT_THROW(registry.gauge("m"), CheckError);
  registry.histogram("h", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("h", {1.0, 4.0}), CheckError);
  EXPECT_THROW(registry.counter("h"), CheckError);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), CheckError);
  EXPECT_THROW(Histogram({2.0, 1.0}), CheckError);
}

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);    // lands in le=1 (v <= bound, Prometheus "le")
  h.observe(1.001);  // first bucket whose bound >= v is le=2
  h.observe(2.0);    // le=2, boundary again
  h.observe(4.0);    // le=4
  h.observe(4.001);  // +inf overflow
  h.observe(-1.0);   // below every bound -> le=1

  const std::vector<std::uint64_t>& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 1.0, -1.0
  EXPECT_EQ(counts[1], 2u);  // 1.001, 2.0
  EXPECT_EQ(counts[2], 1u);  // 4.0
  EXPECT_EQ(counts[3], 1u);  // 4.001
  EXPECT_EQ(h.count(), 6u);
  // Cumulative counts are what the export writes.
  EXPECT_EQ(h.cumulative(0), 2u);
  EXPECT_EQ(h.cumulative(1), 4u);
  EXPECT_EQ(h.cumulative(2), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 2.0 + 4.0 + 4.001 - 1.0);
}

TEST(MetricsRegistry, JsonEscapesLabelAndNameText) {
  MetricsRegistry registry;
  registry.group({{"tenant", "a\"b\\c\nd"}}).counter("odd\"name").inc();
  const std::string json = registry_json(registry);
  EXPECT_NE(json.find("\"odd\\\"name\""), std::string::npos) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\u000ad"), std::string::npos) << json;
  // The raw control byte must never reach the document.
  EXPECT_EQ(json.find('\n' + std::string("d")), std::string::npos);
}

TEST(MetricsRegistry, HistogramExportEndsWithInfBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {0.5, 1.0});
  h.observe(0.25);
  h.observe(2.0);
  const std::string json = registry_json(registry);
  EXPECT_NE(json.find("\"schema\": \"ssr-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 0.5, \"count\": 1}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\": \"inf\", \"count\": 2}"), std::string::npos)
      << json;
}

// --- Engine wiring -----------------------------------------------------------

TEST(EngineMetrics, EmptyRunStillExportsEverySeries) {
  // Series are created eagerly at observer construction, so a registry that
  // never sees an event still exports a complete all-zero document.
  MetricsRegistry registry;
  EngineMetrics metrics(registry, "idle");
  const std::string json = registry_json(registry);
  for (const char* name :
       {"jobs_submitted", "jobs_finished", "tasks_started", "tasks_finished",
        "tasks_killed", "stages_submitted", "reservations_made",
        "makespan_seconds", "utilization", "task_duration_seconds",
        "jct_seconds"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "missing eager series " << name;
  }
  EXPECT_NE(json.find("{\"policy\":\"idle\"}"), std::string::npos) << json;
  // Entry storage is reference-stable across resolutions.
  EXPECT_EQ(&registry.counter("probe"), &registry.counter("probe"));
}

TEST(EngineMetrics, ScenarioRunFeedsRegistryAndRecoverySnapshot) {
  TraceGenConfig bg;
  bg.num_jobs = 5;
  bg.window = 100.0;
  bg.seed = 71;

  MetricsRegistry registry;
  RunOptions o;
  o.seed = 4;
  o.metrics = &registry;
  o.metrics_policy = "chaoslite";
  o.failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 1, 30.0, 60.0});

  const RunResult run = run_scenario(ClusterSpec{.nodes = 4, .slots_per_node = 2},
                                     make_background_jobs(bg), o);

  MetricGroup g = registry.group({{"policy", "chaoslite"}});
  EXPECT_EQ(g.counter("jobs_submitted").value(), run.jobs.size());
  EXPECT_EQ(g.counter("jobs_finished").value(), run.jobs.size());
  EXPECT_EQ(g.counter("tasks_started").value(), run.task_totals.tasks_started);
  EXPECT_EQ(g.counter("tasks_finished").value(),
            run.task_totals.tasks_finished);
  EXPECT_EQ(g.counter("tasks_failed").value(), run.task_totals.tasks_failed);
  EXPECT_DOUBLE_EQ(g.gauge("makespan_seconds").value(), run.makespan);
  EXPECT_EQ(g.histogram("jct_seconds", default_duration_bounds()).count(),
            run.jobs.size());
  // collect() snapshots the recovery counters into the same policy group.
  EXPECT_EQ(g.counter("recovery_slots_failed").value(),
            run.recovery.slots_failed);
  EXPECT_EQ(g.counter("recovery_tasks_requeued").value(),
            run.recovery.tasks_requeued);
  EXPECT_GT(run.recovery.slots_failed, 0u);
}

TEST(EngineMetrics, OpenRunRecordsPerTenantLabelGroups) {
  std::vector<OpenTenantProfile> profiles;
  for (const char* name : {"batch", "interactive"}) {
    OpenTenantProfile p;
    p.tenant = name;
    p.mean_interarrival = 10.0;
    p.num_jobs = 4;
    p.min_parallelism = 2;
    p.max_parallelism = 4;
    profiles.push_back(p);
  }
  OpenScenarioSpec spec;
  for (const char* name : {"batch", "interactive"}) {
    VirtualClusterSpec vc;
    vc.name = name;
    vc.max_slots = 6;
    vc.queue_when_full = true;
    spec.tenants.push_back(vc);
  }

  MetricsRegistry registry;
  RunOptions o;
  o.seed = 6;
  o.metrics = &registry;
  o.metrics_policy = "open";

  const RunResult run =
      run_open_scenario(ClusterSpec{.nodes = 4, .slots_per_node = 2}, spec,
                        make_open_arrivals(profiles, 99), o);

  ASSERT_EQ(run.tenants.size(), 2u);
  for (const TenantResult& t : run.tenants) {
    // Live per-tenant event series under {policy, tenant}...
    MetricGroup g =
        registry.group({{"policy", "open"}, {"tenant", t.name}});
    EXPECT_EQ(g.counter("jobs_finished").value(), t.completed) << t.name;
    // ...and the end-of-run admission-ledger snapshot under {tenant}.
    MetricGroup ledger = registry.group({{"tenant", t.name}});
    EXPECT_EQ(ledger.counter("jobs_admitted_total").value(), t.admitted);
    EXPECT_EQ(ledger.counter("jobs_rejected_total").value(), t.rejected);
    EXPECT_DOUBLE_EQ(ledger.gauge("mean_jct_seconds").value(), t.mean_jct);
  }
  const std::string json = registry_json(registry);
  EXPECT_NE(json.find("\"tenant\":\"interactive\""), std::string::npos);
}

}  // namespace
}  // namespace ssr
