// Heartbeat failure-detector suite (sim/failure_detector.h).
//
// The detector is a pure schedule transform, so most of the contract is
// testable without an engine: pass-through when disabled, the detection
// latency bound, invisibility of sub-timeout outages, false suspicions under
// channel noise (and their guaranteed clearing), per-target stream
// independence, and input validation.  Two end-to-end legs pin the
// integration: a differential no-op — event streams of detector-off runs are
// byte-identical to runs that never had a detector field set at all — and a
// false-suspicion reconciliation run where the engine kills healthy nodes on
// suspicion and the late recovery reconciles through the same epoch guards
// as a true recovery, with every job still completing.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/common/check.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/scenario.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FailureEvent node_failure(std::uint32_t id, SimTime fail, SimTime recover) {
  return FailureEvent{FailureEvent::Scope::Node, id, fail, recover};
}

// --- Pass-through (detector off) ---------------------------------------------

TEST(FailureDetector, DisabledConfigPassesTruthThroughVerbatim) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(2, 30.0, 60.0));
  truth.events.push_back(node_failure(1, 10.0, kTimeInfinity));

  // heartbeat_period == 0 disables the detector regardless of the other
  // knobs (even invalid ones — nothing else is read).
  FailureDetectorConfig off;
  off.heartbeat_loss = 0.75;
  off.seed = 99;
  const DetectionOutcome out = detect_failures(truth, off, 8);

  EXPECT_TRUE(out.suspicions.empty());
  EXPECT_EQ(out.false_suspicions(), 0u);
  ASSERT_EQ(out.detected.events.size(), truth.events.size());
  for (std::size_t i = 0; i < truth.events.size(); ++i) {
    EXPECT_EQ(out.detected.events[i].scope, truth.events[i].scope);
    EXPECT_EQ(out.detected.events[i].id, truth.events[i].id);
    EXPECT_EQ(out.detected.events[i].fail_at, truth.events[i].fail_at);
    EXPECT_EQ(out.detected.events[i].recover_at, truth.events[i].recover_at);
  }
}

// --- Deterministic single-target timelines -----------------------------------

TEST(FailureDetector, SuspicionFiresAtTimeoutThBeatAndClearsAtNextDelivery) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(1, 11.0, 45.0));  // beats 20/30/40 missed

  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 10.0;
  cfg.timeout_beats = 3;
  const DetectionOutcome out = detect_failures(truth, cfg, 4);

  ASSERT_EQ(out.suspicions.size(), 1u);
  const SuspicionRecord& s = out.suspicions.front();
  EXPECT_EQ(s.id, 1u);
  EXPECT_EQ(s.suspected_at, 40.0);  // third consecutive missed beat
  EXPECT_EQ(s.cleared_at, 50.0);    // first delivered beat after recovery
  EXPECT_EQ(s.truth_fail_at, 11.0);
  EXPECT_FALSE(s.false_suspicion());
  EXPECT_EQ(s.latency(), 29.0);

  // The engine-facing schedule is exactly the suspicion window.
  ASSERT_EQ(out.detected.events.size(), 1u);
  EXPECT_EQ(out.detected.events.front().fail_at, 40.0);
  EXPECT_EQ(out.detected.events.front().recover_at, 50.0);
}

TEST(FailureDetector, OutageShorterThanTimeoutWindowIsNeverDetected) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(1, 11.0, 35.0));  // misses only 20, 30

  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 10.0;
  cfg.timeout_beats = 3;
  const DetectionOutcome out = detect_failures(truth, cfg, 4);
  EXPECT_TRUE(out.suspicions.empty());
  EXPECT_TRUE(out.detected.events.empty());
}

TEST(FailureDetector, PermanentFailureYieldsUnclearedSuspicion) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(2, 11.0, kTimeInfinity));

  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 10.0;
  cfg.timeout_beats = 2;
  const DetectionOutcome out = detect_failures(truth, cfg, 4);
  ASSERT_EQ(out.suspicions.size(), 1u);
  EXPECT_EQ(out.suspicions.front().suspected_at, 30.0);
  EXPECT_EQ(out.suspicions.front().cleared_at, kTimeInfinity);
  ASSERT_EQ(out.detected.events.size(), 1u);
  EXPECT_EQ(out.detected.events.front().recover_at, kTimeInfinity);
}

// --- Latency bound over random schedules -------------------------------------

TEST(FailureDetector, DetectionLatencyBoundHoldsOver100RandomSchedules) {
  std::uint64_t detections = 0;
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    std::uint64_t s = 0xde7ec7ull ^ (trial * 0x85ebull);
    RandomFailureConfig f;
    f.num_nodes = 3 + static_cast<std::uint32_t>(splitmix64(s) % 6);
    f.horizon = 120.0;
    f.failures = 1 + static_cast<std::uint32_t>(splitmix64(s) % 5);
    f.min_downtime = 1.0;
    f.max_downtime = 40.0;
    f.permanent_fraction = static_cast<double>(splitmix64(s) % 3) * 0.2;
    f.seed = 0x1a7e + trial;

    FailureDetectorConfig cfg;
    cfg.heartbeat_period = 1.0 + static_cast<double>(splitmix64(s) % 5);
    cfg.timeout_beats = 1 + static_cast<std::uint32_t>(splitmix64(s) % 4);
    const SimDuration bound =
        static_cast<double>(cfg.timeout_beats) * cfg.heartbeat_period;

    const DetectionOutcome out =
        detect_failures(make_random_node_failures(f), cfg, f.num_nodes);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(out.detected.events.size(), out.suspicions.size());
    for (const SuspicionRecord& rec : out.suspicions) {
      // A noiseless channel can never fabricate a suspicion...
      ASSERT_FALSE(rec.false_suspicion());
      // ...and every real detection lags the truth by at most the window.
      EXPECT_GE(rec.latency(), 0.0);
      EXPECT_LE(rec.latency(), bound + 1e-9);
      EXPECT_GT(rec.cleared_at, rec.suspected_at);
      ++detections;
    }
  }
  EXPECT_GT(detections, 50u);  // the sweep must actually detect things
}

// --- Channel noise -----------------------------------------------------------

TEST(FailureDetector, LossyChannelFabricatesFalseSuspicionsThatAllClear) {
  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 5.0;
  cfg.timeout_beats = 2;
  cfg.heartbeat_loss = 0.5;
  cfg.noise_horizon = 200.0;
  cfg.seed = 1;

  const DetectionOutcome out = detect_failures(FailureSchedule{}, cfg, 4);
  EXPECT_FALSE(out.suspicions.empty());
  EXPECT_EQ(out.false_suspicions(), out.suspicions.size());
  for (const SuspicionRecord& s : out.suspicions) {
    EXPECT_TRUE(s.false_suspicion());
    // Node 0's channel is reliable: it can never be falsely suspected.
    EXPECT_NE(s.id, 0u);
    // Noise stops at the horizon, so every false suspicion eventually ends
    // at a delivered beat.
    EXPECT_LT(s.cleared_at, kTimeInfinity);
    EXPECT_LE(s.cleared_at, cfg.noise_horizon + cfg.heartbeat_period);
  }
}

TEST(FailureDetector, AddingMonitoredNodesNeverPerturbsExistingStreams) {
  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 5.0;
  cfg.timeout_beats = 2;
  cfg.heartbeat_loss = 0.4;
  cfg.noise_horizon = 150.0;
  cfg.seed = 7;

  const DetectionOutcome small = detect_failures(FailureSchedule{}, cfg, 4);
  const DetectionOutcome large = detect_failures(FailureSchedule{}, cfg, 6);

  // Nodes 1..3 are monitored in both runs; their windows must be identical —
  // each target draws from an independent fork keyed by its position, so
  // widening the monitored set only appends streams.
  std::vector<SuspicionRecord> small_low, large_low;
  for (const SuspicionRecord& s : small.suspicions) small_low.push_back(s);
  for (const SuspicionRecord& s : large.suspicions) {
    if (s.id < 4) large_low.push_back(s);
  }
  ASSERT_EQ(small_low.size(), large_low.size());
  for (std::size_t i = 0; i < small_low.size(); ++i) {
    EXPECT_EQ(small_low[i].id, large_low[i].id);
    EXPECT_EQ(small_low[i].suspected_at, large_low[i].suspected_at);
    EXPECT_EQ(small_low[i].cleared_at, large_low[i].cleared_at);
  }
}

TEST(FailureDetector, TransformIsDeterministic) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(1, 12.0, 44.0));
  truth.events.push_back(node_failure(3, 30.0, kTimeInfinity));
  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 3.0;
  cfg.timeout_beats = 2;
  cfg.heartbeat_loss = 0.2;
  cfg.noise_horizon = 100.0;
  cfg.seed = 42;

  const DetectionOutcome a = detect_failures(truth, cfg, 6);
  const DetectionOutcome b = detect_failures(truth, cfg, 6);
  ASSERT_EQ(a.suspicions.size(), b.suspicions.size());
  for (std::size_t i = 0; i < a.suspicions.size(); ++i) {
    EXPECT_EQ(a.suspicions[i].id, b.suspicions[i].id);
    EXPECT_EQ(a.suspicions[i].suspected_at, b.suspicions[i].suspected_at);
    EXPECT_EQ(a.suspicions[i].cleared_at, b.suspicions[i].cleared_at);
    EXPECT_EQ(a.suspicions[i].truth_fail_at, b.suspicions[i].truth_fail_at);
  }
}

// --- Validation --------------------------------------------------------------

TEST(FailureDetector, InvalidConfigsAreRejected) {
  FailureSchedule truth;
  truth.events.push_back(node_failure(1, 10.0, 20.0));

  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 5.0;
  cfg.timeout_beats = 0;
  EXPECT_THROW(detect_failures(truth, cfg, 4), CheckError);

  cfg.timeout_beats = 2;
  cfg.heartbeat_loss = 1.0;  // a fully-lossy channel never clears
  EXPECT_THROW(detect_failures(truth, cfg, 4), CheckError);

  cfg.heartbeat_loss = 0.1;
  cfg.noise_horizon = -1.0;
  EXPECT_THROW(detect_failures(truth, cfg, 4), CheckError);
}

// --- End-to-end: differential no-op ------------------------------------------

/// Run a scenario through the shared harness with a recorder attached,
/// returning the full event stream.
std::vector<TraceEvent> harness_event_log(const ClusterSpec& cluster,
                                          std::vector<JobSpec> jobs,
                                          const RunOptions& options) {
  ScenarioHarness harness(cluster, options);
  TraceRecorder log(cluster.nodes, cluster.total_slots(), options.seed, "log",
                    /*counts_expired=*/false);
  harness.engine().add_observer(&log);
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    ids.push_back(harness.engine().submit(std::move(spec)));
  }
  harness.engine().run();
  harness.collect(ids);
  return decode_events(TraceReplayer::from_bytes(log.serialize()));
}

/// Assert two event streams are identical (every field, times compared
/// exactly), reporting the first divergence.
void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(a[i] == b[i]) << "event streams diverge at event " << i
                              << " (kinds " << static_cast<int>(a[i].kind)
                              << " / " << static_cast<int>(b[i].kind) << ")";
  }
  EXPECT_EQ(a.size(), b.size())
      << "event streams have a common prefix but different lengths";
}

ClusterSpec small_cluster() { return ClusterSpec{.nodes = 6, .slots_per_node = 2}; }

std::vector<JobSpec> small_mix(std::uint64_t seed) {
  TraceGenConfig bg;
  bg.num_jobs = 6;
  bg.window = 120.0;
  bg.seed = seed;
  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(6, 10, 30.0));
  return jobs;
}

TEST(FailureDetectorDifferential, PeriodZeroRunIsByteIdenticalToDefault) {
  // Same truth failure schedule on both sides; side B sets every detector
  // knob except the period, which stays 0 — the detector must be a strict
  // no-op, down to the exact callback interleaving.
  RunOptions base;
  base.seed = 5;
  base.ssr = SsrConfig{};
  base.ssr->min_reserving_priority = 1;
  base.failures.events.push_back(node_failure(2, 40.0, 70.0));
  base.failures.events.push_back(node_failure(4, 55.0, kTimeInfinity));

  RunOptions with_detector_fields = base;
  with_detector_fields.detector.heartbeat_loss = 0.9;
  with_detector_fields.detector.timeout_beats = 7;
  with_detector_fields.detector.seed = 123;

  const std::vector<TraceEvent> a =
      harness_event_log(small_cluster(), small_mix(501), base);
  const std::vector<TraceEvent> b =
      harness_event_log(small_cluster(), small_mix(501), with_detector_fields);
  ASSERT_FALSE(a.empty());
  expect_same_events(a, b);
}

TEST(FailureDetectorDifferential, CleanChannelOnHealthyClusterIsNoOp) {
  // Detector armed (period > 0) but no truth failures and no noise: the
  // detected schedule is empty, no injector attaches, and the run is
  // byte-identical to one that never had detector or failure machinery.
  RunOptions plain;
  plain.seed = 9;

  RunOptions detected = plain;
  detected.detector.heartbeat_period = 3.0;
  detected.detector.timeout_beats = 2;

  const std::vector<TraceEvent> a =
      harness_event_log(small_cluster(), small_mix(777), plain);
  const std::vector<TraceEvent> b =
      harness_event_log(small_cluster(), small_mix(777), detected);
  ASSERT_FALSE(a.empty());
  expect_same_events(a, b);
}

// --- End-to-end: suspicion consequences --------------------------------------

/// Time of the first slot_failed event in the run's capture.
SimTime first_slot_failure_at(const std::string& capture_path) {
  for (const TraceEvent& e :
       decode_events(TraceReplayer::from_file(capture_path))) {
    if (e.kind == TraceEventKind::kSlotFailed) return e.time;
  }
  ADD_FAILURE() << "no slot_failed event in " << capture_path;
  return -1.0;
}

TEST(FailureDetectorEndToEnd, DetectionLagDelaysFailureConsequences) {
  // One permanent truth failure; the detected schedule must push the
  // kill/dead-time consequences to the suspicion instant, not the truth
  // instant — visible as a later slot_failed event than the oracle run's.
  RunOptions oracle;
  oracle.seed = 3;
  oracle.failures.events.push_back(node_failure(1, 40.0, kTimeInfinity));
  oracle.capture_path = testing::TempDir() + "ssr_detector_oracle.trace";

  RunOptions lagged = oracle;
  lagged.detector.heartbeat_period = 4.0;
  lagged.detector.timeout_beats = 3;
  lagged.capture_path = testing::TempDir() + "ssr_detector_lagged.trace";

  const RunResult oracle_run =
      run_scenario(small_cluster(), small_mix(601), oracle);
  const RunResult lagged_run =
      run_scenario(small_cluster(), small_mix(601), lagged);

  EXPECT_EQ(oracle_run.suspicions, 0u);
  EXPECT_EQ(lagged_run.suspicions, 1u);
  EXPECT_EQ(lagged_run.false_suspicions, 0u);
  EXPECT_GT(oracle_run.recovery.slots_failed, 0u);
  EXPECT_GT(lagged_run.recovery.slots_failed, 0u);

  // The oracle kills the node's slots at the truth instant; the detector run
  // only at the suspicion beat, within the latency bound (3 beats x 4s).
  const SimTime oracle_at = first_slot_failure_at(oracle.capture_path);
  const SimTime lagged_at = first_slot_failure_at(lagged.capture_path);
  EXPECT_DOUBLE_EQ(oracle_at, 40.0);
  EXPECT_GT(lagged_at, 40.0);
  EXPECT_LE(lagged_at, 40.0 + 12.0);
  std::remove(oracle.capture_path.c_str());
  std::remove(lagged.capture_path.c_str());
}

TEST(FailureDetectorEndToEnd, FalseSuspicionsReconcileAndEveryJobCompletes) {
  // Healthy cluster, lossy channel over the whole run: the engine kills
  // slots on pure noise, the false suspicions clear as recoveries through
  // the ordinary epoch guards, and the workload still completes.
  RunOptions o;
  o.seed = 11;
  o.ssr = SsrConfig{};
  o.ssr->min_reserving_priority = 1;
  o.detector.heartbeat_period = 5.0;
  o.detector.timeout_beats = 2;
  o.detector.heartbeat_loss = 0.3;
  o.detector.noise_horizon = 150.0;
  o.detector.seed = 2;

  // run_scenario throws if any job wedges; reaching the result is liveness.
  const RunResult run = run_scenario(small_cluster(), small_mix(901), o);
  EXPECT_GT(run.suspicions, 0u);
  EXPECT_EQ(run.false_suspicions, run.suspicions);
  // Every suspicion window killed and then recovered real capacity.
  EXPECT_GT(run.recovery.slots_failed, 0u);
  EXPECT_EQ(run.recovery.slots_failed, run.recovery.slots_recovered);
  EXPECT_GT(run.dead_time, 0.0);
  for (const JobResult& j : run.jobs) {
    EXPECT_GE(j.finish, j.submit) << j.name << " never finished";
  }
  // Reconciliation is deterministic: the same options reproduce the same
  // outcome counters exactly.
  const RunResult again = run_scenario(small_cluster(), small_mix(901), o);
  EXPECT_EQ(run.recovery.slots_failed, again.recovery.slots_failed);
  EXPECT_EQ(run.recovery.tasks_failed, again.recovery.tasks_failed);
  EXPECT_EQ(run.makespan, again.makespan);
}

}  // namespace
}  // namespace ssr
