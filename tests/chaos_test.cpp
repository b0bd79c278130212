// Chaos property suite for the fault-injection and recovery layer.
//
// Each trial derives a random cluster, background trace mix, reservation
// policy, and a seeded random node-failure schedule, then runs the scenario
// under a throw-on-violation InvariantAuditor.  The properties pinned here
// are the failure-model contract of DESIGN.md §9:
//
//  * liveness — every job completes despite killed attempts, broken
//    reservations, and invalidated resident outputs (Engine::run() itself
//    throws if the simulation wedges with unfinished jobs);
//  * no event lost — every submitted stage is complete at end of run (the
//    auditor's task-lost invariant) and the running-task / slot state
//    machines stay legal through every failure transition;
//  * accounting — busy, reserved-idle, and dead slot-seconds implied by the
//    observer stream match the cluster's own accounting.
//
// The schedules mix transient and permanent node failures; the generator
// never makes node 0 permanent, so a kernel of capacity always survives and
// liveness is well-defined.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/audit/invariant_auditor.h"
#include "ssr/audit/tenant_audit.h"
#include "ssr/audit/violation.h"
#include "ssr/core/naive_policies.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/sched/engine.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

// Deterministic per-trial parameter derivation (lint forbids unseeded RNG;
// splitmix64 gives well-mixed streams from the trial index alone).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class HookKind : std::uint64_t {
  kNone = 0,       // NullReservationHook
  kSsrStrict,      // ReservationManager, P = 1
  kSsrDeadline,    // ReservationManager, P < 1 (expiry machinery live)
  kSsrMitigation,  // ReservationManager with straggler copies (races x faults)
  kStatic,         // static carve-out
  kTimeout,        // timeout holds
  kCount
};

struct ChaosParams {
  std::uint32_t nodes;
  std::uint32_t slots_per_node;
  TraceGenConfig bg;
  std::uint32_t fg_parallelism;
  SimTime fg_submit;
  SimDuration locality_wait;
  HookKind hook;
  RandomFailureConfig failures;
  std::uint64_t engine_seed;
};

ChaosParams derive_params(std::uint64_t trial) {
  std::uint64_t s = 0x5eedc4a05f00dull ^ (trial * 0x9d7ull);
  ChaosParams p;
  p.nodes = 2 + static_cast<std::uint32_t>(splitmix64(s) % 7);
  p.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  p.bg.num_jobs = 3 + static_cast<std::uint32_t>(splitmix64(s) % 6);
  p.bg.window = 60.0 + static_cast<double>(splitmix64(s) % 4) * 30.0;
  p.bg.large_job_max_tasks = 20;  // bound per-trial work
  p.bg.seed = 11 + trial * 131;
  p.fg_parallelism = 4 + static_cast<std::uint32_t>(splitmix64(s) % 6);
  p.fg_submit = p.bg.window * 0.25;
  const double waits[] = {0.0, 1.0, 3.0};
  p.locality_wait = waits[splitmix64(s) % 3];
  p.hook = static_cast<HookKind>(splitmix64(s) %
                                 static_cast<std::uint64_t>(HookKind::kCount));
  p.failures.num_nodes = p.nodes;
  // Failures land throughout the busy part of the run, including after the
  // nominal submission window (recovery re-runs push work past it).
  p.failures.horizon = p.bg.window * 1.5;
  p.failures.failures = 1 + static_cast<std::uint32_t>(splitmix64(s) % 4);
  p.failures.min_downtime = 2.0;
  p.failures.max_downtime = 25.0;
  // Up to a third of windows are permanent; node 0 is never permanent, so
  // capacity for progress always survives.
  p.failures.permanent_fraction =
      static_cast<double>(splitmix64(s) % 3) * 0.15;
  p.failures.seed = 0xfa11 + trial;
  p.engine_seed = 1 + trial;
  return p;
}

std::unique_ptr<ReservationHook> make_hook(HookKind kind) {
  switch (kind) {
    case HookKind::kNone:
      return std::make_unique<NullReservationHook>();
    case HookKind::kSsrStrict: {
      SsrConfig cfg;
      cfg.min_reserving_priority = 1;
      return std::make_unique<ReservationManager>(cfg);
    }
    case HookKind::kSsrDeadline: {
      SsrConfig cfg;
      cfg.min_reserving_priority = 1;
      cfg.isolation_p = 0.4;
      return std::make_unique<ReservationManager>(cfg);
    }
    case HookKind::kSsrMitigation: {
      SsrConfig cfg;
      cfg.min_reserving_priority = 1;
      cfg.enable_straggler_mitigation = true;
      return std::make_unique<ReservationManager>(cfg);
    }
    case HookKind::kStatic:
      return make_static_reservation_hook(1, 1);
    case HookKind::kTimeout:
      return std::make_unique<TimeoutReservationHook>(15.0);
    case HookKind::kCount:
      break;
  }
  SSR_CHECK_MSG(false, "bad hook kind");
  return nullptr;
}

struct TrialOutcome {
  RecoveryStats recovery;
  std::uint64_t events_audited = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t false_suspicions = 0;
};

/// `detector` transforms the trial's ground-truth schedule into what the
/// engine believes (sim/failure_detector.h); the default config passes the
/// truth through verbatim, preserving the original chaos semantics.
TrialOutcome run_chaos_trial(const ChaosParams& p,
                             const FailureDetectorConfig& detector = {}) {
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
  engine.set_reservation_hook(make_hook(p.hook));

  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;  // throw_on_violation = true
  auditor.attach(engine);

  const DetectionOutcome detection =
      detect_failures(make_random_node_failures(p.failures), detector, p.nodes);
  FailureInjector injector(detection.detected);
  injector.attach(engine.sim(), engine);

  std::vector<JobId> ids;
  for (JobSpec& spec : make_background_jobs(p.bg)) {
    ids.push_back(engine.submit(std::move(spec)));
  }
  ids.push_back(engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit)));
  engine.run();  // throws CheckError if any job wedges or an invariant breaks

  for (JobId id : ids) {
    EXPECT_TRUE(engine.job_finished(id)) << "job " << id << " never finished";
  }
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  return TrialOutcome{fold.recovery(), auditor.events_audited(),
                      detection.suspicions.size(),
                      detection.false_suspicions()};
}

TEST(Chaos, EveryJobCompletesAndAuditStaysCleanOn200FailureScenarios) {
  constexpr std::uint64_t kTrials = 200;
  RecoveryStats totals;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const ChaosParams p = derive_params(trial);
    SCOPED_TRACE("trial " + std::to_string(trial) + " (hook kind " +
                 std::to_string(static_cast<int>(p.hook)) + ")");
    const TrialOutcome outcome = run_chaos_trial(p);
    ASSERT_GT(outcome.events_audited, 0u);
    totals.slots_failed += outcome.recovery.slots_failed;
    totals.slots_recovered += outcome.recovery.slots_recovered;
    totals.tasks_failed += outcome.recovery.tasks_failed;
    totals.tasks_requeued += outcome.recovery.tasks_requeued;
    totals.failures_masked += outcome.recovery.failures_masked;
    totals.stages_invalidated += outcome.recovery.stages_invalidated;
    totals.reservations_broken += outcome.recovery.reservations_broken;
  }
  // The sweep must actually exercise the failure paths it claims to lock
  // down, not just schedule failures that land on idle clusters.
  EXPECT_GT(totals.slots_failed, 100u);
  EXPECT_GT(totals.slots_recovered, 50u);
  EXPECT_GT(totals.tasks_failed, 50u);
  EXPECT_GT(totals.tasks_requeued, 50u);
  EXPECT_GT(totals.stages_invalidated, 0u);
}

// --- Heartbeat-detector noise leg -------------------------------------------
//
// The same seeded chaos trials, but the engine no longer sees the truth: a
// heartbeat detector with a lossy channel decides what it believes.  Late
// detections, missed short outages and outright false suspicions (healthy
// nodes killed on noise, then recovered when the channel clears) all flow
// through the ordinary kill/requeue/epoch-guard machinery, so the liveness
// and audit properties must survive unchanged.

FailureDetectorConfig derive_detector(std::uint64_t trial) {
  std::uint64_t s = 0xbea7f00dull ^ (trial * 0x2d1ull);
  FailureDetectorConfig d;
  d.heartbeat_period = 2.0 + static_cast<double>(splitmix64(s) % 4);
  d.timeout_beats = 2 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  d.heartbeat_loss = 0.1 + static_cast<double>(splitmix64(s) % 3) * 0.1;
  d.seed = 0xd07 + trial;
  return d;
}

TEST(Chaos, DetectorNoiseRunsCompleteAndAuditStaysCleanOn100Trials) {
  constexpr std::uint64_t kTrials = 100;
  RecoveryStats totals;
  std::uint64_t suspicions = 0, false_suspicions = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const ChaosParams p = derive_params(trial);
    FailureDetectorConfig d = derive_detector(trial);
    // Channel noise covers the whole busy window, not just the truth span,
    // so healthy nodes can be falsely suspected at any point of the run.
    d.noise_horizon = p.failures.horizon;
    SCOPED_TRACE("detector trial " + std::to_string(trial) + " (hook kind " +
                 std::to_string(static_cast<int>(p.hook)) + ")");
    const TrialOutcome outcome = run_chaos_trial(p, d);
    ASSERT_GT(outcome.events_audited, 0u);
    totals.slots_failed += outcome.recovery.slots_failed;
    totals.slots_recovered += outcome.recovery.slots_recovered;
    totals.tasks_failed += outcome.recovery.tasks_failed;
    totals.tasks_requeued += outcome.recovery.tasks_requeued;
    suspicions += outcome.suspicions;
    false_suspicions += outcome.false_suspicions;
  }
  // The leg must actually exercise suspicion-driven failures, including
  // false ones — otherwise it degenerates into the truth-schedule sweep.
  EXPECT_GT(suspicions, 100u);
  EXPECT_GT(false_suspicions, 50u);
  EXPECT_GT(totals.slots_failed, 100u);
  EXPECT_GT(totals.tasks_requeued, 25u);
}

TEST(Chaos, DetectorNoiseRunsAreDeterministic) {
  const ChaosParams p = derive_params(27);
  FailureDetectorConfig d = derive_detector(27);
  d.noise_horizon = p.failures.horizon;
  const TrialOutcome a = run_chaos_trial(p, d);
  const TrialOutcome b = run_chaos_trial(p, d);
  EXPECT_EQ(a.events_audited, b.events_audited);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.recovery.slots_failed, b.recovery.slots_failed);
  EXPECT_EQ(a.recovery.tasks_requeued, b.recovery.tasks_requeued);
}

// --- Open-arrival x failure-schedule leg ------------------------------------
//
// The closed-batch sweep above drives Engine::run(); this leg drives the
// stepping API the way a long-lived service does — advance to each arrival
// instant, push the job through virtual-cluster admission control, and only
// then drain — while the same seeded node-failure schedules play out
// underneath.  The properties are the closed sweep's plus the admission
// layer's: every *admitted* job completes, no queue strands work at
// quiescence, and the tenant audit stays clean next to the slot-level one.

struct OpenChaosParams {
  std::uint32_t nodes;
  std::uint32_t slots_per_node;
  SimDuration locality_wait;
  HookKind hook;
  RandomFailureConfig failures;
  std::vector<VirtualClusterSpec> tenants;
  std::vector<OpenTenantProfile> profiles;
  std::uint64_t engine_seed;
  std::uint64_t arrival_seed;
};

OpenChaosParams derive_open_params(std::uint64_t trial) {
  std::uint64_t s = 0x09e2a55c4a05ull ^ (trial * 0x6b5ull);
  OpenChaosParams p;
  p.nodes = 3 + static_cast<std::uint32_t>(splitmix64(s) % 6);
  p.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  const std::uint32_t total = p.nodes * p.slots_per_node;
  const double waits[] = {0.0, 1.0, 3.0};
  p.locality_wait = waits[splitmix64(s) % 3];
  p.hook = static_cast<HookKind>(splitmix64(s) %
                                 static_cast<std::uint64_t>(HookKind::kCount));

  const std::uint32_t num_tenants = 2 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  double expected_span = 0.0;
  for (std::uint32_t ti = 0; ti < num_tenants; ++ti) {
    VirtualClusterSpec vc;
    vc.name = "t" + std::to_string(ti);
    // Minima stay small so any tenant count fits any cluster; maxima range
    // from tight (forcing queue/reject traffic) to the full cluster.
    vc.min_slots = static_cast<std::uint32_t>(splitmix64(s) % 2);
    vc.max_slots = 2 + static_cast<std::uint32_t>(splitmix64(s) % total);
    vc.queue_when_full = (splitmix64(s) % 4) != 0;
    p.tenants.push_back(vc);

    OpenTenantProfile prof;
    prof.tenant = "t" + std::to_string(ti);
    prof.mean_interarrival = 8.0 + static_cast<double>(splitmix64(s) % 4) * 6.0;
    prof.num_jobs = 4 + static_cast<std::uint32_t>(splitmix64(s) % 5);
    prof.min_parallelism = 2;
    prof.max_parallelism = 2 + static_cast<std::uint32_t>(splitmix64(s) % 5);
    prof.priority = static_cast<int>(splitmix64(s) % 3) * 5;
    p.profiles.push_back(prof);
    expected_span = std::max(
        expected_span, prof.mean_interarrival * static_cast<double>(prof.num_jobs));
  }

  p.failures.num_nodes = p.nodes;
  p.failures.horizon = expected_span * 1.5;
  p.failures.failures = 1 + static_cast<std::uint32_t>(splitmix64(s) % 4);
  p.failures.min_downtime = 2.0;
  p.failures.max_downtime = 25.0;
  p.failures.permanent_fraction =
      static_cast<double>(splitmix64(s) % 3) * 0.15;
  p.failures.seed = 0x0fa11 + trial * 3;
  p.engine_seed = 0x10001 + trial;
  p.arrival_seed = 0x20002 + trial * 7;
  return p;
}

struct OpenTrialOutcome {
  RecoveryStats recovery;
  std::uint64_t events_audited = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
};

OpenTrialOutcome run_open_chaos_trial(const OpenChaosParams& p) {
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
  engine.set_reservation_hook(make_hook(p.hook));

  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;  // throw_on_violation = true
  auditor.attach(engine);

  FailureInjector injector(make_random_node_failures(p.failures));
  injector.attach(engine.sim(), engine);

  VirtualClusterManager vcm(engine);
  for (const VirtualClusterSpec& vc : p.tenants) vcm.add_cluster(vc);

  for (OpenArrival& a : make_open_arrivals(p.profiles, p.arrival_seed)) {
    engine.advance_to(a.at);
    vcm.submit_job(a.tenant, std::move(a.spec));
  }
  engine.drain();  // throws if anything wedges, strands a queue, or trips audit

  // Every *admitted* job completed; rejected submissions never entered.
  for (const AdmissionRecord& a : vcm.admission_log()) {
    EXPECT_TRUE(engine.job_finished(a.job))
        << a.tenant << " job " << a.job << " admitted but never finished";
  }
  EXPECT_TRUE(vcm.all_queues_empty());
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  const auto tenant_violations =
      audit::audit_virtual_clusters(vcm, p.nodes * p.slots_per_node);
  EXPECT_TRUE(tenant_violations.empty())
      << audit::format_report(tenant_violations);

  OpenTrialOutcome out;
  out.recovery = fold.recovery();
  out.events_audited = auditor.events_audited();
  for (const std::string& t : vcm.tenant_names()) {
    const TenantStats& s = vcm.stats(t);
    EXPECT_EQ(s.admitted, s.completed) << t;
    out.admitted += s.admitted;
    out.queued += s.queued_total;
    out.rejected += s.rejected;
  }
  return out;
}

TEST(Chaos, OpenArrivalRunsSurvive100FailureScenarios) {
  constexpr std::uint64_t kTrials = 100;
  RecoveryStats totals;
  std::uint64_t admitted = 0, queued = 0, rejected = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const OpenChaosParams p = derive_open_params(trial);
    SCOPED_TRACE("open trial " + std::to_string(trial) + " (hook kind " +
                 std::to_string(static_cast<int>(p.hook)) + ")");
    const OpenTrialOutcome outcome = run_open_chaos_trial(p);
    ASSERT_GT(outcome.events_audited, 0u);
    totals.slots_failed += outcome.recovery.slots_failed;
    totals.slots_recovered += outcome.recovery.slots_recovered;
    totals.tasks_failed += outcome.recovery.tasks_failed;
    totals.tasks_requeued += outcome.recovery.tasks_requeued;
    totals.stages_invalidated += outcome.recovery.stages_invalidated;
    admitted += outcome.admitted;
    queued += outcome.queued;
    rejected += outcome.rejected;
  }
  // The sweep must hit the paths it claims to: real failures landing on busy
  // slots, and admission traffic through all three outcomes.
  EXPECT_GT(totals.slots_failed, 50u);
  EXPECT_GT(totals.tasks_failed, 25u);
  EXPECT_GT(totals.tasks_requeued, 25u);
  EXPECT_GT(admitted, 500u);
  EXPECT_GT(queued, 50u);
  EXPECT_GT(rejected, 50u);
}

TEST(Chaos, OpenArrivalFailureRunsAreDeterministic) {
  const OpenChaosParams p = derive_open_params(42);
  const OpenTrialOutcome a = run_open_chaos_trial(p);
  const OpenTrialOutcome b = run_open_chaos_trial(p);
  EXPECT_EQ(a.events_audited, b.events_audited);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.recovery.slots_failed, b.recovery.slots_failed);
  EXPECT_EQ(a.recovery.tasks_failed, b.recovery.tasks_failed);
  EXPECT_EQ(a.recovery.tasks_requeued, b.recovery.tasks_requeued);
}

// --- Policy-zoo chaos leg ----------------------------------------------------
//
// Every zoo policy (exp/policy_zoo.h) replayed through the seeded chaos
// trials — with per-stage demand vectors on — under the throw-on-violation
// auditor.  Odd trials additionally route the truth schedule through a
// lossy heartbeat detector, so each policy also faces late detections and
// false suspicions.  The properties are the standard chaos contract:
// liveness (every job completes), audit-clean, and failure paths actually
// exercised.  The table-driven hook earns its keep here: expiry-driven
// wakeups, reservations broken by node deaths, and the go-quiet-at-drain
// rule all run under fault injection.

TrialOutcome run_zoo_chaos_trial(ZooPolicy policy, const ChaosParams& p,
                                 const FailureDetectorConfig& detector = {}) {
  const ClusterSpec cluster{
      .nodes = p.nodes, .slots_per_node = p.slots_per_node, .node_slots = {}};
  RunOptions options;
  options.sched.locality_wait = p.locality_wait;
  apply_zoo_policy(policy, cluster, options);

  Engine engine(options.sched, p.nodes, p.slots_per_node, p.engine_seed);
  std::unique_ptr<ReservationHook> hook;
  if (options.hook_factory) {
    hook = options.hook_factory();
  } else if (options.ssr.has_value()) {
    hook = std::make_unique<ReservationManager>(*options.ssr);
  } else {
    hook = std::make_unique<NullReservationHook>();
  }
  engine.set_reservation_hook(std::move(hook));

  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;  // throw_on_violation = true
  auditor.attach(engine);

  const DetectionOutcome detection =
      detect_failures(make_random_node_failures(p.failures), detector, p.nodes);
  FailureInjector injector(detection.detected);
  injector.attach(engine.sim(), engine);

  TraceGenConfig bg = p.bg;
  bg.vary_demand = true;
  std::vector<JobId> ids;
  for (JobSpec& spec : make_background_jobs(bg)) {
    ids.push_back(engine.submit(std::move(spec)));
  }
  ids.push_back(engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit)));
  engine.run();  // throws CheckError if any job wedges or an invariant breaks

  for (JobId id : ids) {
    EXPECT_TRUE(engine.job_finished(id)) << "job " << id << " never finished";
  }
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  return TrialOutcome{fold.recovery(), auditor.events_audited(),
                      detection.suspicions.size(),
                      detection.false_suspicions()};
}

TEST(Chaos, PolicyZooSurvivesFailuresAndDetectorNoiseOn40TrialsEach) {
  constexpr std::uint64_t kTrialsPerPolicy = 40;
  for (ZooPolicy policy : all_zoo_policies()) {
    RecoveryStats totals;
    std::uint64_t suspicions = 0;
    for (std::uint64_t trial = 0; trial < kTrialsPerPolicy; ++trial) {
      const ChaosParams p = derive_params(trial);
      FailureDetectorConfig d;
      if (trial % 2 == 1) {
        d = derive_detector(trial);
        d.noise_horizon = p.failures.horizon;
      }
      SCOPED_TRACE(std::string(zoo_policy_name(policy)) + " trial " +
                   std::to_string(trial));
      const TrialOutcome outcome = run_zoo_chaos_trial(policy, p, d);
      ASSERT_GT(outcome.events_audited, 0u);
      totals.slots_failed += outcome.recovery.slots_failed;
      totals.slots_recovered += outcome.recovery.slots_recovered;
      totals.tasks_failed += outcome.recovery.tasks_failed;
      totals.tasks_requeued += outcome.recovery.tasks_requeued;
      totals.reservations_broken += outcome.recovery.reservations_broken;
      suspicions += outcome.suspicions;
    }
    // Per policy: the leg must actually exercise failure recovery and the
    // detector-noise path, not just run clean scenarios.
    EXPECT_GT(totals.slots_failed, 20u) << zoo_policy_name(policy);
    EXPECT_GT(totals.tasks_requeued, 10u) << zoo_policy_name(policy);
    EXPECT_GT(suspicions, 10u) << zoo_policy_name(policy);
  }
}

// Reservation-carrying zoo policies must see their reservations broken by
// node failures at least somewhere across the sweep — otherwise the
// chaos leg never tests the hook's on_slot_failed reconciliation.
TEST(Chaos, ZooReservationPoliciesSeeBrokenReservations) {
  for (ZooPolicy policy : {ZooPolicy::kSsr, ZooPolicy::kTableDriven}) {
    std::uint64_t broken = 0;
    for (std::uint64_t trial = 0; trial < 40 && broken == 0; ++trial) {
      const ChaosParams p = derive_params(trial);
      broken += run_zoo_chaos_trial(policy, p).recovery.reservations_broken;
    }
    EXPECT_GT(broken, 0u) << zoo_policy_name(policy);
  }
}

// Determinism under failure: the same trial parameters reproduce the same
// recovery counters event for event.
TEST(Chaos, FailureRunsAreDeterministic) {
  const ChaosParams p = derive_params(13);
  const TrialOutcome a = run_chaos_trial(p);
  const TrialOutcome b = run_chaos_trial(p);
  EXPECT_EQ(a.events_audited, b.events_audited);
  EXPECT_EQ(a.recovery.slots_failed, b.recovery.slots_failed);
  EXPECT_EQ(a.recovery.slots_recovered, b.recovery.slots_recovered);
  EXPECT_EQ(a.recovery.tasks_failed, b.recovery.tasks_failed);
  EXPECT_EQ(a.recovery.tasks_requeued, b.recovery.tasks_requeued);
  EXPECT_EQ(a.recovery.failures_masked, b.recovery.failures_masked);
  EXPECT_EQ(a.recovery.stages_invalidated, b.recovery.stages_invalidated);
  EXPECT_EQ(a.recovery.reservations_broken, b.recovery.reservations_broken);
}

}  // namespace
}  // namespace ssr
