// Differential property suite for the scheduling hot path.
//
// The engine's optimized candidate enumeration (per-job reserved-idle
// buckets, sorted preferred sets, priority-bucket merges) must make exactly
// the placement decisions of the original full linear scans.  The
// ReferenceSelector fixture forces the engine down the reference path while
// forwarding every callback to the real hook, so running one seeded random
// scenario twice — once with the hook as-is, once wrapped — and comparing
// the complete (time, task, slot) event sequences checks the two
// enumerations decision for decision.
//
// The scenarios randomize cluster size, background trace mix, locality
// configuration and reservation policy (none / SSR manager with and without
// deadlines / static carve-out / timeout holds), covering every
// ReservedApprovalModel the engine special-cases.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/core/naive_policies.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/scenario.h"
#include "ssr/sched/engine.h"
#include "ssr/sched/policies/table_driven.h"
#include "ssr/sched/reference_selector.h"
#include "ssr/workload/mlbench.h"
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
  kNone = 0,       // NullReservationHook (NeverApprove model)
  kSsrStrict,      // ReservationManager, P = 1
  kSsrDeadline,    // ReservationManager, P < 1 (expiry machinery live)
  kStatic,         // static carve-out (PriorityOverride, sentinel job id)
  kTimeout,        // timeout holds (PriorityOverride)
  kCount
};

struct TrialParams {
  std::uint32_t nodes;
  std::uint32_t slots_per_node;
  TraceGenConfig bg;
  std::uint32_t fg_parallelism;
  SimTime fg_submit;
  SimDuration locality_wait;
  HookKind hook;
  std::uint32_t static_slots;
  SimDuration timeout;
  std::uint64_t engine_seed;
};

TrialParams derive_params(std::uint64_t trial) {
  std::uint64_t s = 0xabcdef1234567890ull ^ (trial * 0x51ul);
  TrialParams p;
  p.nodes = 2 + static_cast<std::uint32_t>(splitmix64(s) % 12);
  p.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 3);
  p.bg.num_jobs = 3 + static_cast<std::uint32_t>(splitmix64(s) % 12);
  p.bg.window = 60.0 + static_cast<double>(splitmix64(s) % 6) * 30.0;
  p.bg.large_job_max_tasks = 30;  // bound per-trial work
  p.bg.seed = 5 + trial * 77;
  p.fg_parallelism = 4 + static_cast<std::uint32_t>(splitmix64(s) % 8);
  p.fg_submit = p.bg.window * 0.25;
  const double waits[] = {0.0, 1.0, 3.0};
  p.locality_wait = waits[splitmix64(s) % 3];
  p.hook = static_cast<HookKind>(splitmix64(s) %
                                 static_cast<std::uint64_t>(HookKind::kCount));
  // A carve-out of the whole cluster would starve the background class
  // forever (a real failure mode of static reservation, but a wedged run,
  // not a differential signal) — keep at least half the slots unreserved.
  const std::uint32_t total_slots = p.nodes * p.slots_per_node;
  p.static_slots = std::min<std::uint32_t>(
      1 + static_cast<std::uint32_t>(splitmix64(s) % 4),
      std::max<std::uint32_t>(1, total_slots / 2));
  p.timeout = 5.0 + static_cast<double>(splitmix64(s) % 4) * 10.0;
  p.engine_seed = 1 + trial;
  return p;
}

std::unique_ptr<ReservationHook> make_hook(const TrialParams& p) {
  switch (p.hook) {
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
    case HookKind::kStatic:
      return make_static_reservation_hook(p.static_slots, 1);
    case HookKind::kTimeout:
      return std::make_unique<TimeoutReservationHook>(p.timeout);
    case HookKind::kCount:
      break;
  }
  SSR_CHECK_MSG(false, "bad hook kind");
  return nullptr;
}

// One scheduling event; doubles compare exactly, so equality of two event
// vectors means bit-identical timing and placement.
enum class EventKind : int { kStart = 0, kFinish, kKill };
using SchedEvent = std::tuple<double, EventKind, TaskId, SlotId>;

struct EventLog final : EngineObserver {
  std::vector<SchedEvent> events;

  void on_task_started(const Engine& e, TaskId t, SlotId s) override {
    events.emplace_back(e.sim().now(), EventKind::kStart, t, s);
  }
  void on_task_finished(const Engine& e, TaskId t, SlotId s) override {
    events.emplace_back(e.sim().now(), EventKind::kFinish, t, s);
  }
  void on_task_killed(const Engine& e, TaskId t, SlotId s) override {
    events.emplace_back(e.sim().now(), EventKind::kKill, t, s);
  }
};

// End-of-run metric totals; doubles compare exactly, so equality means
// bit-identical accounting, not just close numbers.
struct RunTotals {
  double busy = 0.0;
  double reserved_idle = 0.0;
  double dead = 0.0;
  double now = 0.0;

  bool operator==(const RunTotals&) const = default;
};

struct TrialResult {
  std::vector<SchedEvent> events;
  RunTotals totals;
};

TrialResult run_trial(const TrialParams& p, bool reference,
                      bool empty_injector = false) {
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
  std::unique_ptr<ReservationHook> hook = make_hook(p);
  if (reference) {
    hook = std::make_unique<ReferenceSelector>(std::move(hook));
  }
  engine.set_reservation_hook(std::move(hook));
  EventLog log;
  engine.add_observer(&log);
  // An attached injector with an empty schedule must be a perfect no-op:
  // it enqueues nothing, so the event sequence and every metric stay
  // bit-identical to a run that never saw an injector.
  FailureInjector injector({});
  if (empty_injector) {
    injector.attach(engine.sim(), engine);
  }
  for (JobSpec& spec : make_background_jobs(p.bg)) {
    engine.submit(std::move(spec));
  }
  engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit));
  engine.run();
  TrialResult result;
  result.events = std::move(log.events);
  result.totals.busy = engine.cluster().total_busy_time();
  result.totals.reserved_idle = engine.cluster().total_reserved_idle_time();
  result.totals.dead = engine.cluster().total_dead_time();
  result.totals.now = engine.sim().now();
  return result;
}

std::string describe(const SchedEvent& e) {
  std::ostringstream os;
  os << std::hexfloat << "t=" << std::get<0>(e) << " kind="
     << static_cast<int>(std::get<1>(e)) << ' ' << std::get<2>(e) << " on "
     << std::get<3>(e);
  return os.str();
}

TEST(DifferentialSelection, OptimizedMatchesReferenceOn200Scenarios) {
  constexpr std::uint64_t kTrials = 200;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const TrialParams p = derive_params(trial);
    const std::vector<SchedEvent> optimized = run_trial(p, false).events;
    const std::vector<SchedEvent> reference = run_trial(p, true).events;
    ASSERT_EQ(optimized.size(), reference.size())
        << "trial " << trial << " (hook kind "
        << static_cast<int>(p.hook) << "): event counts diverged";
    for (std::size_t i = 0; i < optimized.size(); ++i) {
      ASSERT_EQ(optimized[i], reference[i])
          << "trial " << trial << " (hook kind " << static_cast<int>(p.hook)
          << ") diverged at event " << i << ":\n  optimized: "
          << describe(optimized[i]) << "\n  reference: "
          << describe(reference[i]);
    }
  }
}

// The wrapper itself must be transparent: wrapping the hook twice (model
// still Custom) reproduces the single-wrapped run exactly.
TEST(DifferentialSelection, ReferenceSelectorIsTransparent) {
  const TrialParams p = derive_params(7);
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
  engine.set_reservation_hook(std::make_unique<ReferenceSelector>(
      std::make_unique<ReferenceSelector>(make_hook(p))));
  EventLog log;
  engine.add_observer(&log);
  for (JobSpec& spec : make_background_jobs(p.bg)) {
    engine.submit(std::move(spec));
  }
  engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit));
  engine.run();
  EXPECT_EQ(log.events, run_trial(p, true).events);
}

// --- Policy-zoo legs ---------------------------------------------------------
//
// Each zoo policy (exp/policy_zoo.h) trial randomizes cluster size, trace
// mix and locality config exactly like the hook trials above, turns on
// per-stage demand vectors (so the packing selector makes real decisions),
// and runs through the full ScenarioHarness — under -DSSR_AUDIT=ON the
// 12-invariant auditor rides every one of these runs.

struct ZooOutcome {
  RunTotals totals;
  RunResult run;
  std::uint32_t total_slots = 0;
};

ZooOutcome run_zoo_trial(ZooPolicy policy, std::uint64_t trial) {
  const TrialParams p = derive_params(trial);
  const ClusterSpec cluster{
      .nodes = p.nodes, .slots_per_node = p.slots_per_node, .node_slots = {}};
  RunOptions options;
  options.seed = p.engine_seed;
  options.sched.locality_wait = p.locality_wait;
  apply_zoo_policy(policy, cluster, options);
  TraceGenConfig bg = p.bg;
  bg.vary_demand = true;
  ScenarioHarness harness(cluster, options);
  std::vector<JobId> ids;
  for (JobSpec& spec : make_background_jobs(bg)) {
    ids.push_back(harness.engine().submit(std::move(spec)));
  }
  ids.push_back(
      harness.engine().submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit)));
  harness.engine().run();
  ZooOutcome out;
  out.run = harness.collect(ids);
  out.totals.busy = harness.engine().cluster().total_busy_time();
  out.totals.reserved_idle =
      harness.engine().cluster().total_reserved_idle_time();
  out.totals.dead = harness.engine().cluster().total_dead_time();
  out.totals.now = harness.engine().sim().now();
  out.total_slots = cluster.total_slots();
  return out;
}

// Completion and conservation: every submitted job finishes, and the
// per-job busy attribution sums back to the cluster's total busy time (the
// two are accumulated by independent collectors, so agreement is a real
// cross-check, not a tautology — tolerance covers summation order only).
void check_zoo_run(const ZooOutcome& out, const std::string& label) {
  ASSERT_FALSE(out.run.jobs.empty()) << label;
  double attributed_busy = 0.0;
  for (const JobResult& j : out.run.jobs) {
    ASSERT_GT(j.jct, 0.0) << label << ": job " << j.name << " never finished";
    ASSERT_GE(j.finish, j.submit) << label << ": job " << j.name;
    attributed_busy += j.busy_seconds;
  }
  ASSERT_NEAR(attributed_busy, out.totals.busy,
              1e-6 * std::max(1.0, out.totals.busy))
      << label << ": per-job busy attribution lost slot-seconds";
  // Slot-time conservation: busy + reserved-idle + dead slot-seconds can
  // never exceed the cluster's capacity over the simulated horizon.
  const double capacity =
      static_cast<double>(out.total_slots) * out.totals.now;
  ASSERT_LE(out.totals.busy + out.totals.reserved_idle + out.totals.dead,
            capacity + 1e-6 * std::max(1.0, capacity))
      << label << ": slot-time over-commit";
}

TEST(DifferentialSelection, ZooPoliciesCompleteAndConserveSlotTime) {
  constexpr std::uint64_t kTrialsPerPolicy = 40;
  for (ZooPolicy policy : all_zoo_policies()) {
    for (std::uint64_t trial = 0; trial < kTrialsPerPolicy; ++trial) {
      check_zoo_run(run_zoo_trial(policy, trial),
                    std::string(zoo_policy_name(policy)) + " trial " +
                        std::to_string(trial));
    }
  }
}

// The selector seam must be path-independent: with a StageSelector (and,
// for the table policy, a reservation hook) installed, the optimized
// indexed candidate enumeration must make exactly the decisions of the
// reference full-scan path.  rank_slots() permutes — never adds or drops —
// candidates after enumeration on both paths, so acceptance-order equality
// here is precisely the soundness claim in DESIGN.md §14.
TEST(DifferentialSelection, ZooSelectorsMatchReferenceSelection) {
  constexpr std::uint64_t kTrialsPerPolicy = 40;
  const ZooPolicy selector_policies[] = {ZooPolicy::kDagps, ZooPolicy::kPacking,
                                         ZooPolicy::kTableDriven};
  for (ZooPolicy policy : selector_policies) {
    for (std::uint64_t trial = 0; trial < kTrialsPerPolicy; ++trial) {
      const TrialParams p = derive_params(trial);
      const ClusterSpec cluster{.nodes = p.nodes,
                                .slots_per_node = p.slots_per_node,
                                .node_slots = {}};
      RunOptions options;
      options.seed = p.engine_seed;
      options.sched.locality_wait = p.locality_wait;
      apply_zoo_policy(policy, cluster, options);
      TraceGenConfig bg = p.bg;
      bg.vary_demand = true;

      std::vector<SchedEvent> runs[2];
      for (int reference = 0; reference < 2; ++reference) {
        SchedConfig cfg = options.sched;
        Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
        std::unique_ptr<ReservationHook> hook;
        if (options.hook_factory) {
          hook = options.hook_factory();
        } else {
          hook = std::make_unique<NullReservationHook>();
        }
        if (reference != 0) {
          hook = std::make_unique<ReferenceSelector>(std::move(hook));
        }
        engine.set_reservation_hook(std::move(hook));
        EventLog log;
        engine.add_observer(&log);
        TraceGenConfig cfg_bg = bg;
        for (JobSpec& spec : make_background_jobs(cfg_bg)) {
          engine.submit(std::move(spec));
        }
        engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit));
        engine.run();
        runs[reference] = std::move(log.events);
      }
      ASSERT_EQ(runs[0].size(), runs[1].size())
          << zoo_policy_name(policy) << " trial " << trial
          << ": event counts diverged";
      for (std::size_t i = 0; i < runs[0].size(); ++i) {
        ASSERT_EQ(runs[0][i], runs[1][i])
            << zoo_policy_name(policy) << " trial " << trial
            << " diverged at event " << i << ":\n  optimized: "
            << describe(runs[0][i]) << "\n  reference: "
            << describe(runs[1][i]);
      }
    }
  }
}

// A FailureInjector attached with an empty schedule must leave the run
// bit-identical — same event stream, same metric totals — to a run that
// never attached an injector (run_scenario relies on this to make the
// `failures` option safe to thread through every experiment).
TEST(DifferentialSelection, EmptyFailureScheduleIsANoOp) {
  constexpr std::uint64_t kTrials = 50;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const TrialParams p = derive_params(trial);
    const TrialResult plain = run_trial(p, false);
    const TrialResult injected = run_trial(p, false, /*empty_injector=*/true);
    ASSERT_EQ(plain.events.size(), injected.events.size())
        << "trial " << trial << " (hook kind " << static_cast<int>(p.hook)
        << "): event counts diverged";
    for (std::size_t i = 0; i < plain.events.size(); ++i) {
      ASSERT_EQ(plain.events[i], injected.events[i])
          << "trial " << trial << " diverged at event " << i << ":\n  plain: "
          << describe(plain.events[i]) << "\n  injected: "
          << describe(injected.events[i]);
    }
    ASSERT_TRUE(plain.totals == injected.totals)
        << "trial " << trial << ": metric totals diverged";
  }
}

}  // namespace
}  // namespace ssr
