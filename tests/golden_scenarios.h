// The golden-replay scenario definitions, shared between suites.
//
// golden_replay_test pins these scenarios' closed-batch (run_scenario)
// digests to committed files under tests/golden/; open_system_test replays
// the *same* inputs through the open-system stepping API and asserts the
// digests — and therefore the committed goldens — are reproduced byte for
// byte.  Keeping the job mixes and options in one header is what makes that
// a statement about the engine rather than about two test files agreeing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/core/naive_policies.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace ssr {

struct GoldenPass {
  std::string title;  ///< digest line header, e.g. "fig12/nossr"
  RunOptions options;
  std::vector<JobSpec> jobs;
};

struct GoldenScenario {
  std::string name;  ///< test-facing name, e.g. "fig12"
  std::string file;  ///< committed digest under tests/golden/
  ClusterSpec cluster;
  std::vector<GoldenPass> passes{};
};

// Fig. 12 shape: 50x2 cluster, trace background, one high-priority KMeans
// foreground; contrasted with and without strict SSR.
inline GoldenScenario fig12_scenario() {
  GoldenScenario s{.name = "fig12",
                   .file = "fig12.golden",
                   .cluster = {.nodes = 50, .slots_per_node = 2}};
  TraceGenConfig bg;
  bg.num_jobs = 12;
  bg.window = 450.0;
  bg.seed = 1001;

  RunOptions base;
  base.seed = 1;
  RunOptions with_ssr = base;
  with_ssr.ssr = SsrConfig{};
  with_ssr.ssr->min_reserving_priority = 1;

  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(20, 10, bg.window * 0.25));
  s.passes.push_back({"fig12/nossr", base, jobs});
  s.passes.push_back({"fig12/ssr", with_ssr, std::move(jobs)});
  return s;
}

// Fig. 14 shape: the isolation-utilization knob.  P < 1 arms reservation
// deadlines, so this digest also pins the expiry machinery.
inline GoldenScenario fig14_scenario() {
  GoldenScenario s{.name = "fig14",
                   .file = "fig14.golden",
                   .cluster = {.nodes = 50, .slots_per_node = 2}};
  TraceGenConfig bg;
  bg.num_jobs = 12;
  bg.window = 450.0;
  bg.seed = 2001;

  for (const double p : {1.0, 0.4, 0.05}) {
    RunOptions o;
    o.seed = 1;
    o.ssr = SsrConfig{};
    o.ssr->min_reserving_priority = 1;
    o.ssr->isolation_p = p;
    std::vector<JobSpec> jobs = make_background_jobs(bg);
    jobs.push_back(make_svm(20, 10, bg.window * 0.25));
    std::ostringstream title;
    title << "fig14/P=" << p;
    s.passes.push_back({title.str(), o, std::move(jobs)});
  }
  return s;
}

// Fig. 15 shape (scaled 1/8): 125 nodes x 4 slots, trace background, SQL
// foreground queries — the scenario the hot-path indexes were built for.
inline GoldenScenario fig15_scenario() {
  GoldenScenario s{.name = "fig15",
                   .file = "fig15.golden",
                   .cluster = {.nodes = 125, .slots_per_node = 4}};
  TraceGenConfig bg;
  bg.num_jobs = 500;
  bg.window = 1800.0;
  bg.seed = 43;

  for (int pass = 0; pass < 2; ++pass) {
    RunOptions o;
    o.sched.locality_wait = 3.0;
    o.sched.locality_slowdown = 5.0;
    o.seed = 1;
    if (pass == 1) {
      o.ssr = SsrConfig{};
      o.ssr->min_reserving_priority = 1;
    }
    std::vector<JobSpec> jobs = make_background_jobs(bg);
    for (std::uint32_t q = 0; q < 10; ++q) {
      SqlJobParams p;
      p.query_index = q;
      p.base_parallelism = 20;
      p.priority = 10;
      p.submit_time = bg.window * 0.2 + 30.0 * q;
      jobs.push_back(make_sql_query(p));
    }
    s.passes.push_back(
        {pass == 0 ? "fig15/nossr" : "fig15/ssr", o, std::move(jobs)});
  }
  return s;
}

// Failure-recovery shape: the fig12 isolation scenario, scaled down, with a
// deterministic node-failure schedule injected mid-run.  The digest pins the
// full kill -> re-queue -> copy-wins ordering: attempts killed by dead slots
// re-enter the queue, straggler copies already running elsewhere win the
// race and mask failures, and invalidated resident outputs force producer
// stages to re-run — all without losing a single task.
inline GoldenScenario failure_recovery_scenario() {
  GoldenScenario s{.name = "failure_recovery",
                   .file = "failure_recovery.golden",
                   .cluster = {.nodes = 10, .slots_per_node = 2}};
  TraceGenConfig bg;
  bg.num_jobs = 8;
  bg.window = 300.0;
  bg.seed = 3001;

  RunOptions o;
  o.seed = 1;
  o.ssr = SsrConfig{};
  o.ssr->min_reserving_priority = 1;
  o.ssr->enable_straggler_mitigation = true;
  // Two transient node outages during the foreground job plus one permanent
  // loss, so the digest covers kill/re-queue, recovery, and a node that
  // never comes back (its resident outputs stay lost).
  o.failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 0, 120.0, 160.0});
  o.failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 7, 140.0, 170.0});
  o.failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 5, 110.0, kTimeInfinity});

  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(12, 10, bg.window * 0.25));
  s.passes.push_back({"failure/ssr+mitigation", o, std::move(jobs)});
  return s;
}

// Policy-zoo goldens: the fig12 isolation shape run once per zoo policy
// (exp/policy_zoo.h), with per-stage demand vectors on so resource-vector
// arithmetic is under digest everywhere.  The packing pass additionally
// runs on a heterogeneous cluster — capacity spread is what gives
// packing_waste a gradient; on a homogeneous cluster every slot ties and
// the selector collapses to id order.  The undersized {0.5,1,1} slots also
// pin the per-slot fits_in rejection path.
inline GoldenScenario zoo_policy_scenario(ZooPolicy policy) {
  const std::string name = zoo_policy_name(policy);
  GoldenScenario s{.name = "policy_" + name,
                   .file = "policy_" + name + ".golden",
                   .cluster = {.nodes = 50, .slots_per_node = 2}};
  if (policy == ZooPolicy::kPacking) {
    s.cluster.node_slots.assign(
        s.cluster.nodes,
        {Resources{1.0, 1.0, 1.0}, Resources{1.0, 1.0, 1.0}});
    for (std::size_t n = 1; n < s.cluster.node_slots.size(); n += 2) {
      s.cluster.node_slots[n] = {Resources{2.0, 2.0, 2.0},
                                 Resources{0.5, 1.0, 1.0}};
    }
  }
  TraceGenConfig bg;
  bg.num_jobs = 12;
  bg.window = 450.0;
  bg.seed = 1001;
  bg.vary_demand = true;

  RunOptions o;
  o.seed = 1;
  apply_zoo_policy(policy, s.cluster, o);

  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(20, 10, bg.window * 0.25));
  s.passes.push_back({"policy_zoo/" + name, o, std::move(jobs)});
  return s;
}

// The Sec. III-A strawmen on the fig12 isolation shape: a static carve-out
// of 10 slots and 15 s timeout holds, each with and without a node-failure
// schedule.  Node 3 goes down before the carve-out exists, so a failure of
// a slot the hook does not hold must not set it up early; node 0's loss at
// 130 s breaks held reservations of both hooks.  No zoo policy runs these
// hooks, so this digest is what pins their reservation streams.
inline GoldenScenario strawman_scenario() {
  GoldenScenario s{.name = "strawmen",
                   .file = "strawmen.golden",
                   .cluster = {.nodes = 50, .slots_per_node = 2}};
  TraceGenConfig bg;
  bg.num_jobs = 12;
  bg.window = 450.0;
  bg.seed = 1001;

  FailureSchedule failures;
  failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 3, 20.0, 140.0});
  failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 0, 130.0, kTimeInfinity});

  struct Hook {
    const char* name;
    std::function<std::unique_ptr<ReservationHook>()> make;
  };
  const Hook hooks[] = {
      {"static10",
       [] { return make_static_reservation_hook(10, 10); }},
      {"timeout15",
       [] { return std::make_unique<TimeoutReservationHook>(15.0); }},
  };
  std::vector<JobSpec> jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(20, 10, bg.window * 0.25));
  for (const Hook& hook : hooks) {
    for (const bool faulted : {false, true}) {
      RunOptions o;
      o.seed = 1;
      o.hook_factory = hook.make;
      if (faulted) o.failures = failures;
      s.passes.push_back({std::string("strawmen/") + hook.name +
                              (faulted ? "+failures" : ""),
                          o, jobs});
    }
  }
  return s;
}

inline std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> all;
  all.push_back(fig12_scenario());
  all.push_back(fig14_scenario());
  all.push_back(fig15_scenario());
  all.push_back(failure_recovery_scenario());
  all.push_back(strawman_scenario());
  for (ZooPolicy policy : all_zoo_policies()) {
    all.push_back(zoo_policy_scenario(policy));
  }
  return all;
}

}  // namespace ssr
