// Property-based tests: invariants checked over randomized workload sweeps
// (parameterized gtest).  These complement the example-driven unit tests by
// exercising the scheduler + SSR core on hundreds of generated scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ssr/audit/tenant_audit.h"
#include "ssr/audit/violation.h"
#include "ssr/common/check.h"
#include "ssr/common/rng.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/sweep.h"
#include "ssr/sched/engine.h"
#include "ssr/sched/policies/table_driven.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

/// Decorates a ReservationManager, auditing every approval decision against
/// the cluster's actual slot state: a reserved slot must never be approved
/// for an equal-or-lower-priority foreign job, and an idle slot must always
/// be approved (work conservation at the approval layer).
class AuditingHook : public ReservationHook {
 public:
  explicit AuditingHook(SsrConfig cfg) : inner_(cfg) {}

  void on_task_finished(Engine& e, const TaskFinishInfo& i) override {
    inner_.on_task_finished(e, i);
  }
  void on_task_killed(Engine& e, const TaskFinishInfo& i) override {
    inner_.on_task_killed(e, i);
  }
  void on_slot_idle(Engine& e, SlotId s) override { inner_.on_slot_idle(e, s); }
  bool approve(const Engine& e, SlotId slot, JobId job,
               int priority) const override {
    const bool result = inner_.approve(e, slot, job, priority);
    const Slot& s = e.cluster().slot(slot);
    switch (s.state()) {
      case SlotState::Idle:
        EXPECT_TRUE(result) << "idle slot denied";
        break;
      case SlotState::ReservedIdle: {
        const Reservation& r = *s.reservation();
        const bool allowed = r.job == job || priority > r.priority;
        EXPECT_EQ(result, allowed)
            << "approval decision diverged from Algorithm 1's rule";
        if (!allowed) ++denied_;
        break;
      }
      case SlotState::Busy:
        EXPECT_FALSE(result) << "busy slot approved";
        break;
      case SlotState::Dead:
        EXPECT_FALSE(result) << "dead slot approved";
        break;
    }
    return result;
  }
  void on_stage_submitted(Engine& e, StageId s) override {
    inner_.on_stage_submitted(e, s);
  }
  void on_stage_fully_placed(Engine& e, StageId s) override {
    inner_.on_stage_fully_placed(e, s);
  }
  void on_task_started(Engine& e, TaskId t, SlotId s) override {
    inner_.on_task_started(e, t, s);
  }
  void on_job_finished(Engine& e, JobId j) override {
    inner_.on_job_finished(e, j);
  }

  std::uint64_t denied() const { return denied_; }

 private:
  ReservationManager inner_;
  mutable std::uint64_t denied_ = 0;
};

/// Barrier auditor usable under random contention.
class BarrierAuditor : public EngineObserver {
 public:
  void on_stage_finished(const Engine& engine, StageId stage) override {
    finish_[stage] = engine.sim().now();
  }
  void on_task_started(const Engine& engine, TaskId task, SlotId) override {
    const JobGraph& g = engine.graph(task.stage.job);
    for (std::uint32_t p : g.stage(task.stage.index).parents) {
      auto it = finish_.find(g.stage_id(p));
      ASSERT_NE(it, finish_.end());
      ASSERT_LE(it->second, engine.sim().now());
    }
  }

 private:
  std::map<StageId, SimTime> finish_;
};

std::vector<JobSpec> random_mix(std::uint64_t seed) {
  TraceGenConfig bg;
  bg.num_jobs = 25;
  bg.window = 400.0;
  bg.seed = seed;
  auto jobs = make_background_jobs(bg);
  jobs.push_back(make_kmeans(12, 10, 50.0));
  SqlJobParams sql;
  sql.query_index = static_cast<std::uint32_t>(seed % 20);
  sql.base_parallelism = 10;
  sql.priority = 10;
  sql.submit_time = 80.0;
  jobs.push_back(make_sql_query(sql));
  return jobs;
}

struct SweepCase {
  std::uint64_t seed;
  double isolation_p;
  bool mitigate;
  SchedulingPolicy policy;
};

class RandomScenarioSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomScenarioSweep, InvariantsHoldEndToEnd) {
  const SweepCase& c = GetParam();
  SchedConfig sched;
  sched.policy = c.policy;
  Engine engine(sched, 8, 2, c.seed);

  SsrConfig cfg;
  cfg.isolation_p = c.isolation_p;
  cfg.enable_straggler_mitigation = c.mitigate;
  auto hook = std::make_unique<AuditingHook>(cfg);
  engine.set_reservation_hook(std::move(hook));

  BarrierAuditor barriers;
  engine.add_observer(&barriers);

  std::vector<JobId> ids;
  for (JobSpec& spec : random_mix(c.seed)) {
    ids.push_back(engine.submit(std::move(spec)));
  }
  engine.run();  // throws if any job wedges (liveness)

  for (JobId id : ids) {
    EXPECT_TRUE(engine.job_finished(id));
    EXPECT_GT(engine.jct(id), 0.0);
  }
  // Accounting sanity: settling twice is idempotent; utilization in [0, 1].
  engine.cluster().settle(engine.sim().now());
  const double util = engine.cluster().utilization(engine.sim().now());
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomScenarioSweep,
    ::testing::Values(
        SweepCase{1, 1.0, false, SchedulingPolicy::Priority},
        SweepCase{2, 1.0, true, SchedulingPolicy::Priority},
        SweepCase{3, 0.5, false, SchedulingPolicy::Priority},
        SweepCase{4, 0.5, true, SchedulingPolicy::Priority},
        SweepCase{5, 0.2, true, SchedulingPolicy::Priority},
        SweepCase{6, 1.0, false, SchedulingPolicy::Fair},
        SweepCase{7, 1.0, true, SchedulingPolicy::Fair},
        SweepCase{8, 0.7, true, SchedulingPolicy::Fair},
        SweepCase{9, 0.9, false, SchedulingPolicy::Fair},
        SweepCase{10, 0.3, false, SchedulingPolicy::Priority}));

class AloneJctProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AloneJctProperty, ChainAloneEqualsSumOfStageMaxima) {
  // A stable-parallelism chain job alone on a big-enough cluster finishes in
  // exactly the sum of per-stage maxima: barriers add no other delay and
  // every downstream task finds a data-local slot.  (Width-expanding chains
  // would legitimately pay locality penalties for the extra tasks.)
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  JobBuilder b("chain");
  double expected = 0.0;
  const int stages = 2 + static_cast<int>(seed % 4);
  const std::uint32_t width =
      2 + static_cast<std::uint32_t>(rng.uniform_int(0, 6));
  for (int s = 0; s < stages; ++s) {
    std::vector<double> durations(width);
    double mx = 0.0;
    for (double& d : durations) {
      d = rng.uniform(1.0, 20.0);
      mx = std::max(mx, d);
    }
    b.stage(width, fixed_duration(1.0)).explicit_durations(durations);
    expected += mx;
  }
  Engine engine(SchedConfig{}, 4, 4, seed);
  const JobId id = engine.submit(b.build());
  engine.run();
  EXPECT_NEAR(engine.jct(id), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AloneJctProperty,
                         ::testing::Range<std::uint64_t>(100, 120));

class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationProperty, BusyTimeEqualsExecutedWork) {
  // Without SSR and without locality penalties (single-stage jobs only),
  // total busy slot-time must equal the sum of all task durations: no work
  // is lost, duplicated, or inflated.
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Engine engine(SchedConfig{}, 3, 2, seed);
  double total_work = 0.0;
  for (int j = 0; j < 12; ++j) {
    const std::uint32_t width = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 8));
    std::vector<double> durations(width);
    for (double& d : durations) {
      d = rng.uniform(0.5, 30.0);
      total_work += d;
    }
    engine.submit(JobBuilder("j" + std::to_string(j))
                      .priority(static_cast<int>(seed + j) % 3)
                      .submit_at(rng.uniform(0.0, 60.0))
                      .stage(width, fixed_duration(1.0))
                      .explicit_durations(durations)
                      .build());
  }
  engine.run();
  engine.cluster().settle(engine.sim().now());
  EXPECT_NEAR(engine.cluster().total_busy_time(), total_work, 1e-6);
  EXPECT_DOUBLE_EQ(engine.cluster().total_reserved_idle_time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Range<std::uint64_t>(200, 215));

class SweepAccountingProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SweepAccountingProperty, InvariantsHoldOverRandomizedTrials) {
  // Run randomized contended scenarios through the parallel sweep runner and
  // check the slot-time ledger on every RunResult it hands back:
  //  * busy + reserved-idle slot-seconds can never exceed the cluster's
  //    capacity over the run (total_slots x makespan);
  //  * utilization is a fraction of that capacity, so it lives in [0, 1];
  //  * no job finishes before it was submitted.
  // These hold for the baseline, for SSR, and for the naive policies — the
  // accounting is policy-independent.
  const std::uint64_t seed = GetParam();
  std::vector<Trial> grid;
  for (const bool use_ssr : {false, true}) {
    Trial t;
    t.cluster = ClusterSpec{.nodes = 8, .slots_per_node = 2, .node_slots = {}};
    t.jobs = random_mix(seed);
    if (use_ssr) {
      SsrConfig cfg;
      cfg.isolation_p = 0.25 + 0.15 * static_cast<double>(seed % 6);
      cfg.enable_straggler_mitigation = (seed % 2) == 0;
      t.options.ssr = cfg;
    }
    t.options.seed = seed;
    t.label = use_ssr ? "ssr" : "baseline";
    grid.push_back(std::move(t));
  }
  SweepOptions options;
  options.num_workers = 2;
  const SweepRunner runner(options);
  const std::vector<TrialResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), grid.size());

  for (const TrialResult& tr : results) {
    const RunResult& r = tr.run;
    const double capacity =
        static_cast<double>(grid[tr.index].cluster.total_slots()) *
        r.makespan;
    EXPECT_GT(r.makespan, 0.0) << tr.label;
    EXPECT_GE(r.busy_time, 0.0) << tr.label;
    EXPECT_GE(r.reserved_idle_time, 0.0) << tr.label;
    EXPECT_LE(r.busy_time + r.reserved_idle_time, capacity * (1.0 + 1e-9))
        << tr.label << ": slot-time ledger exceeds cluster capacity";
    EXPECT_GE(r.utilization, 0.0) << tr.label;
    EXPECT_LE(r.utilization, 1.0 + 1e-9) << tr.label;
    for (const JobResult& j : r.jobs) {
      EXPECT_GE(j.finish, j.submit) << tr.label << " job " << j.name;
      EXPECT_NEAR(j.jct, j.finish - j.submit, 1e-9) << tr.label;
    }
    // Baseline runs reserve nothing, so their ledger has no reserved-idle.
    if (tr.label == "baseline") {
      EXPECT_DOUBLE_EQ(r.reserved_idle_time, 0.0);
      EXPECT_EQ(r.reservations_expired, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepAccountingProperty,
                         ::testing::Range<std::uint64_t>(400, 412));

TEST(ReservationProperty, StrictIsolationGivesBarrierContinuity) {
  // With SSR at P = 1 and stable parallelism, a foreground chain running
  // against arbitrary lower-priority contention must progress through
  // every barrier without delay: stage k+1 starts exactly when stage k
  // finishes (its slots were reserved), so the contended JCT (from first
  // task start) equals the alone JCT.
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    const ClusterSpec cluster{.nodes = 6, .slots_per_node = 2, .node_slots = {}};
    RunOptions o;
    o.seed = seed;
    // Materialize explicit durations so the alone and contended runs execute
    // the *identical* job (the engine RNG's draw order differs between them).
    JobSpec fg = make_kmeans(12, 10, 0.0);
    Rng duration_rng(seed * 7 + 1);
    for (StageSpec& st : fg.stages) {
      std::vector<double> d(st.num_tasks);
      for (double& x : d) x = st.duration->sample(duration_rng);
      st.explicit_durations = std::move(d);
    }
    const double alone = alone_jct(cluster, fg, o);

    Engine engine(SchedConfig{}, 6, 2, seed);
    engine.set_reservation_hook(
        std::make_unique<ReservationManager>(SsrConfig{}));
    TraceGenConfig bg;
    bg.num_jobs = 20;
    bg.window = 200.0;
    bg.seed = seed;
    for (JobSpec& spec : make_background_jobs(bg)) {
      engine.submit(std::move(spec));
    }
    // Submit the foreground at t=0 so its phase 1 starts on the empty
    // cluster (isolation protects steady state, not admission).
    const JobId fg_id = engine.submit(fg);
    engine.run();
    EXPECT_NEAR(engine.jct(fg_id), alone, alone * 0.02) << "seed " << seed;
  }
}

/// Drives one open-arrival stream through a VirtualClusterManager: advance to
/// each arrival instant, submit, and (optionally) run `at_arrival` first so
/// tests can interleave resize/transfer with live traffic.
void drive_open_arrivals(
    Engine& engine, VirtualClusterManager& vcm,
    std::vector<OpenArrival> arrivals,
    const std::function<void(std::size_t)>& at_arrival = nullptr) {
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    engine.advance_to(arrivals[i].at);
    if (at_arrival) at_arrival(i);
    vcm.submit_job(arrivals[i].tenant, std::move(arrivals[i].spec));
  }
  engine.drain();
}

void expect_tenant_audit_clean(const VirtualClusterManager& vcm,
                               std::uint32_t physical_slots) {
  const auto violations = audit::audit_virtual_clusters(vcm, physical_slots);
  EXPECT_TRUE(violations.empty()) << audit::format_report(violations);
}

class VirtualClusterProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(VirtualClusterProperty, AdmissionNeverExceedsMaxShare) {
  // At every instant, each tenant's in-flight slot demand stays within its
  // elastic maximum share.  Demand only grows at admission, so checking after
  // every submit_job (plus the replayed admission log) covers all instants.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 11 + 3);
  const std::uint32_t nodes = 4 + static_cast<std::uint32_t>(rng.uniform_int(0, 4));
  Engine engine(SchedConfig{}, nodes, 2, seed);
  const std::uint32_t total = nodes * 2;
  VirtualClusterManager vcm(engine);
  vcm.add_cluster({.name = "gold",
                   .min_slots = total / 3,
                   .max_slots = total / 2 + 1,
                   .queue_when_full = true});
  vcm.add_cluster({.name = "silver",
                   .min_slots = total / 4,
                   .max_slots = total / 2,
                   .queue_when_full = (seed % 2) == 0});

  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "gold",
                      .mean_interarrival = 12.0,
                      .num_jobs = 20,
                      .min_parallelism = 2,
                      .max_parallelism = total,
                      .priority = 5});
  profiles.push_back({.tenant = "silver",
                      .mean_interarrival = 9.0,
                      .num_jobs = 25,
                      .min_parallelism = 2,
                      .max_parallelism = total,
                      .priority = 0});
  drive_open_arrivals(engine, vcm, make_open_arrivals(profiles, seed),
                      [&](std::size_t) {
                        for (const std::string& t : vcm.tenant_names()) {
                          EXPECT_LE(vcm.stats(t).demand_in_flight,
                                    vcm.spec(t).max_slots)
                              << t;
                        }
                      });

  for (const AdmissionRecord& a : vcm.admission_log()) {
    EXPECT_LE(a.in_flight_after, a.max_at_admit) << a.tenant << " " << a.job;
    EXPECT_GE(a.admitted_at, a.requested_at) << a.tenant << " " << a.job;
  }
  EXPECT_TRUE(vcm.all_queues_empty());
  for (const std::string& t : vcm.tenant_names()) {
    const TenantStats& s = vcm.stats(t);
    EXPECT_EQ(s.submitted, s.admitted + s.rejected) << t;
    EXPECT_EQ(s.admitted, s.completed) << t;
    EXPECT_EQ(s.jobs_in_flight, 0u) << t;
    EXPECT_EQ(s.demand_in_flight, 0u) << t;
    EXPECT_LE(s.peak_demand_in_flight, vcm.spec(t).max_slots) << t;
  }
  expect_tenant_audit_clean(vcm, total);
}

TEST_P(VirtualClusterProperty, TransferConservesTotalShares) {
  // Elastic resize via transfer() moves shares between tenants but conserves
  // the totals exactly, even while arrivals and completions are in flight.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 13 + 7);
  Engine engine(SchedConfig{}, 6, 2, seed);  // 12 physical slots
  VirtualClusterManager vcm(engine);
  vcm.add_cluster({.name = "a", .min_slots = 4, .max_slots = 10});
  vcm.add_cluster({.name = "b", .min_slots = 2, .max_slots = 10});
  vcm.add_cluster({.name = "c", .min_slots = 0, .max_slots = 8});
  const std::uint32_t total_min = 6, total_max = 28;

  std::vector<OpenTenantProfile> profiles;
  for (const char* name : {"a", "b", "c"}) {
    // Widest stages reach lround(1.5 x parallelism) = 6 slots, never more
    // than any reachable maximum (transfers below keep max >= 6), so queued
    // heads always fit and transfers stay legal.
    profiles.push_back({.tenant = name,
                        .mean_interarrival = 10.0,
                        .num_jobs = 15,
                        .min_parallelism = 2,
                        .max_parallelism = 4});
  }
  const std::vector<std::string> names = vcm.tenant_names();
  std::uint64_t transfers = 0;
  drive_open_arrivals(
      engine, vcm, make_open_arrivals(profiles, seed), [&](std::size_t) {
        if (rng.uniform_int(0, 2) != 0) return;
        const std::string& from = names[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(names.size()) - 1))];
        const std::string& to = names[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(names.size()) - 1))];
        if (from == to || vcm.spec(from).min_slots < 1 ||
            vcm.spec(from).max_slots < 7) {
          return;
        }
        vcm.transfer(from, to, 1);
        ++transfers;
        std::uint32_t sum_min = 0, sum_max = 0;
        for (const std::string& t : names) {
          sum_min += vcm.spec(t).min_slots;
          sum_max += vcm.spec(t).max_slots;
        }
        EXPECT_EQ(sum_min, total_min);
        EXPECT_EQ(sum_max, total_max);
      });
  EXPECT_GT(transfers, 0u) << "sweep never exercised transfer()";
  EXPECT_TRUE(vcm.all_queues_empty());
  expect_tenant_audit_clean(vcm, 12);
}

TEST_P(VirtualClusterProperty, StarvedTenantQueueDrainsByQuiescence) {
  // A tenant squeezed well below the physical cluster queues most of its
  // traffic behind a slot-hungry neighbor — but every queued job is admitted
  // and completed by quiescence (drain() strands nothing), because a queued
  // head always fits the tenant's maximum share.
  const std::uint64_t seed = GetParam();
  Engine engine(SchedConfig{}, 6, 2, seed);  // 12 physical slots
  VirtualClusterManager vcm(engine);
  vcm.add_cluster({.name = "hog", .min_slots = 6, .max_slots = 12});
  vcm.add_cluster({.name = "starved", .min_slots = 2, .max_slots = 6});

  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "hog",
                      .mean_interarrival = 8.0,
                      .num_jobs = 30,
                      .min_parallelism = 6,
                      .max_parallelism = 10,
                      .priority = 5});
  // Widest stage <= lround(1.5 x 4) = 6 == max share, so nothing is ever
  // rejected: every over-quota submission round-trips through the queue.
  profiles.push_back({.tenant = "starved",
                      .mean_interarrival = 15.0,
                      .num_jobs = 12,
                      .min_parallelism = 3,
                      .max_parallelism = 4});
  drive_open_arrivals(engine, vcm, make_open_arrivals(profiles, seed));

  const TenantStats& s = vcm.stats("starved");
  EXPECT_EQ(s.submitted, 12u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.admitted, 12u);
  EXPECT_EQ(s.completed, 12u);
  EXPECT_GT(s.queued_total, 0u) << "sweep never exercised the queue";
  EXPECT_GT(s.max_queue_delay, 0.0);
  EXPECT_TRUE(vcm.all_queues_empty());
  EXPECT_EQ(vcm.queued_jobs("starved"), 0u);
  expect_tenant_audit_clean(vcm, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VirtualClusterProperty,
                         ::testing::Range<std::uint64_t>(500, 512));

// --- Resource-vector arithmetic (common/resources.h) -------------------------
//
// Components are drawn as multiples of 0.25 — exact binary fractions — so
// sums and differences are exact and the properties can use EXPECT_EQ
// rather than tolerances.

Resources quarter_grid_vector(Rng& rng) {
  return {0.25 * static_cast<double>(rng.uniform_int(1, 16)),
          0.25 * static_cast<double>(rng.uniform_int(1, 16)),
          0.25 * static_cast<double>(rng.uniform_int(1, 16))};
}

TEST(ResourceVectorProperty, ArithmeticIsExactAndConserving) {
  Rng rng(0x5e50);
  for (int i = 0; i < 500; ++i) {
    const Resources a = quarter_grid_vector(rng);
    const Resources b = quarter_grid_vector(rng);
    // Round-trip: adding then removing a demand restores the capacity
    // exactly — the failure-recovery path (reserve, kill, re-reserve)
    // relies on this never drifting.
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
    // total() is additive, and a demand always fits the capacity that
    // includes it (no over-commit by construction).
    EXPECT_DOUBLE_EQ((a + b).total(), a.total() + b.total());
    EXPECT_TRUE(a.fits_in(a));
    EXPECT_TRUE(a.fits_in(a + b));
    // Waste of a fitting placement is the total slack, and never negative.
    if (a.fits_in(b)) {
      EXPECT_DOUBLE_EQ(packing_waste(a, b), (b - a).total());
      EXPECT_GE(packing_waste(a, b), 0.0);
    }
    // fits_in is a partial order: reflexive (above), antisymmetric on the
    // grid, and transitive.
    const Resources c = quarter_grid_vector(rng);
    if (a.fits_in(b) && b.fits_in(a)) {
      EXPECT_EQ(a, b);
    }
    if (a.fits_in(b) && b.fits_in(c)) {
      EXPECT_TRUE(a.fits_in(c));
    }
  }
}

// No over-commit, under contention *and* failure recovery: on a
// heterogeneous cluster with per-stage demand vectors, every task start
// must fit its slot's capacity vector — including re-runs placed after
// kill/re-queue cycles, where a task that lost its big slot must not be
// resurrected onto a small one.
struct FitAuditor final : EngineObserver {
  std::uint64_t starts = 0;
  void on_task_started(const Engine& e, TaskId t, SlotId s) override {
    ++starts;
    const Resources& demand =
        e.graph(t.stage.job).stage(t.stage.index).demand;
    ASSERT_TRUE(demand.fits_in(e.cluster().slot(s).capacity()))
        << "task " << t << " over-committed slot " << s;
  }
};

TEST(ResourceVectorProperty, NoOverCommitUnderFailureRecovery) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ClusterSpec cluster;
    cluster.nodes = 6;
    cluster.slots_per_node = 2;
    cluster.node_slots.assign(
        6, {Resources{1.0, 1.0, 1.0}, Resources{1.0, 1.0, 1.0}});
    cluster.node_slots[1] = {Resources{2.0, 2.0, 2.0},
                             Resources{0.5, 1.0, 1.0}};
    cluster.node_slots[4] = {Resources{2.0, 2.0, 2.0},
                             Resources{0.5, 1.0, 1.0}};

    RunOptions options;
    options.seed = 100 + seed;
    apply_zoo_policy(ZooPolicy::kPacking, cluster, options);
    // Two transient outages plus one permanent node loss mid-run.
    options.failures.events.push_back(
        FailureEvent{FailureEvent::Scope::Node, 1, 60.0, 90.0});
    options.failures.events.push_back(
        FailureEvent{FailureEvent::Scope::Node, 3, 80.0, 120.0});
    options.failures.events.push_back(
        FailureEvent{FailureEvent::Scope::Node, 4, 70.0, kTimeInfinity});

    TraceGenConfig bg;
    bg.num_jobs = 8;
    bg.window = 200.0;
    bg.large_job_max_tasks = 20;
    bg.seed = 9000 + seed;
    bg.vary_demand = true;

    ScenarioHarness harness(cluster, options);
    FitAuditor fits;
    harness.engine().add_observer(&fits);
    std::vector<JobId> ids;
    for (JobSpec& spec : make_background_jobs(bg)) {
      ids.push_back(harness.engine().submit(std::move(spec)));
    }
    ids.push_back(harness.engine().submit(make_kmeans(6, 10, 50.0)));
    harness.engine().run();  // throws if recovery wedges any job
    const RunResult run = harness.collect(ids);

    double attributed = 0.0;
    for (const JobResult& j : run.jobs) {
      EXPECT_GT(j.jct, 0.0) << "seed " << seed << ": " << j.name;
      attributed += j.busy_seconds;
    }
    // Busy-time conservation across the recovery machinery: the per-job
    // attribution (task-stats collector) must sum back to the cluster's
    // ledger even when attempts were killed, re-queued and re-run.
    EXPECT_NEAR(attributed, run.busy_time,
                1e-6 * std::max(1.0, run.busy_time))
        << "seed " << seed;
    EXPECT_GT(fits.starts, 0u);
    EXPECT_GT(run.recovery.tasks_requeued, 0u)
        << "seed " << seed << ": schedule never exercised recovery";
  }
}

// --- Table-driven timetable invariants (sched/policies/table_driven.h) ------
//
// Random timetables on a 0.25-grid (exact binary fractions: fmod and the
// window arithmetic are exact, so the invariants can be asserted with
// EXPECT_EQ across whole cycles).

TableDrivenConfig random_timetable(Rng& rng) {
  TableDrivenConfig config;
  const std::int64_t cycle_ticks = rng.uniform_int(8, 200);
  config.major_cycle = 0.25 * static_cast<double>(cycle_ticks);
  const int windows = static_cast<int>(rng.uniform_int(1, 4));
  // 2*windows distinct grid points, sorted, paired into [start, end).
  std::vector<std::int64_t> ticks;
  while (static_cast<int>(ticks.size()) < 2 * windows) {
    const std::int64_t t = rng.uniform_int(0, cycle_ticks);
    bool dup = false;
    for (std::int64_t seen : ticks) dup = dup || seen == t;
    if (!dup) ticks.push_back(t);
  }
  std::sort(ticks.begin(), ticks.end());
  for (int w = 0; w < windows; ++w) {
    config.intervals.push_back({0.25 * static_cast<double>(ticks[2 * w]),
                                0.25 * static_cast<double>(ticks[2 * w + 1])});
  }
  config.reserved_slots = 1;
  return config;
}

TEST(TableTimetableProperty, WindowsNeverOverlapAndCycleWraps) {
  Rng rng(0x7ab1e);
  for (int trial = 0; trial < 200; ++trial) {
    const TableDrivenConfig config = random_timetable(rng);
    const TableDrivenHook hook(config);
    const double cycle = config.major_cycle;

    // Partitions never overlap: every phase point belongs to at most one
    // window (the ctor validated sortedness/disjointness; this checks the
    // geometry directly).
    for (double p = 0.0; p < cycle; p += 0.25) {
      int covering = 0;
      for (const TableInterval& w : config.intervals) {
        if (p >= w.start && p < w.end) ++covering;
      }
      ASSERT_LE(covering, 1) << "phase " << p << " covered twice";
      ASSERT_EQ(hook.in_window(p), covering == 1) << "phase " << p;
    }

    for (int probe = 0; probe < 50; ++probe) {
      const double t =
          0.25 * static_cast<double>(rng.uniform_int(0, 40 * 200));
      // Cycle wrap: membership is purely a function of the phase.
      ASSERT_EQ(hook.in_window(t), hook.in_window(t + cycle));
      ASSERT_EQ(hook.in_window(t), hook.in_window(t + 7.0 * cycle));
      if (hook.in_window(t)) {
        const double end = hook.window_end(t);
        ASSERT_GT(end, t);
        ASSERT_LE(end - t, cycle);
        // Half-open: the window is live on [t, end) and closed at `end`
        // unless an adjacent window starts exactly there.
        ASSERT_TRUE(hook.in_window(end - 0.25));
        bool adjacent = false;
        for (const TableInterval& w : config.intervals) {
          adjacent = adjacent || w.start == std::fmod(end, cycle);
        }
        ASSERT_EQ(hook.in_window(end), adjacent) << "t=" << t;
      } else {
        const double next = hook.next_window_start_after(t);
        ASSERT_GT(next, t);
        ASSERT_LE(next - t, cycle);
        // `next` is a window start...
        bool is_start = false;
        for (const TableInterval& w : config.intervals) {
          is_start = is_start || w.start == std::fmod(next, cycle);
        }
        ASSERT_TRUE(is_start) << "t=" << t << " next=" << next;
        // ...and no window is live anywhere in (t, next).
        for (double q = t + 0.25; q < next; q += 0.25) {
          ASSERT_FALSE(hook.in_window(q))
              << "window live at " << q << " before wakeup at " << next;
        }
      }
    }

    // Malformed timetables must be rejected at construction.
    TableDrivenConfig overlapping = config;
    if (!overlapping.intervals.empty()) {
      overlapping.intervals.push_back(overlapping.intervals.back());
      EXPECT_THROW(TableDrivenHook{overlapping}, CheckError);
    }
    TableDrivenConfig outside = config;
    outside.intervals.push_back(
        {cycle + 0.25, cycle + 0.5});
    EXPECT_THROW(TableDrivenHook{outside}, CheckError);
    // A wakeup at +inf would end the run there.
    TableDrivenConfig endless = config;
    endless.major_cycle = kTimeInfinity;
    EXPECT_THROW(TableDrivenHook{endless}, CheckError);
    // The reservation priority class_min_priority - 1 would overflow.
    TableDrivenConfig lowest_class = config;
    lowest_class.class_min_priority = std::numeric_limits<int>::min();
    EXPECT_THROW(TableDrivenHook{lowest_class}, CheckError);
    TableDrivenConfig no_windows = config;
    no_windows.intervals.clear();
    EXPECT_THROW(TableDrivenHook{no_windows}, CheckError);
  }
}

}  // namespace
}  // namespace ssr
