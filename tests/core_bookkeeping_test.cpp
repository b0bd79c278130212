// Audit of the reservation core's incremental bookkeeping.
//
// ReservationManager keeps per-slot records, a live-reservation count per
// phase and a set of phases with open pre-reservation demand, and reads the
// cluster's per-job reserved-idle index instead of keeping its own.  The
// mitigation trigger reads running_originals() in place of scanning for the
// ongoing tasks.  Each of these is exact only while every update site keeps
// it in step, so this suite wraps the nine hook callbacks (the way a
// tracing subclass would) and runs check_bookkeeping() after every
// top-level callback of 240 seeded scenarios.
//
// The scenarios mix P in {0.5, 0.9, 1} (deadline expiries), straggler
// copies, SQL-shaped foreground jobs whose phases widen and narrow
// (Case-2.2 release, Case-2.3 pre-reservation), a higher-priority job that
// overrides pre-reservations, heterogeneous clusters whose small slots
// cannot host a big-memory downstream phase, and random node failures.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/core/reservation_manager.h"
#include "ssr/sched/engine.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/sqlbench.h"
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

/// Slot capacities of a heterogeneous cluster: odd nodes have big-memory
/// slots, even nodes small ones.
const Resources kSmallSlot{1.0, 1.0, 1.0};
const Resources kBigSlot{1.0, 2.0, 1.0};

struct BookkeepingParams {
  std::uint32_t nodes;
  std::uint32_t slots_per_node;
  bool heterogeneous;
  TraceGenConfig bg;
  SqlJobParams fg;
  bool fg_is_sql;
  bool vip;  ///< add a priority-20 job that overrides priority-10 holds
  SimDuration locality_wait;
  SchedulingPolicy policy;
  SsrConfig ssr;
  RandomFailureConfig failures;  ///< failures == 0: no injector
  std::uint64_t engine_seed;
};

BookkeepingParams derive_params(std::uint64_t trial) {
  std::uint64_t s = 0xb00cce9ull ^ (trial * 0x2f1ull);
  BookkeepingParams p;
  p.nodes = 2 + static_cast<std::uint32_t>(splitmix64(s) % 7);
  p.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 3);
  p.heterogeneous = splitmix64(s) % 3 == 0;
  p.bg.num_jobs = 4 + static_cast<std::uint32_t>(splitmix64(s) % 12);
  p.bg.window = 60.0 + static_cast<double>(splitmix64(s) % 6) * 30.0;
  p.bg.large_job_max_tasks = 30;  // bound per-trial work
  p.bg.seed = 11 + trial * 131;
  p.fg.query_index = static_cast<std::uint32_t>(splitmix64(s) % 20);
  p.fg.base_parallelism = 3 + static_cast<std::uint32_t>(splitmix64(s) % 8);
  p.fg.priority = 10;
  p.fg.submit_time = p.bg.window * 0.2;
  p.fg_is_sql = splitmix64(s) % 4 != 0;
  p.vip = splitmix64(s) % 2 == 0;
  const double waits[] = {0.0, 1.0, 3.0};
  p.locality_wait = waits[splitmix64(s) % 3];
  p.policy = splitmix64(s) % 3 == 0 ? SchedulingPolicy::Fair
                                    : SchedulingPolicy::Priority;
  const double isolation[] = {0.5, 0.9, 1.0};
  p.ssr.isolation_p = isolation[trial % 3];
  p.ssr.enable_straggler_mitigation = splitmix64(s) % 4 != 0;
  const double thresholds[] = {0.0, 0.3, 0.5, 0.8};
  p.ssr.prereserve_threshold = thresholds[splitmix64(s) % 4];
  // Mostly only the foreground reserves, as in the paper's experiments;
  // sometimes every job does, background Case-1 chains included.
  if (splitmix64(s) % 4 != 0) p.ssr.min_reserving_priority = 1;
  p.failures.num_nodes = p.nodes;
  p.failures.horizon = p.bg.window * 1.5;
  p.failures.failures = static_cast<std::uint32_t>(splitmix64(s) % 4);
  p.failures.min_downtime = 2.0;
  p.failures.max_downtime = 25.0;
  // A permanent loss of every big-memory node would strand the big phases.
  p.failures.permanent_fraction = p.heterogeneous ? 0.0 : 0.15;
  p.failures.seed = 0xfa11 + trial;
  p.engine_seed = 3 + trial;
  return p;
}

/// Every non-root foreground stage with an odd index needs a big slot, so a
/// task finishing on a small slot hits the release-and-pre-reserve branch.
void require_big_slots(JobSpec& spec) {
  for (std::uint32_t i = 1; i < spec.stages.size(); i += 2) {
    if (!spec.stages[i].parents.empty()) spec.stages[i].demand = kBigSlot;
  }
}

std::vector<JobSpec> foreground_jobs(const BookkeepingParams& p) {
  std::vector<JobSpec> jobs;
  jobs.push_back(p.fg_is_sql
                     ? make_sql_query(p.fg)
                     : make_kmeans(p.fg.base_parallelism, p.fg.priority,
                                   p.fg.submit_time));
  if (p.vip) {
    SqlJobParams vip = p.fg;
    vip.query_index = (p.fg.query_index + 7) % 20;
    vip.base_parallelism = 2 + p.fg.base_parallelism / 2;
    vip.priority = 20;
    vip.submit_time = p.bg.window * 0.35;
    jobs.push_back(make_sql_query(vip));
  }
  if (p.heterogeneous) {
    for (JobSpec& spec : jobs) require_big_slots(spec);
  }
  return jobs;
}

/// ReservationManager with every hook callback wrapped: once the outermost
/// callback returns, the bookkeeping must agree with the engine.  Callbacks
/// nest (a reservation is offered, the offer starts a task, the start
/// re-enters the hook), and inside a batch release the manager has dropped
/// records for slots the cluster has not let go yet, so nested returns are
/// not checked.
class AuditedManager final : public ReservationManager {
 public:
  explicit AuditedManager(SsrConfig config) : ReservationManager(config) {}

  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override {
    audited(engine, [&] { ReservationManager::on_task_finished(engine, info); });
  }
  void on_task_killed(Engine& engine, const TaskFinishInfo& info) override {
    audited(engine, [&] { ReservationManager::on_task_killed(engine, info); });
  }
  void on_slot_idle(Engine& engine, SlotId slot) override {
    audited(engine, [&] { ReservationManager::on_slot_idle(engine, slot); });
  }
  void on_slot_failed(Engine& engine, SlotId slot) override {
    audited(engine, [&] { ReservationManager::on_slot_failed(engine, slot); });
  }
  bool approve(const Engine& engine, SlotId slot, JobId job,
               int priority) const override {
    bool approved = false;
    audited(engine, [&] {
      approved = ReservationManager::approve(engine, slot, job, priority);
    });
    return approved;
  }
  void on_stage_submitted(Engine& engine, StageId stage) override {
    audited(engine,
            [&] { ReservationManager::on_stage_submitted(engine, stage); });
  }
  void on_stage_fully_placed(Engine& engine, StageId stage) override {
    audited(engine,
            [&] { ReservationManager::on_stage_fully_placed(engine, stage); });
  }
  void on_task_started(Engine& engine, TaskId task, SlotId slot) override {
    audited(engine,
            [&] { ReservationManager::on_task_started(engine, task, slot); });
  }
  void on_job_finished(Engine& engine, JobId job) override {
    audited(engine, [&] { ReservationManager::on_job_finished(engine, job); });
  }

  std::uint64_t checks() const { return checks_; }

 private:
  /// Runs one callback; checks once the outermost callback has returned.
  /// A CheckError thrown inside ends the trial, so depth need not unwind.
  template <typename Callback>
  void audited(const Engine& engine, Callback callback) const {
    ++depth_;
    callback();
    if (--depth_ != 0) return;
    ++checks_;
    check_bookkeeping(engine);
  }

  mutable std::uint32_t depth_ = 0;
  mutable std::uint64_t checks_ = 0;
};

/// What the scenario actually exercised, seen from the event stream.
struct Coverage final : EngineObserver {
  std::uint64_t too_small_finishes = 0;
  std::uint64_t overrides = 0;
  std::uint64_t slot_failures = 0;
  int min_reserving_priority = 0;
  std::map<SlotId, JobId> holder;  ///< reserved-idle slot -> reserving job

  void on_task_finished(const Engine& e, TaskId t, SlotId s) override {
    const JobGraph& graph = e.graph(t.stage.job);
    if (graph.priority() < min_reserving_priority) return;
    const auto child = graph.first_child(t.stage.index);
    if (child && !graph.stage(*child).demand.fits_in(
                     e.cluster().slot(s).capacity())) {
      ++too_small_finishes;
    }
  }
  void on_slot_reserved(const Engine&, SlotId s,
                        const Reservation& r) override {
    holder[s] = r.job;
  }
  void on_reservation_released(const Engine&, SlotId s,
                               ReservationEndReason) override {
    holder.erase(s);
  }
  void on_task_started(const Engine&, TaskId t, SlotId s) override {
    const auto it = holder.find(s);
    if (it == holder.end()) return;
    overrides += it->second != t.stage.job;
    holder.erase(it);
  }
  void on_slot_failed(const Engine&, SlotId) override { ++slot_failures; }
};

struct TrialOutcome {
  std::uint64_t checks = 0;
  std::uint64_t copies = 0;
  std::uint64_t expired = 0;
  Coverage coverage;
  bool all_finished = true;
};

TrialOutcome run_trial(const BookkeepingParams& p) {
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  cfg.policy = p.policy;
  std::vector<std::vector<Resources>> node_slots;
  if (p.heterogeneous) {
    for (std::uint32_t n = 0; n < p.nodes; ++n) {
      node_slots.emplace_back(p.slots_per_node,
                              n % 2 == 1 ? kBigSlot : kSmallSlot);
    }
  }
  Engine engine(cfg, p.nodes, p.slots_per_node, node_slots, p.engine_seed);
  auto owned = std::make_unique<AuditedManager>(p.ssr);
  AuditedManager& manager = *owned;
  engine.set_reservation_hook(std::move(owned));
  TrialOutcome out;
  out.coverage.min_reserving_priority = p.ssr.min_reserving_priority;
  engine.add_observer(&out.coverage);
  FailureInjector injector(p.failures.failures > 0
                               ? make_random_node_failures(p.failures)
                               : FailureSchedule{});
  injector.attach(engine.sim(), engine);
  std::vector<JobId> jobs;
  for (JobSpec& spec : make_background_jobs(p.bg)) {
    jobs.push_back(engine.submit(std::move(spec)));
  }
  for (JobSpec& spec : foreground_jobs(p)) {
    jobs.push_back(engine.submit(std::move(spec)));
  }
  engine.run();
  manager.check_bookkeeping(engine);
  out.checks = manager.checks();
  out.copies = manager.copies_launched();
  out.expired = manager.reservations_expired();
  for (JobId job : jobs) out.all_finished &= engine.job_finished(job);
  return out;
}

/// The foreground stage transitions Algorithm 1 distinguishes by a priori
/// parallelism: downstream wider (Case-2.3) and narrower (Case-2.2).
std::pair<bool, bool> widens_and_narrows(const std::vector<JobSpec>& jobs) {
  bool widens = false;
  bool narrows = false;
  for (const JobSpec& spec : jobs) {
    for (const StageSpec& stage : spec.stages) {
      for (std::uint32_t parent : stage.parents) {
        widens |= stage.num_tasks > spec.stages[parent].num_tasks;
        narrows |= stage.num_tasks < spec.stages[parent].num_tasks;
      }
    }
  }
  return {widens, narrows};
}

TEST(CoreBookkeeping, MatchesEngineAfterEveryCallbackOn240Scenarios) {
  constexpr std::uint64_t kTrials = 240;
  std::map<std::string, int> trials_with;
  std::uint64_t checks = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const BookkeepingParams p = derive_params(trial);
    TrialOutcome out;
    try {
      out = run_trial(p);
    } catch (const CheckError& e) {
      ADD_FAILURE() << "trial " << trial << ": " << e.what();
      continue;
    }
    EXPECT_TRUE(out.all_finished || p.failures.failures > 0)
        << "trial " << trial << " left a job unfinished";
    checks += out.checks;
    const auto [widens, narrows] = widens_and_narrows(foreground_jobs(p));
    trials_with["widening phase"] += widens;
    trials_with["narrowing phase"] += narrows;
    trials_with["straggler copy"] += out.copies > 0;
    trials_with["deadline expiry"] += out.expired > 0;
    trials_with["too-small slot"] += out.coverage.too_small_finishes > 0;
    trials_with["priority override"] += out.coverage.overrides > 0;
    trials_with["slot failure"] += out.coverage.slot_failures > 0;
    trials_with["P = 1"] += p.ssr.isolation_p == 1.0;
  }
  // Each path the bookkeeping must follow ran in a fair share of trials.
  for (const char* what :
       {"widening phase", "narrowing phase", "straggler copy",
        "deadline expiry", "too-small slot", "priority override",
        "slot failure", "P = 1"}) {
    EXPECT_GE(trials_with[what], 20) << what;
  }
  EXPECT_GT(checks, 100000u);
}

}  // namespace
}  // namespace ssr
