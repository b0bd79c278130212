// Pins for the per-offer stage scan (Engine::offer_slot) and the hook
// callbacks around placement.
//
// The scan has a side effect that no task event shows directly: a stage
// that rejects an offered slot while delay scheduling still holds it back
// gets its locality-retry timer armed.  Which stages are armed, and in which
// order, fixes the simulator's event sequence numbers, so a scan that picks
// the same winners but arms a different set still changes how same-instant
// events interleave, and how many events the run processes.  Goldens and
// capture digests did not catch that.  The pinned suite below runs seeded
// scenarios across both policies, failures, deadlines and straggler copies,
// and compares each run's processed-event count and a hash of its complete
// task start/finish/kill stream with tests/golden/offer_arming.golden.
//
// Regenerate after an *intentional* behaviour change with:
//   SSR_UPDATE_GOLDEN=1 ./tests/offer_scan_test
// and review the diff like any other golden.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "run_digest.h"
#include "ssr/core/naive_policies.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/sched/engine.h"
#include "ssr/sim/failure_injector.h"
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
  kNone = 0,        // NullReservationHook
  kSsrStrict,       // ReservationManager, P = 1
  kSsrDeadlineCopy, // P < 1 (expiries) with straggler copies
  kStatic,          // static carve-out: replenishing re-enters placement
  kTimeout,         // timeout holds
  kCount
};

struct ScanParams {
  std::uint32_t nodes;
  std::uint32_t slots_per_node;
  TraceGenConfig bg;
  std::uint32_t fg_parallelism;
  SimTime fg_submit;
  SimDuration locality_wait;
  SchedulingPolicy policy;
  HookKind hook;
  RandomFailureConfig failures;  ///< failures == 0: no injector
  std::uint64_t engine_seed;
};

ScanParams derive_params(std::uint64_t trial) {
  std::uint64_t s = 0x0ffe25ca11ull ^ (trial * 0x3b9ull);
  ScanParams p;
  p.nodes = 2 + static_cast<std::uint32_t>(splitmix64(s) % 6);
  p.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 3);
  p.bg.num_jobs = 5 + static_cast<std::uint32_t>(splitmix64(s) % 15);
  p.bg.window = 60.0 + static_cast<double>(splitmix64(s) % 6) * 30.0;
  p.bg.large_job_max_tasks = 30;  // bound per-trial work
  p.bg.seed = 7 + trial * 101;
  p.fg_parallelism = 4 + static_cast<std::uint32_t>(splitmix64(s) % 8);
  p.fg_submit = p.bg.window * 0.25;
  // Arming needs a positive wait: with none, no stage is ever held back.
  const double waits[] = {1.0, 3.0, 5.0};
  p.locality_wait = waits[splitmix64(s) % 3];
  // Mostly Fair: fair shares move on every start and finish, so precedence
  // order and activation order disagree most there — where arming is hard.
  p.policy = splitmix64(s) % 4 == 0 ? SchedulingPolicy::Priority
                                    : SchedulingPolicy::Fair;
  p.hook = static_cast<HookKind>(splitmix64(s) %
                                 static_cast<std::uint64_t>(HookKind::kCount));
  p.failures.num_nodes = p.nodes;
  p.failures.horizon = p.bg.window * 1.5;
  p.failures.failures = static_cast<std::uint32_t>(splitmix64(s) % 4);
  p.failures.min_downtime = 2.0;
  p.failures.max_downtime = 25.0;
  p.failures.permanent_fraction = 0.15;
  p.failures.seed = 0xa12e + trial;
  p.engine_seed = 1 + trial;
  return p;
}

std::unique_ptr<ReservationHook> make_hook(const ScanParams& p) {
  switch (p.hook) {
    case HookKind::kNone:
      return std::make_unique<NullReservationHook>();
    case HookKind::kSsrStrict: {
      SsrConfig cfg;
      cfg.min_reserving_priority = 1;
      return std::make_unique<ReservationManager>(cfg);
    }
    case HookKind::kSsrDeadlineCopy: {
      SsrConfig cfg;
      cfg.min_reserving_priority = 1;
      cfg.isolation_p = 0.4;
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

/// FNV-1a over every task start, finish and kill: (time bits, kind, task,
/// slot).  Equal hashes mean the same task event stream, bit for bit.
struct StreamHash final : EngineObserver {
  std::uint64_t hash = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  void record(const Engine& e, std::uint64_t kind, TaskId t, SlotId s) {
    const double now = e.sim().now();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &now, sizeof bits);
    mix(bits);
    mix(kind);
    mix((std::uint64_t{t.stage.job.v} << 32) | t.stage.index);
    mix((std::uint64_t{t.index} << 32) | t.attempt);
    mix(s.v);
  }
  void on_task_started(const Engine& e, TaskId t, SlotId s) override {
    record(e, 0, t, s);
  }
  void on_task_finished(const Engine& e, TaskId t, SlotId s) override {
    record(e, 1, t, s);
  }
  void on_task_killed(const Engine& e, TaskId t, SlotId s) override {
    record(e, 2, t, s);
  }
};

/// Runs one scenario and returns its pin line.  `configure(engine, hook)`
/// returns the hook to install and may attach observers of its own.
template <typename Configure>
std::string run_scan_trial(const ScanParams& p, Configure configure) {
  SchedConfig cfg;
  cfg.locality_wait = p.locality_wait;
  cfg.policy = p.policy;
  Engine engine(cfg, p.nodes, p.slots_per_node, p.engine_seed);
  engine.set_reservation_hook(configure(engine, make_hook(p)));
  StreamHash stream;
  engine.add_observer(&stream);
  FailureInjector injector(p.failures.failures > 0
                               ? make_random_node_failures(p.failures)
                               : FailureSchedule{});
  injector.attach(engine.sim(), engine);
  for (JobSpec& spec : make_background_jobs(p.bg)) {
    engine.submit(std::move(spec));
  }
  engine.submit(make_kmeans(p.fg_parallelism, 10, p.fg_submit));
  engine.run();
  std::ostringstream line;
  line << "events=" << engine.sim().processed_events() << " stream=" << std::hex
       << stream.hash;
  return line.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(OfferScan, RetryTimerArmingPinnedOn100Scenarios) {
  constexpr std::uint64_t kTrials = 100;
  const char* const kFile = "offer_arming.golden";
  std::ostringstream actual;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const ScanParams p = derive_params(trial);
    actual << "trial " << trial << ": "
           << run_scan_trial(p, [](Engine&, std::unique_ptr<ReservationHook> h) {
                return h;
              })
           << '\n';
  }
  if (std::getenv("SSR_UPDATE_GOLDEN") != nullptr) {
    compare_golden(kFile, actual.str());
    return;
  }
  const std::optional<std::string> expected = read_golden(kFile);
  ASSERT_TRUE(expected.has_value())
      << "missing " << kFile << " — regenerate with SSR_UPDATE_GOLDEN=1";
  const std::vector<std::string> want = lines_of(*expected);
  const std::vector<std::string> got = lines_of(actual.str());
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "(processed events, task stream) diverged";
  }
}

// --- on_stage_fully_placed ----------------------------------------------------
//
// A hook's on_task_started can re-enter placement (a static carve-out
// replenishes its reservation, the fresh reservation is offered, and a
// higher-priority stage takes it), so the stage whose task is starting may be
// fully placed by an inner start before the outer one returns.  The callback
// must still fire once per placement: once after the stage's submission, and
// once more only after a failure re-queued one of its tasks.

struct PlacementLedger {
  /// Stages whose pending tasks have not all been handed a slot since the
  /// last on_stage_fully_placed (set on submission and on re-queue).
  std::map<StageId, bool> open;
  std::map<StageId, int> calls;
  std::vector<std::string> errors;
};

class PlacementObserver final : public EngineObserver {
 public:
  explicit PlacementObserver(PlacementLedger& ledger) : ledger_(ledger) {}
  void on_stage_submitted(const Engine&, StageId stage) override {
    ledger_.open[stage] = true;
  }
  void on_task_requeued(const Engine&, TaskId task) override {
    ledger_.open[task.stage] = true;
  }

 private:
  PlacementLedger& ledger_;
};

/// Forwards every callback to the wrapped hook and checks each
/// on_stage_fully_placed against the ledger.
class PlacementCountingHook final : public ReservationHook {
 public:
  PlacementCountingHook(std::unique_ptr<ReservationHook> inner,
                        PlacementLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void on_task_finished(Engine& e, const TaskFinishInfo& info) override {
    inner_->on_task_finished(e, info);
  }
  void on_task_killed(Engine& e, const TaskFinishInfo& info) override {
    inner_->on_task_killed(e, info);
  }
  void on_slot_idle(Engine& e, SlotId slot) override {
    inner_->on_slot_idle(e, slot);
  }
  void on_slot_failed(Engine& e, SlotId slot) override {
    inner_->on_slot_failed(e, slot);
  }
  bool approve(const Engine& e, SlotId slot, JobId job,
               int priority) const override {
    return inner_->approve(e, slot, job, priority);
  }
  ReservedApprovalModel reserved_approval_model() const override {
    return inner_->reserved_approval_model();
  }
  void on_stage_submitted(Engine& e, StageId stage) override {
    inner_->on_stage_submitted(e, stage);
  }
  void on_stage_fully_placed(Engine& e, StageId stage) override {
    ++ledger_.calls[stage];
    std::ostringstream where;
    where << stage << " at t=" << e.now();
    if (!ledger_.open[stage]) {
      ledger_.errors.push_back("second call without a re-queue: " +
                               where.str());
    }
    if (e.stage_runtime(stage)->pending_count() != 0) {
      ledger_.errors.push_back("called with tasks pending: " + where.str());
    }
    ledger_.open[stage] = false;
    inner_->on_stage_fully_placed(e, stage);
  }
  void on_task_started(Engine& e, TaskId task, SlotId slot) override {
    inner_->on_task_started(e, task, slot);
  }
  void on_job_finished(Engine& e, JobId job) override {
    inner_->on_job_finished(e, job);
  }

 private:
  std::unique_ptr<ReservationHook> inner_;
  PlacementLedger& ledger_;
};

TEST(OfferScan, StageFullyPlacedFiresOncePerPlacement) {
  constexpr std::uint64_t kTrials = 400;
  int static_trials = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const ScanParams p = derive_params(trial);
    static_trials += p.hook == HookKind::kStatic;
    PlacementLedger ledger;
    PlacementObserver observer(ledger);
    run_scan_trial(p, [&](Engine& engine, std::unique_ptr<ReservationHook> h)
                          -> std::unique_ptr<ReservationHook> {
      engine.add_observer(&observer);
      return std::make_unique<PlacementCountingHook>(std::move(h), ledger);
    });
    for (const std::string& error : ledger.errors) {
      ADD_FAILURE() << "trial " << trial << ": " << error;
    }
    // Every submitted stage was placed in the end: no stage stays open.
    for (const auto& [stage, open] : ledger.open) {
      EXPECT_FALSE(open) << "trial " << trial << ": " << stage
                         << " never reported fully placed";
      EXPECT_GE(ledger.calls[stage], 1) << "trial " << trial << ": " << stage;
    }
  }
  // The re-entrant path needs the replenishing carve-out.
  EXPECT_GT(static_trials, 10);
}

}  // namespace
}  // namespace ssr
