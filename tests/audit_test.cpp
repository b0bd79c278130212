// Invariant auditor: seeded-bug coverage (every audited invariant must be
// caught, by exact id, when the corresponding illegal mutation happens) and
// no-false-positive coverage (full fig12/fig14-style scenarios run clean
// under audit).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ssr/audit/invariant_auditor.h"
#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/common/check.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/scenario.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sched/engine.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

using audit::AuditOptions;
using audit::InvariantAuditor;
using audit::ReplayAuditor;
using audit::Violation;

// --- Helpers ----------------------------------------------------------------

std::vector<std::string> ids_of(const std::vector<Violation>& violations) {
  std::vector<std::string> ids;
  ids.reserve(violations.size());
  for (const Violation& v : violations) ids.push_back(v.invariant);
  return ids;
}

bool has_id(const std::vector<Violation>& violations, const char* id) {
  return std::any_of(violations.begin(), violations.end(),
                     [id](const Violation& v) { return v.invariant == id; });
}

AuditOptions collect_options() {
  AuditOptions o;
  o.throw_on_violation = false;
  return o;
}

constexpr JobId kJobA{0};
constexpr JobId kJobB{1};
constexpr StageId kStageA0{kJobA, 0};
constexpr StageId kStageB0{kJobB, 0};
constexpr SlotId kSlot0{0};

TaskId task_of(StageId stage, std::uint32_t index, std::uint32_t attempt = 0) {
  return TaskId{stage, index, attempt};
}

// --- Event builders ---------------------------------------------------------

TraceEvent event(TraceEventKind kind, SimTime time) {
  TraceEvent e;
  e.kind = kind;
  e.time = time;
  return e;
}

TraceEvent submit_job(JobId job, int priority, SimTime time) {
  TraceEvent e = event(TraceEventKind::kJobSubmitted, time);
  e.job = job;
  e.priority = priority;
  return e;
}

/// `parents` are stage indexes within the stage's job.
TraceEvent submit_stage(StageId stage, std::vector<std::uint32_t> parents,
                        SimTime time) {
  TraceEvent e = event(TraceEventKind::kStageSubmitted, time);
  e.stage = stage;
  e.parents = std::move(parents);
  return e;
}

TraceEvent stage_event(TraceEventKind kind, StageId stage, SimTime time) {
  TraceEvent e = event(kind, time);
  e.stage = stage;
  return e;
}

TraceEvent task_event(TraceEventKind kind, SlotId slot, TaskId task,
                      SimTime time) {
  TraceEvent e = event(kind, time);
  e.slot = slot;
  e.task = task;
  return e;
}

TraceEvent start(SlotId slot, TaskId task, SimTime time) {
  return task_event(TraceEventKind::kTaskStarted, slot, task, time);
}

TraceEvent finish(SlotId slot, TaskId task, SimTime time) {
  return task_event(TraceEventKind::kTaskFinished, slot, task, time);
}

TraceEvent slot_event(TraceEventKind kind, SlotId slot, SimTime time) {
  TraceEvent e = event(kind, time);
  e.slot = slot;
  return e;
}

TraceEvent reserve(SlotId slot, JobId job, int priority, SimTime deadline,
                   SimTime time) {
  TraceEvent e = slot_event(TraceEventKind::kSlotReserved, slot, time);
  e.job = job;
  e.priority = priority;
  e.deadline = deadline;
  return e;
}

TraceEvent release(SlotId slot, ReservationEndReason reason, SimTime time) {
  TraceEvent e = slot_event(TraceEventKind::kReservationReleased, slot, time);
  e.reason = reason;
  return e;
}

/// A ReplayAuditor over a two-slot cluster, fed `events` in order.
ReplayAuditor audited(const std::vector<TraceEvent>& events) {
  TraceHeader header;
  header.num_nodes = 1;
  header.num_slots = 2;
  ReplayAuditor auditor;
  auditor.on_trace_begin(header);
  for (const TraceEvent& e : events) auditor.on_trace_event(e);
  return auditor;
}

// --- Seeded bugs, event level ------------------------------------------------
// Each test feeds ReplayAuditor one illegal event sequence and asserts the
// exact invariant id; a distinct id per failure mode is the auditor's
// contract.  The suite is named for the slot ledger the auditor keeps (its
// SlotModel and its stage sets).  A claim is a start on a reserved slot, and
// its priority is the one the job was submitted with.

TEST(SlotLedgerSeededBug, DoubleReserveIsFlagged) {
  const ReplayAuditor a = audited({
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      reserve(kSlot0, kJobB, 5, kTimeInfinity, 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kDoubleReserve});
}

TEST(SlotLedgerSeededBug, ClaimAfterFirstClaimIsDoubleClaim) {
  // As events, a second claim of one reservation is a start on the slot
  // the first claim made Busy.
  std::vector<TraceEvent> events = {
      submit_job(kJobA, 10, 0.0),
      submit_stage(kStageA0, {}, 0.0),
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      start(kSlot0, task_of(kStageA0, 0), 2.0),
  };
  ASSERT_TRUE(audited(events).clean());
  events.push_back(start(kSlot0, task_of(kStageA0, 1), 3.0));
  ASSERT_EQ(ids_of(audited(events).violations()),
            std::vector<std::string>{audit::kTaskLifecycle});
}

TEST(SlotLedgerSeededBug, ClaimPastDeadlineIsFlagged) {
  const ReplayAuditor a = audited({
      submit_job(kJobA, 10, 0.0),
      submit_stage(kStageA0, {}, 0.0),
      reserve(kSlot0, kJobA, 10, /*deadline=*/5.0, 1.0),
      start(kSlot0, task_of(kStageA0, 0), 6.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kExpiredClaim});
}

TEST(SlotLedgerSeededBug, LowerPriorityStealIsFlagged) {
  const ReplayAuditor a = audited({
      submit_job(kJobB, /*priority=*/5, 0.0),
      submit_stage(kStageB0, {}, 0.0),
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      start(kSlot0, task_of(kStageB0, 0), 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kReservedSlotPriority});
}

TEST(SlotLedgerSeededBug, EqualPriorityStealIsFlagged) {
  const ReplayAuditor a = audited({
      submit_job(kJobB, /*priority=*/10, 0.0),
      submit_stage(kStageB0, {}, 0.0),
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      start(kSlot0, task_of(kStageB0, 0), 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kReservedSlotPriority});
}

TEST(SlotLedgerSeededBug, ReservingJobAndHigherPriorityMayClaim) {
  const ReplayAuditor a = audited({
      submit_job(kJobA, 10, 0.0),
      submit_stage(kStageA0, {}, 0.0),
      submit_stage(kStageB0, {}, 0.0),
      // The reserving job itself.
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      start(kSlot0, task_of(kStageA0, 0), 2.0),
      finish(kSlot0, task_of(kStageA0, 0), 3.0),
      // A strictly higher-priority foreign job (override).
      reserve(kSlot0, kJobB, 5, kTimeInfinity, 4.0),
      start(kSlot0, task_of(kStageA0, 1), 5.0),
  });
  EXPECT_TRUE(a.clean()) << audit::format_report(a.violations());
}

TEST(SlotLedgerSeededBug, OutOfOrderEventDispatchIsFlagged) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 10.0),
      // The finish event is dispatched with a timestamp in the past.
      finish(kSlot0, task_of(kStageA0, 0), 9.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kTimeMonotonic});
}

TEST(SlotLedgerSeededBug, JobAndRunEventsBackInTimeAreFlagged) {
  // The clock check covers every kind, including the ones that move no
  // slot and no barrier.
  for (const TraceEventKind kind :
       {TraceEventKind::kJobSubmitted, TraceEventKind::kJobFinished,
        TraceEventKind::kTaskRequeued, TraceEventKind::kRunComplete}) {
    const ReplayAuditor a = audited({
        submit_stage(kStageA0, {}, 5.0),
        event(kind, 4.0),
    });
    EXPECT_EQ(ids_of(a.violations()),
              std::vector<std::string>{audit::kTimeMonotonic})
        << "kind " << static_cast<int>(kind);
  }
}

TEST(SlotLedgerSeededBug, StageSubmittedBeforeParentFinishes) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      // Downstream stage's barrier "clears" while the parent is running.
      submit_stage(StageId{kJobA, 1}, {kStageA0.index}, 1.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kBarrierOrdering});
}

TEST(SlotLedgerSeededBug, TaskOfUnsubmittedStageIsFlagged) {
  const ReplayAuditor a = audited({start(kSlot0, task_of(kStageA0, 0), 1.0)});
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kBarrierOrdering});
}

TEST(SlotLedgerSeededBug, DoubleStartOnBusySlotIsFlagged) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 1.0),
      start(kSlot0, task_of(kStageA0, 1), 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kTaskLifecycle});
}

TEST(SlotLedgerSeededBug, FinishOfTaskNotOnSlotIsFlagged) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 1.0),
      finish(kSlot0, task_of(kStageA0, 1), 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kTaskLifecycle});
}

TEST(SlotLedgerSeededBug, DoubleReleaseIsFlagged) {
  const ReplayAuditor a = audited({
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 1.0),
      release(kSlot0, ReservationEndReason::Released, 2.0),
      release(kSlot0, ReservationEndReason::Released, 3.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kDoubleRelease});
}

TEST(SlotLedgerSeededBug, EarlyExpiryIsFlagged) {
  const ReplayAuditor a = audited({
      reserve(kSlot0, kJobA, 10, /*deadline=*/10.0, 1.0),
      release(kSlot0, ReservationEndReason::Expired, 7.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kExpiryTime});
}

TEST(SlotLedgerSeededBug, ExpiryExactlyAtDeadlineIsClean) {
  const ReplayAuditor a = audited({
      reserve(kSlot0, kJobA, 10, /*deadline=*/10.0, 1.0),
      release(kSlot0, ReservationEndReason::Expired, 10.0),
  });
  EXPECT_TRUE(a.clean()) << audit::format_report(a.violations());
}

TEST(SlotLedgerSeededBug, CleanLifecycleHasNoViolations) {
  const StageId a1{kJobA, 1};
  const ReplayAuditor a = audited({
      submit_job(kJobA, 10, 0.0),
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 0.0),
      start(SlotId{1}, task_of(kStageA0, 1), 0.0),
      finish(kSlot0, task_of(kStageA0, 0), 4.0),
      reserve(kSlot0, kJobA, 10, 20.0, 4.0),
      finish(SlotId{1}, task_of(kStageA0, 1), 5.0),
      stage_event(TraceEventKind::kStageFinished, kStageA0, 5.0),
      submit_stage(a1, {kStageA0.index}, 5.0),
      start(kSlot0, task_of(a1, 0), 5.0),
      finish(kSlot0, task_of(a1, 0), 9.0),
      stage_event(TraceEventKind::kStageFinished, a1, 9.0),
  });
  EXPECT_TRUE(a.clean()) << audit::format_report(a.violations());
}

// --- Seeded bugs, failure lifecycle ------------------------------------------

TEST(SlotLedgerSeededBug, FailureOfUndrainedBusySlotIsFlagged) {
  // The engine must kill the running attempt before marking a slot Dead; a
  // failure event arriving while the model still shows Busy means a task
  // silently vanished with its slot.
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 1.0),
      slot_event(TraceEventKind::kSlotFailed, kSlot0, 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kDeadSlotUse});
}

TEST(SlotLedgerSeededBug, ReserveOnDeadSlotIsFlagged) {
  const ReplayAuditor a = audited({
      slot_event(TraceEventKind::kSlotFailed, kSlot0, 1.0),
      reserve(kSlot0, kJobA, 10, kTimeInfinity, 2.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kDeadSlotUse});
}

TEST(SlotLedgerSeededBug, StartOnDeadSlotIsFlagged) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      slot_event(TraceEventKind::kSlotFailed, kSlot0, 1.0),
      start(kSlot0, task_of(kStageA0, 0), 2.0),
  });
  ASSERT_TRUE(has_id(a.violations(), audit::kDeadSlotUse))
      << audit::format_report(a.violations());
}

TEST(SlotLedgerSeededBug, RecoveryOfLiveSlotIsFlagged) {
  const ReplayAuditor a = audited({
      slot_event(TraceEventKind::kSlotRecovered, kSlot0, 1.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kDeadSlotUse});
}

TEST(SlotLedgerSeededBug, InvalidationOfUnfinishedStageIsFlagged) {
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      stage_event(TraceEventKind::kStageInvalidated, kStageA0, 1.0),
  });
  ASSERT_EQ(ids_of(a.violations()),
            std::vector<std::string>{audit::kBarrierOrdering});
}

TEST(SlotLedgerSeededBug, CleanFailureLifecycleHasNoViolations) {
  // kill -> fail -> recover -> restart -> finish: the legal sequence the
  // engine emits for a transient slot failure with a re-run.
  const ReplayAuditor a = audited({
      submit_stage(kStageA0, {}, 0.0),
      start(kSlot0, task_of(kStageA0, 0), 0.0),
      task_event(TraceEventKind::kTaskKilled, kSlot0, task_of(kStageA0, 0),
                 3.0),
      slot_event(TraceEventKind::kSlotFailed, kSlot0, 3.0),
      slot_event(TraceEventKind::kSlotRecovered, kSlot0, 8.0),
      start(kSlot0, task_of(kStageA0, 0), 8.0),
      finish(kSlot0, task_of(kStageA0, 0), 12.0),
      stage_event(TraceEventKind::kStageFinished, kStageA0, 12.0),
  });
  EXPECT_TRUE(a.clean()) << audit::format_report(a.violations());
}

// --- Seeded bugs, end-to-end through the engine -----------------------------

/// A buggy reservation policy: reserves every freed slot for the finishing
/// job but approves *every* allocation, so lower-priority jobs steal
/// reserved slots — exactly the Alg. 1 violation the auditor must catch.
class ApproveAnythingHook : public ReservationHook {
 public:
  void on_task_finished(Engine& engine, const TaskFinishInfo& info) override {
    Reservation r;
    r.job = info.task.stage.job;
    r.priority = engine.graph(r.job).priority();
    r.for_stage = info.task.stage;
    engine.reserve_slot(info.slot, r);
  }
  void on_task_killed(Engine&, const TaskFinishInfo&) override {}
  void on_slot_idle(Engine&, SlotId) override {}
  bool approve(const Engine&, SlotId, JobId, int) const override {
    return true;  // the bug: ignores reservations entirely
  }
  void on_stage_submitted(Engine&, StageId) override {}
  void on_stage_fully_placed(Engine&, StageId) override {}
  void on_task_started(Engine&, TaskId, SlotId) override {}
  void on_job_finished(Engine&, JobId) override {}
};

JobSpec one_stage_job(const std::string& name, int priority,
                      std::uint32_t tasks, double duration) {
  JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  StageSpec stage;
  stage.num_tasks = tasks;
  stage.duration = fixed_duration(duration);
  stage.explicit_durations = std::vector<double>(tasks, duration);
  spec.stages.push_back(std::move(stage));
  return spec;
}

TEST(InvariantAuditorSeededBug, LowerPriorityStealOfReservedSlotIsCaught) {
  Engine engine(SchedConfig{}, /*num_nodes=*/1, /*slots_per_node=*/1,
                /*seed=*/1);
  engine.set_reservation_hook(std::make_unique<ApproveAnythingHook>());
  InvariantAuditor auditor(collect_options());
  auditor.attach(engine);
  TraceRecorder recorder(1, 1, /*seed=*/1, "approve-anything",
                         /*counts_expired=*/false);
  engine.add_observer(&recorder);

  engine.submit(one_stage_job("fg", /*priority=*/10, 1, 5.0));
  engine.submit(one_stage_job("bg", /*priority=*/0, 1, 20.0));
  engine.run();

  // At t=5 the buggy hook reserves the freed slot for the finished
  // high-priority job, then approves the low-priority job's task on it.
  ASSERT_TRUE(has_id(auditor.violations(), audit::kReservedSlotPriority))
      << auditor.report();

  // The capture of the buggy run replays into the same report.
  ReplayAuditor replayed;
  TraceReplayer::from_bytes(recorder.serialize()).replay({&replayed});
  EXPECT_EQ(audit::format_report(replayed.violations()), auditor.report());
}

TEST(InvariantAuditorSeededBug, ThrowModeRaisesCheckErrorAtTheViolation) {
  Engine engine(SchedConfig{}, 1, 1, 1);
  engine.set_reservation_hook(std::make_unique<ApproveAnythingHook>());
  InvariantAuditor auditor;  // default: throw_on_violation
  auditor.attach(engine);

  engine.submit(one_stage_job("fg", 10, 1, 5.0));
  engine.submit(one_stage_job("bg", 0, 1, 20.0));
  try {
    engine.run();
    FAIL() << "expected CheckError from the audited run";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(audit::kReservedSlotPriority),
              std::string::npos)
        << e.what();
  }
}

TEST(InvariantAuditorSeededBug, MirrorVsClusterDivergenceIsCaught) {
  Engine engine(SchedConfig{}, 1, 2, 1);
  InvariantAuditor auditor(collect_options());
  auditor.attach(engine);

  // Inject a reservation event that never happened in the cluster: the
  // auditor's mirror now says ReservedIdle while the cluster says Idle.
  Reservation fake;
  fake.job = kJobA;
  fake.priority = 10;
  auditor.on_slot_reserved(engine, kSlot0, fake);

  ASSERT_TRUE(has_id(auditor.violations(), audit::kStateMismatch))
      << auditor.report();
}

TEST(InvariantAuditorSeededBug, AccountingDivergenceIsCaught) {
  // Observe a real run on engine A, then present the totals of an idle
  // engine B: busy slot-seconds no longer reconcile.
  Engine engine_a(SchedConfig{}, 1, 2, 1);
  InvariantAuditor auditor(collect_options());
  auditor.attach(engine_a);
  engine_a.submit(one_stage_job("fg", 10, 2, 5.0));
  engine_a.run();
  ASSERT_TRUE(auditor.clean()) << auditor.report();

  Engine engine_b(SchedConfig{}, 1, 2, 1);
  auditor.on_run_complete(engine_b);
  ASSERT_TRUE(has_id(auditor.violations(), audit::kSlotAccounting))
      << auditor.report();
}

TEST(InvariantAuditorSeededBug, TaskLostToPermanentFailureIsCaught) {
  // A 1-slot cluster whose only node dies for good mid-task: the attempt is
  // killed and re-queued, but no capacity ever comes back, so the stage can
  // never complete.  Engine::run()'s own wedge CHECK would throw before the
  // auditor's end-of-run pass, so drive the raw event loop and invoke the
  // completion audit by hand.
  Engine engine(SchedConfig{}, /*num_nodes=*/1, /*slots_per_node=*/1,
                /*seed=*/1);
  InvariantAuditor auditor(collect_options());
  auditor.attach(engine);
  engine.submit(one_stage_job("fg", /*priority=*/10, 1, 5.0));
  FailureSchedule schedule;
  schedule.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 0, 1.0, kTimeInfinity});
  FailureInjector injector(schedule);
  injector.attach(engine.sim(), engine);

  engine.sim().run();
  engine.cluster().settle(engine.sim().now());
  auditor.on_run_complete(engine);

  ASSERT_TRUE(has_id(auditor.violations(), audit::kTaskLost))
      << auditor.report();
}

// --- No false positives on real scenarios -----------------------------------

/// run_scenario twin that force-attaches an auditor in throw mode, so these
/// tests audit the full stack regardless of the SSR_AUDIT build flag.
RunResult run_audited(const ClusterSpec& cluster, std::vector<JobSpec> jobs,
                      const RunOptions& options, InvariantAuditor& auditor) {
  Engine engine(options.sched, cluster.nodes, cluster.slots_per_node,
                options.seed);
  if (options.ssr) {
    engine.set_reservation_hook(
        std::make_unique<ReservationManager>(*options.ssr));
  }
  auditor.attach(engine);
  std::vector<JobId> ids;
  for (JobSpec& spec : jobs) ids.push_back(engine.submit(std::move(spec)));
  engine.run();
  RunResult result;
  for (JobId id : ids) {
    result.jobs.push_back(JobResult{id, engine.job_name(id),
                                    engine.graph(id).priority(),
                                    engine.graph(id).submit_time(),
                                    engine.job_finish_time(id),
                                    engine.jct(id)});
  }
  return result;
}

std::vector<JobSpec> fig12_mix(double bg_multiplier) {
  TraceGenConfig cfg;
  cfg.num_jobs = 30;
  cfg.window = 600.0;
  cfg.runtime_multiplier = bg_multiplier;
  cfg.seed = 99;
  std::vector<JobSpec> jobs = make_background_jobs(cfg);
  jobs.push_back(make_kmeans(20, /*priority=*/10, /*submit=*/60.0));
  return jobs;
}

TEST(InvariantAuditorScenario, Fig12BaselineRunsClean) {
  const ClusterSpec cluster{.nodes = 10, .slots_per_node = 2};
  RunOptions options;
  options.seed = 1;
  InvariantAuditor auditor;
  run_audited(cluster, fig12_mix(1.0), options, auditor);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_GT(auditor.events_audited(), 0u);
}

TEST(InvariantAuditorScenario, Fig12SsrStrictIsolationRunsClean) {
  const ClusterSpec cluster{.nodes = 10, .slots_per_node = 2};
  RunOptions options;
  options.seed = 1;
  options.ssr = SsrConfig{};  // P = 1, infinite-deadline reservations
  options.ssr->min_reserving_priority = 1;
  InvariantAuditor auditor;
  run_audited(cluster, fig12_mix(2.0), options, auditor);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(InvariantAuditorScenario, Fig14DeadlineAndMitigationRunClean) {
  // The fig14 knob sweep exercises deadline expiry (P < 1) and straggler
  // copies (kills + re-reservation) — the busiest reservation lifecycles.
  const ClusterSpec cluster{.nodes = 10, .slots_per_node = 2};
  for (const double p : {0.5, 0.9}) {
    RunOptions options;
    options.seed = 3;
    options.ssr = SsrConfig{};
    options.ssr->isolation_p = p;
    options.ssr->enable_straggler_mitigation = true;
    InvariantAuditor auditor;
    run_audited(cluster, fig12_mix(1.0), options, auditor);
    EXPECT_TRUE(auditor.clean()) << "P=" << p << "\n" << auditor.report();
  }
}

TEST(InvariantAuditorScenario, SqlChangingParallelismRunsClean) {
  // SQL trees change parallelism across phases: the pre-reservation path
  // (Case-2.3) grabs foreign slots, the release path drops surplus ones.
  const ClusterSpec cluster{.nodes = 5, .slots_per_node = 2};
  std::vector<JobSpec> jobs;
  for (std::uint32_t q = 0; q < 6; ++q) {
    SqlJobParams params;
    params.query_index = q;
    params.base_parallelism = 8;
    params.submit_time = 5.0 * q;
    jobs.push_back(make_sql_query(params));
  }
  RunOptions options;
  options.seed = 7;
  options.ssr = SsrConfig{};
  options.ssr->isolation_p = 0.8;
  InvariantAuditor auditor;
  run_audited(cluster, std::move(jobs), options, auditor);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(InvariantAuditorScenario, FairPolicyRunsClean) {
  const ClusterSpec cluster{.nodes = 4, .slots_per_node = 2};
  RunOptions options;
  options.seed = 5;
  options.sched.policy = SchedulingPolicy::Fair;
  InvariantAuditor auditor;
  run_audited(cluster, fig12_mix(1.0), options, auditor);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

}  // namespace
}  // namespace ssr
