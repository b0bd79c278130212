// Unit tests for StageRuntime, the per-phase task lifecycle: the pending
// FIFO, the done bitmap, the sorted preferred-slot set and copy storage.
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "ssr/sched/engine.h"
#include "ssr/sched/stage_runtime.h"

namespace ssr {
namespace {

StageSpec spec_of(std::uint32_t tasks) {
  StageSpec spec;
  spec.num_tasks = tasks;
  spec.duration = fixed_duration(1.0);
  return spec;
}

const StageId kStage{JobId{0}, 0};

/// Pops the whole pending queue in FIFO order (placing each task).
std::vector<std::uint32_t> drain_pending(StageRuntime& rt) {
  std::vector<std::uint32_t> order;
  while (const std::optional<std::uint32_t> next = rt.peek_pending()) {
    rt.take_pending(*next);
    order.push_back(*next);
  }
  return order;
}

/// Starts and finishes `task`'s original attempt on slot 0.
void run_original(StageRuntime& rt, std::uint32_t task, SimTime at) {
  TaskAttempt& attempt = rt.mutable_original(task);
  rt.mark_running(attempt, SlotId{0}, at, /*local=*/true);
  rt.mark_finished(attempt, at + 1.0);
}

TEST(StageRuntime, TakingATaskBehindTheHeadKeepsFifoOrder) {
  const StageSpec spec = spec_of(5);
  StageRuntime rt(kStage, spec, 0.0, std::vector<double>(5, 1.0));
  rt.take_pending(2);
  EXPECT_EQ(rt.pending_count(), 4u);
  EXPECT_EQ(rt.peek_pending(), 0u);
  rt.take_pending(4);
  EXPECT_EQ(drain_pending(rt), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_TRUE(rt.all_placed());
  EXPECT_EQ(rt.pending_count(), 0u);
  EXPECT_EQ(rt.peek_pending(), std::nullopt);
  EXPECT_THROW(rt.take_pending(1), CheckError);
}

TEST(StageRuntime, ResurrectAfterFullPlacementQueuesInResurrectOrder) {
  const StageSpec spec = spec_of(4);
  StageRuntime rt(kStage, spec, 0.0, std::vector<double>(4, 1.0));
  for (std::uint32_t i : drain_pending(rt)) run_original(rt, i, 0.0);
  ASSERT_TRUE(rt.all_placed());
  rt.resurrect(3);
  rt.resurrect(0);
  rt.resurrect(2);
  EXPECT_FALSE(rt.all_placed());
  EXPECT_EQ(rt.pending_count(), 3u);
  rt.take_pending(0);  // behind the head
  EXPECT_EQ(drain_pending(rt), (std::vector<std::uint32_t>{3, 2}));
}

TEST(StageRuntime, TaskDoneFollowsFinishAndResurrect) {
  const StageSpec spec = spec_of(3);
  StageRuntime rt(kStage, spec, 0.0, std::vector<double>(3, 1.0));
  drain_pending(rt);
  EXPECT_FALSE(rt.task_done(1));
  run_original(rt, 1, 0.0);
  EXPECT_TRUE(rt.task_done(1));
  EXPECT_FALSE(rt.task_done(0));
  EXPECT_EQ(rt.finished_count(), 1u);
  EXPECT_EQ(rt.finished_attempt(1), &rt.original(1));

  rt.resurrect(1);
  EXPECT_FALSE(rt.task_done(1));
  EXPECT_EQ(rt.finished_count(), 0u);
  EXPECT_EQ(rt.finished_attempt(1), nullptr);
  EXPECT_EQ(rt.original(1).epoch, 1u);

  // The re-run is won by a copy; the late original does not count twice.
  rt.take_pending(1);
  TaskAttempt& original = rt.mutable_original(1);
  rt.mark_running(original, SlotId{0}, 5.0, true);
  TaskAttempt& copy = rt.add_copy(1, 1.0);
  rt.mark_running(copy, SlotId{1}, 5.0, true);
  rt.mark_finished(copy, 6.0);
  EXPECT_TRUE(rt.task_done(1));
  EXPECT_EQ(rt.finished_attempt(1), &copy);
  rt.mark_finished(original, 7.0);
  EXPECT_EQ(rt.finished_count(), 1u);
  EXPECT_THROW(rt.task_done(3), std::out_of_range);
}

TEST(StageRuntime, PreferredSlotsAreSortedAndUnique) {
  const StageSpec spec = spec_of(1);
  StageRuntime rt(kStage, spec, 0.0, {1.0});
  // Two parents whose outputs share slots 3 and 5.
  rt.set_preferred_slots({SlotId{5}, SlotId{3}, SlotId{9}, SlotId{3},
                          SlotId{5}, SlotId{1}});
  EXPECT_EQ(rt.preferred_slots(),
            (std::vector<SlotId>{SlotId{1}, SlotId{3}, SlotId{5}, SlotId{9}}));
  EXPECT_TRUE(rt.is_preferred(SlotId{3}));
  EXPECT_TRUE(rt.is_preferred(SlotId{9}));
  EXPECT_FALSE(rt.is_preferred(SlotId{4}));
  EXPECT_FALSE(rt.is_preferred(SlotId{10}));
}

TEST(StageRuntime, ChildOfTwoParentsOnOneSlotPrefersItOnce) {
  // One slot: both parent stages run their tasks on it.
  SchedConfig cfg;
  Engine engine(cfg, 1, 1, 1);
  JobSpec job;
  job.name = "diamond";
  job.stages = {spec_of(2), spec_of(1), spec_of(1)};
  job.stages[2].parents = {0, 1};
  const JobId id = engine.submit(job);
  engine.run();
  const StageRuntime* child = engine.stage_runtime(StageId{id, 2});
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->preferred_slots(), std::vector<SlotId>{SlotId{0}});
  EXPECT_TRUE(child->original(0).local);
}

TEST(StageRuntime, CopyReferencesSurviveLaterCopies) {
  const StageSpec spec = spec_of(50);
  StageRuntime rt(kStage, spec, 0.0, std::vector<double>(50, 1.0));
  drain_pending(rt);
  TaskAttempt& first = rt.add_copy(0, 2.0);
  const TaskId first_id = first.id;
  for (std::uint32_t i = 1; i < 50; ++i) rt.add_copy(i, 2.0);
  EXPECT_EQ(rt.find_attempt(first_id), &first);
  EXPECT_EQ(first.id, first_id);
  EXPECT_EQ(rt.add_copy(0, 2.0).id.attempt, 2u);
}

/// On a start of original task 1, reserves slots 2 and 3 and launches a
/// copy of task 0 on slot 2; that copy's own start launches a copy of task 1
/// on slot 3, inside the outer start_attempt that still holds the first
/// copy's TaskAttempt&.
class NestedCopyHook final : public NullReservationHook {
 public:
  void on_task_started(Engine& engine, TaskId task, SlotId) override {
    const StageId stage = task.stage;
    if (task.attempt == 0 && task.index == 1) {
      for (std::uint32_t s : {2u, 3u}) {
        engine.reserve_slot(SlotId{s}, Reservation{stage.job, 0, kTimeInfinity,
                                                   stage, 0});
      }
      launched_outer = engine.launch_copy(stage, 0, SlotId{2});
    } else if (task.attempt == 1 && task.index == 0) {
      StageRuntime* rt = engine.stage_runtime(stage);
      const TaskAttempt* outer = rt->find_attempt(task);
      launched_inner = engine.launch_copy(stage, 1, SlotId{3});
      outer_stable = rt->find_attempt(task) == outer &&
                     outer->state == AttemptState::Running;
    }
  }
  bool launched_outer = false;
  bool launched_inner = false;
  bool outer_stable = false;
};

struct KillLog final : EngineObserver {
  std::vector<TaskId> killed;
  void on_task_killed(const Engine&, TaskId t, SlotId) override {
    killed.push_back(t);
  }
};

TEST(StageRuntime, CopyLaunchedInsideAnotherCopysStartKeepsItValid) {
  SchedConfig cfg;
  Engine engine(cfg, 1, 4, 1);
  auto hook = std::make_unique<NestedCopyHook>();
  NestedCopyHook* h = hook.get();
  engine.set_reservation_hook(std::move(hook));
  KillLog log;
  engine.add_observer(&log);
  JobSpec job;
  job.name = "copies";
  job.stages = {spec_of(2)};
  job.stages[0].explicit_durations = std::vector<double>{10.0, 10.0};
  job.stages[0].duration = fixed_duration(100.0);  // copies lose the race
  const JobId id = engine.submit(job);
  engine.run();
  EXPECT_TRUE(h->launched_outer);
  EXPECT_TRUE(h->launched_inner);
  EXPECT_TRUE(h->outer_stable);
  const StageId stage{id, 0};
  // Both originals win at t = 10 and kill their copies; each copy's own
  // completion event, scheduled through its TaskAttempt&, is then stale.
  EXPECT_EQ(log.killed,
            (std::vector<TaskId>{TaskId{stage, 0, 1}, TaskId{stage, 1, 1}}));
  EXPECT_DOUBLE_EQ(engine.jct(id), 10.0);
}

}  // namespace
}  // namespace ssr
