// Tests for the scheduling engine: barriers, work conservation, locality /
// delay scheduling, priority and fair policies — the baseline (no SSR)
// behavior the paper's Sec. II characterizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

SchedConfig quick_sched() {
  SchedConfig c;
  c.locality_wait = 3.0;
  c.locality_slowdown = 5.0;
  return c;
}

/// Observer asserting barrier semantics: no task of a stage starts before
/// every parent stage has finished.
class BarrierChecker : public EngineObserver {
 public:
  void on_stage_finished(const Engine& engine, StageId stage) override {
    finish_time_[stage] = engine.sim().now();
  }
  void on_task_started(const Engine& engine, TaskId task, SlotId) override {
    const JobGraph& g = engine.graph(task.stage.job);
    for (std::uint32_t p : g.stage(task.stage.index).parents) {
      const StageId pid = g.stage_id(p);
      auto it = finish_time_.find(pid);
      ASSERT_TRUE(it != finish_time_.end())
          << "task started before parent stage finished";
      ASSERT_LE(it->second, engine.sim().now());
    }
  }

 private:
  std::map<StageId, SimTime> finish_time_;
};

TEST(Engine, SingleStageJobCompletesWithExactJct) {
  Engine engine(quick_sched(), 2, 2, 1);
  const JobId id = engine.submit(JobBuilder("one")
                                     .stage(4, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_TRUE(engine.job_finished(id));
  EXPECT_DOUBLE_EQ(engine.jct(id), 10.0);
}

TEST(Engine, ChainRunsBackToBackWithLocality) {
  // Downstream tasks land on the parents' slots (free at the barrier), so no
  // locality penalty applies: JCT = 10 + 10.
  Engine engine(quick_sched(), 2, 2, 1);
  const JobId id = engine.submit(JobBuilder("chain")
                                     .stage(4, fixed_duration(10.0))
                                     .stage(4, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(id), 20.0);
}

TEST(Engine, BarrierWaitsForSlowestTask) {
  Engine engine(quick_sched(), 1, 2, 1);
  BarrierChecker checker;
  engine.add_observer(&checker);
  const JobId id = engine.submit(JobBuilder("skewed")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 12.0})
                                     .stage(2, fixed_duration(3.0))
                                     .build());
  engine.run();
  // Phase 2 starts at 12 (barrier), both tasks local, done at 15.
  EXPECT_DOUBLE_EQ(engine.jct(id), 15.0);
}

TEST(Engine, MultiParentBarrier) {
  Engine engine(quick_sched(), 2, 2, 1);
  BarrierChecker checker;
  engine.add_observer(&checker);
  JobSpec spec = JobBuilder("join")
                     .stage_with_parents(2, fixed_duration(1.0), {})
                     .stage_with_parents(2, fixed_duration(1.0), {})
                     .stage_with_parents(4, fixed_duration(2.0), {0, 1})
                     .build();
  spec.stages[0].explicit_durations = std::vector<double>{4.0, 4.0};
  spec.stages[1].explicit_durations = std::vector<double>{9.0, 9.0};
  const JobId id = engine.submit(std::move(spec));
  engine.run();
  // Join waits for the slower scan (9), runs 2: JCT 11.
  EXPECT_DOUBLE_EQ(engine.jct(id), 11.0);
}

TEST(Engine, WorkConservingBaselineGivesSlotsAway) {
  // The Sec. II pathology: a high-priority 2-phase job loses its slots to a
  // low-priority long-task job at the barrier and must wait for them.
  Engine engine(quick_sched(), 1, 2, 1);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(2, fixed_duration(100.0))
                                     .build());
  engine.run();
  // t=5: fg task 0 done, its slot is offered to bg (the barrier blocks fg's
  // phase 2) -> bg occupies it until t=105.  t=10: phase 1 done, but phase 2
  // only has one of its two slots left: it runs its tasks serially (10-15,
  // 15-20) instead of in parallel (10-15).  Alone, fg would finish at 15.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 20.0);
  // bg's second task waits for fg to finish: starts at 20, ends 120.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 119.0);
}

TEST(Engine, FreedPreferredSlotsKeepDownstreamLocal) {
  // The slots phase 1 ran on are free again at the barrier, so phase 2 runs
  // fully local even though background work grabbed the other slots.
  Engine engine(quick_sched(), 1, 4, 1);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 6.0})
                                     .stage(2, fixed_duration(10.0))
                                     .build());
  // Background occupies slot 0 (freed at t=5) and slot 2 from t=4.5 for a
  // long time; slot 3 stays idle but is not preferred.
  engine.submit(JobBuilder("bg")
                    .submit_at(4.5)
                    .stage(2, fixed_duration(1000.0))
                    .build());
  engine.run();
  // fg phase 1 runs [5, 6] on slots 0,1; bg takes the idle slots 2,3 at
  // t=4.5 for 1000 s.  The barrier clears at 6; phase 2 prefers {0, 1},
  // both idle again -> both tasks local: JCT = 6 + 10 = 16.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 16.0);
}

TEST(Engine, DelaySchedulingTimesOutOntoRemoteSlot) {
  Engine engine(quick_sched(), 1, 4, 1);
  // Phase 1 parallelism 2, phase 2 parallelism 3: the third phase-2 task has
  // no preferred slot available (slots 2,3: one taken by bg, one idle but
  // non-preferred).
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 6.0})
                                     .stage(3, fixed_duration(10.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .submit_at(4.5)
                    .stage(1, fixed_duration(1000.0))
                    .build());
  engine.run();
  // bg takes slot 2 at 4.5.  Barrier clears at 6: tasks 0,1 land local on
  // slots 0,1 (ends 16).  Task 2 declines idle slot 3 until 6+3=9, then runs
  // remote: 9 + 50 = 59.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 59.0);
}

TEST(Engine, PriorityPolicyPrefersHighPriorityPendingTasks) {
  Engine engine(quick_sched(), 1, 1, 1);
  // One slot; both jobs have two tasks.  lo grabs the slot first (it arrives
  // first), but every subsequent offer goes to hi until hi drains.
  const JobId lo = engine.submit(
      JobBuilder("lo").priority(0).stage(2, fixed_duration(10.0)).build());
  const JobId hi = engine.submit(
      JobBuilder("hi").priority(5).stage(2, fixed_duration(10.0)).build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(hi), 30.0);
  EXPECT_DOUBLE_EQ(engine.jct(lo), 40.0);
}

TEST(Engine, FairPolicySplitsSlotsEvenly) {
  SchedConfig cfg = quick_sched();
  cfg.policy = SchedulingPolicy::Fair;
  Engine engine(cfg, 1, 4, 1);
  // Two map-only jobs with 8 tasks each on 4 slots.  Total work is 160
  // task-seconds: work conservation pins the makespan at exactly 40, and
  // fair sharing keeps both jobs within one task-length of each other once
  // both are active (job a gets a head start on the initially empty
  // cluster, which Spark's fair scheduler also allows).
  const JobId a = engine.submit(
      JobBuilder("a").stage(8, fixed_duration(10.0)).build());
  const JobId b = engine.submit(
      JobBuilder("b").stage(8, fixed_duration(10.0)).build());
  engine.run();
  const double makespan = std::max(engine.jct(a), engine.jct(b));
  EXPECT_DOUBLE_EQ(makespan, 40.0);
  EXPECT_GE(std::min(engine.jct(a), engine.jct(b)), 30.0);
}

TEST(Engine, FairWeightsSkewTheSplit) {
  SchedConfig cfg = quick_sched();
  cfg.policy = SchedulingPolicy::Fair;
  Engine engine(cfg, 1, 3, 1);
  // Weight 2 vs 1: job a holds 2 slots, job b holds 1.
  const JobId a = engine.submit(JobBuilder("a")
                                    .fair_weight(2.0)
                                    .stage(8, fixed_duration(10.0))
                                    .build());
  const JobId b = engine.submit(JobBuilder("b")
                                    .fair_weight(1.0)
                                    .stage(4, fixed_duration(10.0))
                                    .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(a), 40.0);
  EXPECT_DOUBLE_EQ(engine.jct(b), 40.0);
}

TEST(Engine, RunningTasksSeriesTracksRampUpAndDown) {
  Engine engine(quick_sched(), 1, 2, 1);
  RunningTasksSeries series;
  engine.add_observer(&series);
  const JobId id = engine.submit(JobBuilder("j")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .build());
  engine.run();
  const auto& log = series.changes(id);
  ASSERT_EQ(log.size(), 4u);  // +1 +1 -1 -1
  EXPECT_EQ(log[0].second, 1);
  EXPECT_EQ(log[1].second, 2);
  EXPECT_EQ(log[2].second, 1);
  EXPECT_EQ(log[3].second, 0);
  const auto sampled = series.sampled(id, 1.0, 10.0);
  EXPECT_EQ(sampled[3].second, 2);   // t=3: both running
  EXPECT_EQ(sampled[7].second, 1);   // t=7: one left
  EXPECT_EQ(sampled[10].second, 0);  // t=10: done
}

TEST(Engine, JobsArriveAtTheirSubmitTime) {
  Engine engine(quick_sched(), 1, 1, 1);
  const JobId id = engine.submit(JobBuilder("late")
                                     .submit_at(42.0)
                                     .stage(1, fixed_duration(8.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.job_finish_time(id), 50.0);
  EXPECT_DOUBLE_EQ(engine.jct(id), 8.0);
}

TEST(Engine, ApiMisuseThrows) {
  Engine engine(quick_sched(), 1, 1, 1);
  engine.submit(JobBuilder("j").stage(1, fixed_duration(1.0)).build());
  engine.run();
  EXPECT_THROW(engine.run(), CheckError);  // run twice
  EXPECT_THROW(engine.submit(JobBuilder("k").stage(1, fixed_duration(1.0)).build()),
               CheckError);  // submit after run
  EXPECT_THROW(engine.set_reservation_hook(nullptr), CheckError);
}

// The active-stage index is ordered by these keys, so a key that has no
// order (a NaN fair share or selector score) is rejected, not indexed.
TEST(Engine, UnorderableStageKeysAreRejected) {
  SchedConfig fair_cfg = quick_sched();
  fair_cfg.policy = SchedulingPolicy::Fair;
  Engine fair(fair_cfg, 1, 1, 1);
  JobSpec weightless = JobBuilder("w").stage(1, fixed_duration(1.0)).build();
  weightless.fair_weight = 0.0;
  EXPECT_THROW(fair.submit(weightless), CheckError);

  struct NanSelector final : StageSelector {
    double stage_score(const Engine&, StageId) const override {
      return std::nan("");
    }
  };
  SchedConfig scored_cfg = quick_sched();
  scored_cfg.selector = std::make_shared<NanSelector>();
  Engine scored(scored_cfg, 1, 1, 1);
  scored.submit(JobBuilder("s").stage(1, fixed_duration(1.0)).build());
  EXPECT_THROW(scored.run(), CheckError);
}

TEST(Engine, TaskStatsCountLocality) {
  Engine engine(quick_sched(), 1, 2, 1);
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  const JobId id = engine.submit(JobBuilder("j")
                                     .stage(2, fixed_duration(5.0))
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.run();
  const JobTaskStats& s = fold.task_stats(id);
  EXPECT_EQ(s.tasks_started, 4u);
  EXPECT_EQ(s.tasks_finished, 4u);
  EXPECT_EQ(s.tasks_killed, 0u);
  EXPECT_EQ(s.local_starts, 4u);  // root stage counts as local
}

/// Logs the failure path's re-run decisions in firing order, and counts task
/// starts per stage.
class RerunLog : public EngineObserver {
 public:
  void on_task_requeued(const Engine&, TaskId task) override {
    log.push_back("requeued " + name(task.stage));
  }
  void on_stage_invalidated(const Engine&, StageId stage) override {
    log.push_back("invalidated " + name(stage));
  }
  void on_task_started(const Engine&, TaskId task, SlotId) override {
    ++starts[task.stage];
  }

  std::vector<std::string> log;
  std::map<StageId, int> starts;

 private:
  static std::string name(StageId s) {
    return std::to_string(s.job.v) + "/" + std::to_string(s.index);
  }
};

TEST(Engine, SlotFailureRerunsLostOutputsInJobStageOrder) {
  // Slot 0 holds finished output of: done (finished at t=1); a/0, whose only
  // child a/1 is complete; a/1, whose child a/3 still waits on a/2; and b/0,
  // whose child b/2 still waits on b/1.  The failure at t=10 must re-run a/1
  // then b/0 — job-major order, though b/0's stage index is lower — and
  // leave done and a/0 alone.
  Engine engine(quick_sched(), 1, 4, 1);
  RerunLog rerun;
  engine.add_observer(&rerun);
  const SlotId failed{0};
  const JobId done = engine.submit(JobBuilder("done")
                                       .stage(1, fixed_duration(1.0))
                                       .explicit_durations({1.0})
                                       .build());
  const JobId a = engine.submit(
      JobBuilder("a")
          .submit_at(2.0)
          .stage_with_parents(1, fixed_duration(1.0), {})  // slot 0, [2, 3]
          .explicit_durations({1.0})
          .stage_with_parents(1, fixed_duration(1.0), {0})  // slot 0, [3, 4]
          .explicit_durations({1.0})
          .stage_with_parents(1, fixed_duration(1.0), {})  // slot 1, [2, 52]
          .explicit_durations({50.0})
          .stage_with_parents(1, fixed_duration(1.0), {1, 2})
          .explicit_durations({1.0})
          .build());
  const JobId b = engine.submit(
      JobBuilder("b")
          .submit_at(5.0)
          .stage_with_parents(1, fixed_duration(1.0), {})  // slot 0, [5, 6]
          .explicit_durations({1.0})
          .stage_with_parents(1, fixed_duration(1.0), {})  // slot 2, [5, 55]
          .explicit_durations({50.0})
          .stage_with_parents(1, fixed_duration(1.0), {0, 1})
          .explicit_durations({1.0})
          .build());
  engine.sim().schedule_at(10.0, [&] {
    ASSERT_TRUE(engine.job_finished(done));
    ASSERT_EQ(engine.cluster().slot(failed).state(), SlotState::Idle);
    // a/1 ran local to a/0's output: the locality record did hold slot 0.
    ASSERT_EQ(engine.stage_runtime(StageId{a, 1})->preferred_slots(),
              std::vector<SlotId>{failed});
    ASSERT_TRUE(rerun.log.empty());
    engine.fail_slot(failed);
  });
  engine.run();

  EXPECT_EQ(rerun.log,
            (std::vector<std::string>{"requeued 1/1", "invalidated 1/1",
                                      "requeued 2/0", "invalidated 2/0"}));
  EXPECT_EQ(rerun.starts.at(StageId{done, 0}), 1);
  EXPECT_EQ(rerun.starts.at(StageId{a, 0}), 1);
  EXPECT_EQ(rerun.starts.at(StageId{a, 1}), 2);
  EXPECT_EQ(rerun.starts.at(StageId{b, 0}), 2);
  // The children submitted after the failure prefer only live slots.
  for (const StageId child : {StageId{a, 3}, StageId{b, 2}}) {
    const StageRuntime* runtime = engine.stage_runtime(child);
    ASSERT_NE(runtime, nullptr);
    EXPECT_FALSE(runtime->preferred_slots().empty());
    EXPECT_EQ(std::ranges::count(runtime->preferred_slots(), failed), 0)
        << "stage " << child.job.v << "/" << child.index;
  }
  EXPECT_TRUE(engine.job_finished(a));
  EXPECT_TRUE(engine.job_finished(b));
}

}  // namespace
}  // namespace ssr
