// Edge-case tests for the reservation core: join DAGs, reservation expiry
// accounting, leftover-release on fully-placed, deadline + mitigation
// interplay, and override interactions.
#include <gtest/gtest.h>

#include <memory>

#include "ssr/core/reservation_manager.h"
#include "ssr/metrics/collectors.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

std::unique_ptr<ReservationManager> make_ssr(SsrConfig cfg = {}) {
  return std::make_unique<ReservationManager>(cfg);
}

TEST(CoreEdge, JoinDagReservesAcrossMultiParentBarrier) {
  // Two scan stages feed a join.  The fast scan's slots are reserved while
  // the slow scan still runs; the join then starts with all four slots even
  // though a background job is hungry throughout.
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  JobSpec fg = JobBuilder("join")
                   .priority(10)
                   .stage_with_parents(2, fixed_duration(1.0), {})
                   .stage_with_parents(2, fixed_duration(1.0), {})
                   .stage_with_parents(4, fixed_duration(5.0), {0, 1})
                   .build();
  fg.stages[0].explicit_durations = std::vector<double>{4.0, 4.0};
  fg.stages[1].explicit_durations = std::vector<double>{9.0, 9.0};
  const JobId fg_id = engine.submit(std::move(fg));
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(0.5)
                                     .stage(4, fixed_duration(100.0))
                                     .build());
  engine.run();
  // Scan A done at 4 -> its 2 slots reserved (not given to bg).  Scan B done
  // at 9 -> join starts at 9 with 4 slots -> fg JCT = 14.
  EXPECT_DOUBLE_EQ(engine.jct(fg_id), 14.0);
  // bg only starts at 14: JCT = 14 + 100 - 0.5.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 113.5);
}

TEST(CoreEdge, ExpiryCounterTracksDeadlineReleases) {
  SsrConfig cfg;
  cfg.isolation_p = 0.5;
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  Engine engine(SchedConfig{}, 1, 2, 1);
  engine.set_reservation_hook(std::move(manager));
  engine.submit(JobBuilder("fg")
                    .priority(10)
                    .stage(2, fixed_duration(1.0))
                    .explicit_durations({5.0, 100.0})
                    .stage(2, fixed_duration(5.0))
                    .build());
  engine.submit(JobBuilder("bg")
                    .priority(0)
                    .submit_at(1.0)
                    .stage(1, fixed_duration(20.0))
                    .build());
  engine.run();
  EXPECT_EQ(mgr->reservations_expired(), 1u);
}

TEST(CoreEdge, LeftoverReservationsReleasedWhenStagePlaced) {
  // Case-1 (unknown parallelism) reserves all 4 slots, but the downstream
  // phase only needs 2: the extra 2 reservations must be released the
  // moment the downstream is fully placed, letting bg in at the barrier.
  Engine engine(SchedConfig{}, 1, 4, 1);
  auto manager = make_ssr();
  ReservationManager* mgr = manager.get();
  engine.set_reservation_hook(std::move(manager));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .parallelism_known(false)
                                     .stage(4, fixed_duration(1.0))
                                     .explicit_durations({2.0, 2.0, 2.0, 4.0})
                                     .stage(2, fixed_duration(6.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(0.5)
                                     .stage(2, fixed_duration(10.0))
                                     .build());
  engine.run();
  // Barrier at 4; downstream takes 2 reserved slots (local), leftover 2
  // released at 4 -> bg runs 4..14; fg JCT = 10.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 10.0);
  EXPECT_DOUBLE_EQ(engine.jct(bg), 13.5);
  EXPECT_EQ(mgr->reserved_count(fg), 0u);  // nothing left at the end
}

TEST(CoreEdge, MitigationRespectsDeadlineExpiredSlots) {
  // With a tight deadline (P = 0.3) and heavy stragglers, reservations can
  // expire before the mitigation trigger fires; the run must stay live and
  // copies never run on unreserved slots.
  SsrConfig cfg;
  cfg.isolation_p = 0.3;
  cfg.enable_straggler_mitigation = true;
  Engine engine(SchedConfig{}, 1, 4, 1);
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  engine.set_reservation_hook(std::move(manager));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(4, uniform_duration(1.0, 2.0))
                                     .explicit_durations({1.0, 1.0, 50.0, 80.0})
                                     .stage(4, fixed_duration(2.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .priority(0)
                    .submit_at(0.5)
                    .stage(8, fixed_duration(30.0))
                    .build());
  engine.run();
  EXPECT_TRUE(engine.job_finished(fg));
  // Either copies launched before expiry or none at all — both are legal;
  // the invariant is liveness plus bounded reservations.
  EXPECT_EQ(mgr->reserved_count(fg), 0u);
}

TEST(CoreEdge, OverrideConsumesPreReservation) {
  // A higher-priority job can take even pre-reserved slots.
  SsrConfig cfg;
  cfg.prereserve_threshold = 0.4;
  Engine engine(SchedConfig{}, 1, 4, 1);
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  engine.set_reservation_hook(std::move(manager));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(4, fixed_duration(5.0))
                                     .build());
  const JobId vip = engine.submit(JobBuilder("vip")
                                      .priority(20)
                                      .submit_at(6.0)
                                      .stage(4, fixed_duration(3.0))
                                      .build());
  // At t=5 fg reserves its freed slot and pre-reserves the 2 idle slots.
  // vip (prio 20) arrives at 6 and overrides all three reserved slots for
  // its first 3 tasks (6..9); its 4th waits for one of them (9..12):
  // JCT = 12 - 6 = 6.  fg survives and re-arms its pre-reservation demand
  // for the two overridden pre-reserved slots (Algorithm 1, line 17), so
  // at 9 it grabs vip's freed slots again: the first is overridden at once
  // by vip's 4th task (re-arming one more), the other two stay fg's.
  engine.advance_to(9.5);
  EXPECT_EQ(mgr->reserved_count(fg), 2u);
  engine.drain();
  EXPECT_DOUBLE_EQ(engine.jct(vip), 6.0);
  EXPECT_TRUE(engine.job_finished(fg));
}

// Case-2.3 demand competes for freed slots: a slot goes to the
// highest-priority open demand, and between equal priorities to the
// earliest stage.  Two reserving jobs each finish one of their two
// first-phase tasks at t=1 and want two extra slots for their four-wide
// second phase; a background job frees two slots at t=5.
struct PreReserveRace {
  std::size_t first_held = 0;   ///< slots the first-submitted job holds at 6
  std::size_t second_held = 0;
};

PreReserveRace race_for_freed_slots(int first_priority, int second_priority) {
  SsrConfig cfg;
  cfg.prereserve_threshold = 0.4;
  cfg.min_reserving_priority = 1;
  Engine engine(SchedConfig{}, 1, 6, 1);
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  engine.set_reservation_hook(std::move(manager));
  auto reserving_job = [](const char* name, int priority) {
    return JobBuilder(name)
        .priority(priority)
        .stage(2, fixed_duration(1.0))
        .explicit_durations({1.0, 20.0})
        .stage(4, fixed_duration(5.0))
        .build();
  };
  const JobId first = engine.submit(reserving_job("first", first_priority));
  const JobId second =
      engine.submit(reserving_job("second", second_priority));
  engine.submit(
      JobBuilder("bg").priority(0).stage(2, fixed_duration(5.0)).build());
  engine.advance_to(6.0);
  const PreReserveRace race{mgr->reserved_count(first),
                            mgr->reserved_count(second)};
  engine.drain();
  EXPECT_TRUE(engine.job_finished(first));
  EXPECT_TRUE(engine.job_finished(second));
  return race;
}

TEST(CoreEdge, FreedSlotGoesToHighestPriorityPreReservation) {
  // Each job holds the slot its first task freed; both freed background
  // slots go to the later-submitted but higher-priority job.
  const PreReserveRace race = race_for_freed_slots(10, 20);
  EXPECT_EQ(race.first_held, 1u);
  EXPECT_EQ(race.second_held, 3u);
}

TEST(CoreEdge, FreedSlotGoesToEarliestStageAmongEqualPriorities) {
  const PreReserveRace race = race_for_freed_slots(10, 10);
  EXPECT_EQ(race.first_held, 3u);
  EXPECT_EQ(race.second_held, 1u);
}

TEST(CoreEdge, SameJobParallelStagesShareReservations) {
  // A diamond: one root fans out to two middle stages that join.  The
  // mechanism must not deadlock on reservations between the job's own
  // concurrent stages.
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  JobSpec fg = JobBuilder("diamond")
                   .priority(10)
                   .stage_with_parents(4, fixed_duration(2.0), {})
                   .stage_with_parents(2, fixed_duration(3.0), {0})
                   .stage_with_parents(2, fixed_duration(4.0), {0})
                   .stage_with_parents(4, fixed_duration(1.0), {1, 2})
                   .build();
  const JobId id = engine.submit(std::move(fg));
  engine.run();
  // Root 0..2; middles run in parallel 2..5 and 2..6; join 6..7.
  EXPECT_DOUBLE_EQ(engine.jct(id), 7.0);
}

TEST(CoreEdge, ZeroLengthContentionWindowIsHarmless) {
  // Background arrives exactly at the barrier instant: reservation vs offer
  // ordering must still favor the reserving job's downstream.
  Engine engine(SchedConfig{}, 1, 2, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .priority(0)
                    .submit_at(10.0)  // exactly the barrier
                    .stage(2, fixed_duration(50.0))
                    .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 15.0);
}

}  // namespace
}  // namespace ssr
