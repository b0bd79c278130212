// Tests for the Sec. III-A strawman policies: static carve-outs (one-window
// table-driven reservations) and timeout-based (Spark dynamic-allocation
// style) reservations.
#include <gtest/gtest.h>

#include <memory>

#include "ssr/common/check.h"
#include "ssr/core/naive_policies.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

TEST(StaticReservation, CarveOutBlocksLowPriorityJobs) {
  // 4 slots, 2 statically reserved for the class (priority >= 10).  The
  // low-priority job can only ever use the 2 unreserved slots.
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(
      make_static_reservation_hook(2, /*class_min_priority=*/10));
  const JobId lo = engine.submit(
      JobBuilder("lo").priority(0).stage(4, fixed_duration(10.0)).build());
  engine.run();
  // 4 tasks on 2 usable slots: 2 rounds -> 20 s.
  EXPECT_DOUBLE_EQ(engine.jct(lo), 20.0);
}

TEST(StaticReservation, ClassJobsUseTheCarveOut) {
  Engine engine(SchedConfig{}, 1, 4, 1);
  auto hook = make_static_reservation_hook(2, 10);
  TableDrivenHook* h = hook.get();
  engine.set_reservation_hook(std::move(hook));
  const JobId lo = engine.submit(
      JobBuilder("lo").priority(0).stage(2, fixed_duration(50.0)).build());
  const JobId hi = engine.submit(JobBuilder("hi")
                                     .priority(10)
                                     .submit_at(1.0)
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.run();
  // lo starts on the 2 unreserved slots at t=0; hi lands on the carve-out
  // immediately at t=1 despite the cluster being "full".
  EXPECT_DOUBLE_EQ(engine.jct(hi), 5.0);
  EXPECT_DOUBLE_EQ(engine.jct(lo), 50.0);
  // The carve-out replenishes after use.
  EXPECT_EQ(h->held_slots(), 2u);
}

TEST(StaticReservation, OverProvisioningWastesSlots) {
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(make_static_reservation_hook(3, 10));
  engine.submit(
      JobBuilder("lo").priority(0).stage(2, fixed_duration(10.0)).build());
  engine.run();
  engine.cluster().settle(engine.sim().now());
  // Only 1 slot usable: 2 tasks serialize (20 s); 3 slots idle-reserved the
  // whole time: 60 slot-seconds of waste.
  EXPECT_DOUBLE_EQ(engine.cluster().total_reserved_idle_time(), 60.0);
  EXPECT_DOUBLE_EQ(
      engine.cluster().reserved_idle_time_of(TableDrivenHook::kTableJob),
      60.0);
}

TEST(StaticReservation, OneWindowTableHoldsForever) {
  // Any table whose single window covers its whole cycle is a static
  // carve-out: the held slots never expire at the cycle boundary and no
  // wakeup outlives the work, so the run ends with the last task.
  TableDrivenConfig table;
  table.major_cycle = 60.0;
  table.intervals = {{0.0, 60.0}};
  table.reserved_slots = 2;
  table.class_min_priority = 10;
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(std::make_unique<TableDrivenHook>(table));
  engine.submit(
      JobBuilder("lo").priority(0).stage(4, fixed_duration(10.0)).build());
  const JobId hi = engine.submit(JobBuilder("hi")
                                     .priority(10)
                                     .submit_at(1.0)
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.run();
  engine.cluster().settle(engine.sim().now());
  // lo serializes on 2 slots (0..20); hi runs on the carve-out 1..6.
  EXPECT_DOUBLE_EQ(engine.jct(hi), 5.0);
  EXPECT_DOUBLE_EQ(engine.sim().now(), 20.0);
  // 2 slots x 20 s, less hi's 2 x 5 s on them.
  EXPECT_DOUBLE_EQ(engine.cluster().total_reserved_idle_time(), 30.0);
  EXPECT_EQ(engine.sim().processed_events(), 8u);
}

TEST(TimeoutReservation, HoldsSlotUntilTimeout) {
  // fg's slot freed at t=5 is held 3 s; bg can only grab it at t=8.
  Engine engine(SchedConfig{}, 1, 2, 1);
  engine.set_reservation_hook(std::make_unique<TimeoutReservationHook>(3.0));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(1, fixed_duration(100.0))
                                     .build());
  engine.run();
  // Hold expires at 8 < barrier at 10: bg takes the slot 8..108, fg's
  // phase 2 serializes on one slot: 10..15, 15..20.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 20.0);
  EXPECT_DOUBLE_EQ(engine.jct(bg), 107.0);
}

TEST(TimeoutReservation, LongTimeoutIsolatesButBlindly) {
  // Timeout 10 s covers the barrier: fg is isolated like SSR...
  Engine engine(SchedConfig{}, 1, 2, 1);
  engine.set_reservation_hook(std::make_unique<TimeoutReservationHook>(10.0));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(1, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 15.0);
  // bg starts when fg finishes at 15 (job completion releases holds):
  // 15..25, jct = 24.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 24.0);
}

TEST(TimeoutReservation, HoldsBlindlyWithNoDownstream) {
  // A map-only job: its freed slots are held although no downstream phase
  // exists — pure waste (the paper's first criticism of this policy).
  Engine engine(SchedConfig{}, 1, 2, 1);
  engine.set_reservation_hook(std::make_unique<TimeoutReservationHook>(30.0));
  const JobId job = engine.submit(JobBuilder("maponly")
                                      .priority(5)
                                      .stage(2, fixed_duration(1.0))
                                      .explicit_durations({5.0, 10.0})
                                      .build());
  engine.run();
  engine.cluster().settle(engine.sim().now());
  // The t=5 slot is held 5..10 for nothing; released at job end.
  EXPECT_DOUBLE_EQ(engine.cluster().reserved_idle_time_of(job), 5.0);
}

TEST(TimeoutReservation, RejectsNonPositiveTimeout) {
  EXPECT_THROW(TimeoutReservationHook{0.0}, CheckError);
  EXPECT_THROW(TimeoutReservationHook{-1.0}, CheckError);
}

}  // namespace
}  // namespace ssr
