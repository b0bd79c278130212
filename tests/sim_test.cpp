// Unit tests for the discrete-event engine and the cluster slot state
// machine, including failure injection on illegal transitions.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/rng.h"
#include "ssr/sim/cluster.h"
#include "ssr/sim/simulator.h"
#include "ssr/sim/slot_model.h"
#include "ssr/sim/slot_set.h"

namespace ssr {
namespace {

TaskId task_of(std::uint32_t job, std::uint32_t stage, std::uint32_t index,
               std::uint32_t attempt = 0) {
  return TaskId{StageId{JobId{job}, stage}, index, attempt};
}

std::vector<SlotId> ids(const SlotSet& set) {
  return std::vector<SlotId>(set.begin(), set.end());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.processed_events(), 3u);
}

TEST(Simulator, SameTimeEventsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_after(2.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), CheckError);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), CheckError);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilFiresBoundaryTiesInBandOrder) {
  // An injected failure and an ordinary (internal) completion tied exactly
  // at the advance horizon: both fire — the boundary is inclusive — with
  // the failure first, whatever the scheduling order; the event an epsilon
  // past the horizon must not be over-stepped.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, EventBand::kInternal, [&] { order.push_back(2); });
  sim.schedule_at(5.0, EventBand::kArrival, [&] { order.push_back(1); });
  sim.schedule_at(5.0, EventBand::kFailure, [&] { order.push_back(0); });
  sim.schedule_at(5.0 + 1e-9, EventBand::kFailure, [&] { order.push_back(9); });
  sim.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 5.0 + 1e-9);
}

TEST(Simulator, StepUntilIsBoundedSingleStep) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(8.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step_until(5.0));  // fires the 2.0 event only
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clock moved to the event, not beyond
  EXPECT_FALSE(sim.step_until(5.0));  // 8.0 is past the horizon: no pop
  EXPECT_EQ(sim.pending_events(), 1u);
  // A callback scheduling *at the horizon* still lands inside run_until.
  sim.schedule_at(5.0, [&] { sim.schedule_at(5.0, [&] { fired += 10; }); });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 11);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Cluster, LayoutAndInitialState) {
  Cluster c(3, 2);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.num_slots(), 6u);
  EXPECT_EQ(c.idle_slots().size(), 6u);
  EXPECT_TRUE(c.reserved_idle_slots().empty());
  EXPECT_EQ(c.slot(SlotId{0}).node(), (NodeId{0}));
  EXPECT_EQ(c.slot(SlotId{5}).node(), (NodeId{2}));
}

TEST(Cluster, TaskLifecycleAccruesBusyTime) {
  Cluster c(1, 2);
  const SlotId s{0};
  const TaskId t = task_of(0, 0, 0);
  c.start_task(s, t, 1.0);
  EXPECT_EQ(c.slot(s).state(), SlotState::Busy);
  EXPECT_EQ(c.idle_slots().size(), 1u);
  EXPECT_EQ(*c.slot(s).running_task(), t);
  c.end_task(s, 4.0);
  EXPECT_EQ(c.slot(s).state(), SlotState::Idle);
  EXPECT_FALSE(c.slot(s).running_task().has_value());
  EXPECT_EQ(c.idle_slots().size(), 2u);
  EXPECT_DOUBLE_EQ(c.slot(s).busy_time(), 3.0);
}

TEST(Cluster, ReservationLifecycleAndAccounting) {
  Cluster c(1, 2);
  const SlotId s{0};
  Reservation r;
  r.job = JobId{7};
  r.priority = 3;
  r.deadline = 100.0;
  c.reserve(s, r, 10.0);
  EXPECT_EQ(c.slot(s).state(), SlotState::ReservedIdle);
  EXPECT_EQ(c.reserved_idle_slots().size(), 1u);
  EXPECT_EQ(c.slot(s).reservation()->job, (JobId{7}));
  c.release_reservation(s, 25.0);
  EXPECT_EQ(c.slot(s).state(), SlotState::Idle);
  EXPECT_DOUBLE_EQ(c.slot(s).reserved_idle_time(), 15.0);
  EXPECT_DOUBLE_EQ(c.reserved_idle_time_of(JobId{7}), 15.0);
  EXPECT_DOUBLE_EQ(c.reserved_idle_time_of(JobId{8}), 0.0);
}

TEST(Cluster, ReservationConsumedByTaskStart) {
  Cluster c(1, 1);
  const SlotId s{0};
  Reservation r;
  r.job = JobId{1};
  c.reserve(s, r, 0.0);
  c.start_task(s, task_of(1, 1, 0), 5.0);
  EXPECT_EQ(c.slot(s).state(), SlotState::Busy);
  EXPECT_FALSE(c.slot(s).reservation().has_value());
  EXPECT_DOUBLE_EQ(c.slot(s).reserved_idle_time(), 5.0);
}

TEST(Cluster, ReleaseIfCurrentValidatesToken) {
  Cluster c(1, 1);
  const SlotId s{0};
  Reservation r;
  r.job = JobId{1};
  const std::uint64_t token = c.reserve(s, r, 0.0);
  // Consume, then re-reserve: the old token must be stale.
  c.start_task(s, task_of(1, 1, 0), 1.0);
  c.end_task(s, 2.0);
  const std::uint64_t token2 = c.reserve(s, r, 2.0);
  EXPECT_FALSE(c.release_if_current(s, token, 3.0));
  EXPECT_EQ(c.slot(s).state(), SlotState::ReservedIdle);
  EXPECT_TRUE(c.release_if_current(s, token2, 3.0));
  EXPECT_EQ(c.slot(s).state(), SlotState::Idle);
}

TEST(Cluster, IllegalTransitionsThrow) {
  Cluster c(1, 2);
  const SlotId s{0};
  EXPECT_THROW(c.end_task(s, 1.0), CheckError);  // not busy
  EXPECT_THROW(c.release_reservation(s, 1.0), CheckError);  // not reserved
  c.start_task(s, task_of(0, 0, 0), 1.0);
  EXPECT_THROW(c.start_task(s, task_of(0, 0, 1), 2.0), CheckError);
  Reservation r;
  EXPECT_THROW(c.reserve(s, r, 2.0), CheckError);  // busy slots can't reserve
  EXPECT_THROW(c.end_task(s, 0.5), CheckError);  // time moved backwards
}

TEST(Cluster, ReservedIdleIndexesTrackTransitions) {
  Cluster c(2, 2);
  Reservation r1;
  r1.job = JobId{1};
  r1.priority = 5;
  Reservation r2;
  r2.job = JobId{2};
  r2.priority = 3;
  c.reserve(SlotId{2}, r1, 0.0);
  c.reserve(SlotId{0}, r1, 0.0);
  c.reserve(SlotId{1}, r2, 0.0);

  // Per-job view: id-ordered subsequence of the reserved set.
  EXPECT_EQ(c.reserved_idle_slots_of(JobId{1}),
            (std::vector<SlotId>{SlotId{0}, SlotId{2}}));
  EXPECT_EQ(c.reserved_idle_slots_of(JobId{2}),
            (std::vector<SlotId>{SlotId{1}}));
  EXPECT_TRUE(c.reserved_idle_slots_of(JobId{9}).empty());

  // Priority buckets, each id-ordered.
  ASSERT_EQ(c.reserved_idle_by_priority().size(), 2u);
  EXPECT_EQ(ids(c.reserved_idle_by_priority().at(5)),
            (std::vector<SlotId>{SlotId{0}, SlotId{2}}));
  EXPECT_EQ(ids(c.reserved_idle_by_priority().at(3)),
            (std::vector<SlotId>{SlotId{1}}));

  // Consuming a reservation by task start and releasing one both unindex;
  // drained buckets hold no slot.
  c.start_task(SlotId{0}, task_of(1, 0, 0), 1.0);
  c.release_reservation(SlotId{1}, 1.0);
  EXPECT_EQ(c.reserved_idle_slots_of(JobId{1}),
            (std::vector<SlotId>{SlotId{2}}));
  EXPECT_TRUE(c.reserved_idle_slots_of(JobId{2}).empty());
  EXPECT_TRUE(c.reserved_idle_by_priority().at(3).empty());
  EXPECT_EQ(ids(c.reserved_idle_by_priority().at(5)),
            (std::vector<SlotId>{SlotId{2}}));
}

// Sizes straddle the 64-bit word boundaries; every operation (insert,
// erase, contains, next-from, union, copy-then-iterate) is mirrored on a
// std::set and the two must agree on size, membership and id order.
TEST(SlotSet, RandomOpsMatchSortedModel) {
  for (const std::uint32_t n : {1u, 63u, 64u, 65u, 130u, 4000u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed * 7919 + n);
      SlotSet set(n);
      std::set<SlotId> model;
      const auto random_id = [&] {
        return SlotId{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
      };
      for (int op = 0; op < 2000; ++op) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed
                                        << " op=" << op);
        switch (rng.uniform_int(0, 5)) {
          case 0: {
            const SlotId id = random_id();
            ASSERT_EQ(set.insert(id), model.insert(id).second);
            break;
          }
          case 1: {
            const SlotId id = random_id();
            ASSERT_EQ(set.erase(id), model.erase(id) == 1);
            break;
          }
          case 2: {
            const SlotId id = random_id();
            ASSERT_EQ(set.contains(id), model.contains(id));
            break;
          }
          case 3: {
            const auto from =
                static_cast<std::uint32_t>(rng.uniform_int(0, n));
            const auto it = model.lower_bound(SlotId{from});
            ASSERT_EQ(set.next_from(from), it == model.end() ? n : it->v);
            break;
          }
          case 4: {
            SlotSet other(n);
            for (int k = 0; k < 3; ++k) {
              const SlotId id = random_id();
              other.insert(id);
              model.insert(id);
            }
            set |= other;
            break;
          }
          default: {
            // A copy is a snapshot: mutating the original leaves it as is.
            const SlotSet copy = set;
            set.insert(random_id());
            ASSERT_EQ(ids(copy), std::vector<SlotId>(model.begin(),
                                                     model.end()));
            set = copy;
            break;
          }
        }
        ASSERT_EQ(set.size(), model.size());
        ASSERT_EQ(set.empty(), model.empty());
        ASSERT_EQ(ids(set), std::vector<SlotId>(model.begin(), model.end()));
      }
    }
  }
}

TEST(SlotModel, RandomTransitionsMatchCluster) {
  // The event-stream consumers' slot model must accrue exactly what the
  // Cluster accrues when both see the same legal transitions: the RunResult
  // fold and the audit compare the two with ==.
  constexpr std::uint32_t kSlots = 6;
  // Owners include the top of the range hook sentinel ids count down from
  // (TableDrivenHook::kTableJob is 2^32 - 2).
  const std::vector<JobId> owners = {JobId{0}, JobId{1}, JobId{2},
                                     JobId{0xFFFFFFFFu}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 104729);
    Cluster c(3, 2);
    SlotModel m(kSlots);
    std::vector<SimTime> started(kSlots, 0.0);
    SimTime now = 0.0;
    for (std::uint32_t op = 0; op < 2000; ++op) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " op=" << op);
      if (rng.bernoulli(0.7)) now += rng.uniform(0.0, 3.0);
      const SlotId id{static_cast<std::uint32_t>(rng.uniform_int(0, 5))};
      const bool coin = rng.bernoulli(0.5);
      switch (c.slot(id).state()) {
        case SlotState::Idle:
          if (rng.bernoulli(0.1)) {  // fail
            c.fail_slot(id, now);
            m.to_dead(id, now);
          } else if (coin) {  // reserve
            Reservation r;
            r.job = owners[rng.uniform_int(0, 3)];
            r.priority = static_cast<int>(rng.uniform_int(0, 2));
            r.deadline = now + 5.0;
            c.reserve(id, r, now);
            m.to_reserved(id, r.job, r.priority, r.deadline, now);
          } else {  // start
            c.start_task(id, task_of(0, 0, op), now);
            m.to_busy(id, task_of(0, 0, op), now);
            started[id.v] = now;
          }
          break;
        case SlotState::Busy:  // end; the move returns run time
          c.end_task(id, now);
          ASSERT_EQ(m.to_idle(id, now), now - started[id.v]);
          break;
        case SlotState::ReservedIdle:
          if (coin) {  // claim
            c.start_task(id, task_of(1, 0, op), now);
            m.to_busy(id, task_of(1, 0, op), now);
            started[id.v] = now;
          } else {  // release
            c.release_reservation(id, now);
            m.to_idle(id, now);
          }
          break;
        case SlotState::Dead:  // recover
          c.recover_slot(id, now);
          m.to_idle(id, now);
          break;
      }
      ASSERT_EQ(m.at(id).state, c.slot(id).state());
    }
    now += 1.0;
    c.settle(now);
    m.settle(now);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      const Slot& s = c.slot(SlotId{i});
      EXPECT_EQ(m.at(SlotId{i}).busy, s.busy_time()) << "slot" << i;
      EXPECT_EQ(m.at(SlotId{i}).reserved_idle, s.reserved_idle_time())
          << "slot" << i;
      EXPECT_EQ(m.at(SlotId{i}).dead, s.dead_time()) << "slot" << i;
    }
    EXPECT_EQ(m.total_busy(), c.total_busy_time());
    EXPECT_EQ(m.total_reserved_idle(), c.total_reserved_idle_time());
    EXPECT_EQ(m.total_dead(), c.total_dead_time());
    EXPECT_GT(c.total_dead_time(), 0.0);
    for (const JobId owner : owners) {
      EXPECT_EQ(m.reserved_idle_of(owner), c.reserved_idle_time_of(owner))
          << owner;
      EXPECT_GT(c.reserved_idle_time_of(owner), 0.0) << owner;
    }
  }
}

TEST(Cluster, FitsAnySlotUsesDistinctCapacities) {
  Cluster homo(2, 2);
  EXPECT_TRUE(homo.fits_any_slot(Resources{1.0, 1.0}));
  EXPECT_FALSE(homo.fits_any_slot(Resources{1.5, 1.0}));

  const Cluster hetero(std::vector<std::vector<Resources>>{
      {{1.0, 1.0}, {1.0, 1.0}}, {{2.0, 4.0}}});
  EXPECT_TRUE(hetero.fits_any_slot(Resources{2.0, 4.0}));
  EXPECT_TRUE(hetero.fits_any_slot(Resources{1.0, 2.0}));
  EXPECT_FALSE(hetero.fits_any_slot(Resources{2.0, 5.0}));
}

TEST(Cluster, UtilizationAggregatesAcrossSlots) {
  Cluster c(1, 2);
  c.start_task(SlotId{0}, task_of(0, 0, 0), 0.0);
  c.start_task(SlotId{1}, task_of(0, 0, 1), 0.0);
  c.end_task(SlotId{0}, 5.0);
  c.end_task(SlotId{1}, 10.0);
  c.settle(10.0);
  EXPECT_DOUBLE_EQ(c.total_busy_time(), 15.0);
  EXPECT_DOUBLE_EQ(c.utilization(10.0), 0.75);
}

}  // namespace
}  // namespace ssr
