// Unit tests for the EventQueue and its move-only callback type: time
// ordering, same-instant FIFO, interleaved push/pop, move-only callable
// support (the properties the simulator's determinism rests on), plus random
// push/pop interleavings checked against a sorted-list model of the
// (time, band, push order) contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/sim/event_queue.h"

namespace ssr {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameInstantFifo) {
  // Tie-break by insertion order must hold for many events at one instant —
  // a plain (time)-keyed heap would pop them in arbitrary sift order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, InterleavedPushPopKeepsOrdering) {
  // Pops interleaved with pushes (the simulator's actual usage: callbacks
  // schedule new events).  Sequence numbers must keep FIFO among equal
  // times even across partial drains.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(10); });
  q.push(2.0, [&] { order.push_back(20); });
  q.pop().second();  // fires 10
  q.push(2.0, [&] { order.push_back(21); });
  q.push(1.5, [&] { order.push_back(15); });
  q.pop().second();  // fires 15
  q.push(2.0, [&] { order.push_back(22); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20, 21, 22}));
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  q.push(4.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  q.pop();
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported) {
  // std::function would reject this lambda (unique_ptr capture makes it
  // non-copyable); the queue's UniqueCallback only ever moves.
  EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.push(1.0, [p = std::move(payload), &seen] { seen = *p; });
  auto [at, fn] = q.pop();
  EXPECT_DOUBLE_EQ(at, 1.0);
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, PopMovesCallbackOut) {
  // The callback owns its captures after pop(): destroying the queue before
  // invoking must be safe (pop transfers, not references).
  auto q = std::make_unique<EventQueue>();
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  q->push(1.0, [p = std::move(payload), &seen] { seen = *p; });
  auto [at, fn] = q->pop();
  q.reset();
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, RejectsEmptyCallbackAndEmptyPop) {
  EventQueue q;
  EXPECT_THROW(q.push(1.0, UniqueCallback{}), CheckError);
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, BandsOrderSameInstantEvents) {
  // At one timestamp, failures precede arrivals precede internal events —
  // regardless of push order.  This is the tie-break the open-vs-closed
  // equivalence rests on: a closed harness pushes failure schedules first
  // and all arrivals before any internal event, so seq order coincides with
  // band order there; open-mode submission reproduces it via bands alone.
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, EventBand::kInternal, [&] { order.push_back(2); });
  q.push(5.0, EventBand::kArrival, [&] { order.push_back(1); });
  q.push(5.0, EventBand::kFailure, [&] { order.push_back(0); });
  q.push(5.0, EventBand::kInternal, [&] { order.push_back(3); });
  q.push(5.0, EventBand::kArrival, [&] { order.push_back(11); });
  q.push(5.0, EventBand::kFailure, [&] { order.push_back(10); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 3}));
}

TEST(EventQueue, BandsLoseToTime) {
  // Bands only break exact-time ties; an earlier internal event still beats
  // a later failure.
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, EventBand::kFailure, [&] { order.push_back(2); });
  q.push(1.0, EventBand::kInternal, [&] { order.push_back(1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PopIfAtOrBeforeIsBounded) {
  // The bounded-advance primitive must pop events at or before the horizon
  // — boundary inclusive — and must not pop (not even inspect-and-drop)
  // anything strictly past it.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });

  auto ev = q.pop_if_at_or_before(2.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_DOUBLE_EQ(ev->first, 1.0);
  ev->second();

  ev = q.pop_if_at_or_before(2.0);  // exactly at the horizon: fires
  ASSERT_TRUE(ev.has_value());
  EXPECT_DOUBLE_EQ(ev->first, 2.0);
  ev->second();

  ev = q.pop_if_at_or_before(2.0);  // 3.0 is past the horizon: stays queued
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, BoundedAdvanceRespectsBandsOnHorizonTie) {
  // The satellite case: an injected failure and a stage completion tied at
  // the advance horizon.  advance_to(t) must fire both (boundary is
  // inclusive) with the failure first, and must not over-step past t.
  EventQueue q;
  std::vector<int> order;
  q.push(7.0, EventBand::kInternal, [&] { order.push_back(2); });  // completion
  q.push(7.0, EventBand::kFailure, [&] { order.push_back(1); });  // failure
  q.push(7.0 + 1e-9, EventBand::kFailure, [&] { order.push_back(3); });

  while (auto ev = q.pop_if_at_or_before(7.0)) ev->second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // failure won the tie
  EXPECT_EQ(q.size(), 1u);  // the epsilon-later failure was not over-stepped
}

TEST(EventQueue, InfiniteTimeEventsPopLast) {
  // kTimeInfinity sentinels (e.g. "never" timers) pop after every finite
  // event, in push order among themselves.
  EventQueue q;
  std::vector<int> order;
  q.push(kTimeInfinity, [&] { order.push_back(99); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(kTimeInfinity, [&] { order.push_back(100); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 99, 100}));
}

TEST(EventQueue, DestructionWithPendingEventsIsClean) {
  // Queued callbacks (and the state they captured) are destroyed with the
  // queue; ASan checks nothing leaks.
  auto q = std::make_unique<EventQueue>();
  auto payload = std::make_unique<int>(5);
  for (int i = 0; i < 100; ++i) q->push(static_cast<double>(i), [] {});
  q->push(1.0, [p = std::move(payload)] {});
  q.reset();
}

TEST(EventQueue, RandomInterleavingsMatchSortedModel) {
  // The model is the list of pending events as (time, band, push order);
  // every pop must return its minimum.  Pushes mix exact ties on a coarse
  // grid (the band/seq stress case), a wide spread, far-future outliers and
  // events at "now" (the last popped time), interleaved with pops the way
  // simulator callbacks schedule new events.
  using Pending = std::tuple<double, EventBand, int>;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    EventQueue q;
    std::vector<Pending> model;
    double now = 0.0;
    int fired = -1;
    auto pop_both = [&] {
      const auto it = std::min_element(model.begin(), model.end());
      const Pending want = *it;
      model.erase(it);
      EXPECT_EQ(q.next_time(), std::get<0>(want));
      auto [at, fn] = q.pop();
      fn();
      EXPECT_EQ(at, std::get<0>(want));
      EXPECT_EQ(fired, std::get<2>(want));
      now = at;
    };
    for (int id = 0; id < 600; ++id) {
      if (!model.empty() && uni(rng) < 0.35) {
        pop_both();
        continue;
      }
      const double kind = uni(rng);
      double at = now;  // exactly "now"
      if (kind < 0.4) {
        at += static_cast<double>(rng() % 8);
      } else if (kind < 0.8) {
        at += uni(rng) * 100.0;
      } else if (kind < 0.95) {
        at += uni(rng) * 5.0e7;
      }
      const auto band = static_cast<EventBand>(rng() % 3);
      q.push(at, band, [&fired, id] { fired = id; });
      model.emplace_back(at, band, id);
      ASSERT_EQ(q.size(), model.size());
    }
    while (!model.empty()) pop_both();
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace ssr
