// Discrete-event simulation engine.
//
// The simulator advances a virtual clock from event to event.  All other
// modules (scheduler, reservation manager, workload arrival process) interact
// with time exclusively through this interface, which makes every experiment
// deterministic and instantaneous in wall-clock terms.
#pragma once

#include <cstddef>

#include "ssr/common/time.h"
#include "ssr/sim/event_queue.h"

namespace ssr {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Current simulated time.  Starts at 0.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at`; `at` must not be in the past.
  /// The band decides same-instant ordering (see EventBand); external inputs
  /// (arrivals, failure schedules) use their own bands so the open-system
  /// stepping API reproduces closed-batch tie-breaking exactly.
  void schedule_at(SimTime at, Callback fn);
  void schedule_at(SimTime at, EventBand band, Callback fn);

  /// Schedule `fn` after `delay` (>= 0) simulated seconds.
  void schedule_after(SimDuration delay, Callback fn);

  /// Run one event.  Returns false when the queue is empty.
  bool step();

  /// Bounded single step: run the earliest event only if its time is
  /// <= horizon; returns false (and pops nothing, so no event past the
  /// horizon can be over-stepped) otherwise.  Events tied exactly at the
  /// horizon — e.g. an injected failure and a stage completion at the same
  /// boundary instant — all fire, in band/insertion order.
  bool step_until(SimTime horizon);

  /// Run until the queue drains.  `max_events` guards against runaway
  /// feedback loops in buggy policies (0 = unlimited).
  void run(std::size_t max_events = 0);

  /// Run events with time <= horizon; afterwards now() == horizon exactly
  /// (simulated time passes even when no events fired — the open-system
  /// notion of "now").  `horizon` must not be in the past.
  void run_until(SimTime horizon);

  /// Time of the earliest pending event; kTimeInfinity when idle.
  SimTime next_event_time() const { return queue_.next_time(); }

  std::size_t processed_events() const { return processed_; }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  std::size_t processed_ = 0;
};

}  // namespace ssr
