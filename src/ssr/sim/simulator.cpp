#include "ssr/sim/simulator.h"

#include <utility>

#include "ssr/common/check.h"

namespace ssr {

void Simulator::schedule_at(SimTime at, Callback fn) {
  schedule_at(at, EventBand::kInternal, std::move(fn));
}

void Simulator::schedule_at(SimTime at, EventBand band, Callback fn) {
  SSR_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  queue_.push(at, band, std::move(fn));
}

void Simulator::schedule_after(SimDuration delay, Callback fn) {
  SSR_CHECK_MSG(delay >= 0.0, "negative delay");
  queue_.push(now_ + delay, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [at, fn] = queue_.pop();
  now_ = at;
  ++processed_;
  fn();
  return true;
}

bool Simulator::step_until(SimTime horizon) {
  auto ev = queue_.pop_if_at_or_before(horizon);
  if (!ev) return false;
  now_ = ev->first;
  ++processed_;
  ev->second();
  return true;
}

void Simulator::run(std::size_t max_events) {
  while (step()) {
    if (max_events != 0 && processed_ >= max_events) {
      SSR_CHECK_MSG(queue_.empty(),
                    "simulation exceeded the configured event budget");
    }
  }
}

void Simulator::run_until(SimTime horizon) {
  SSR_CHECK_MSG(horizon >= now_, "cannot advance the clock into the past");
  while (step_until(horizon)) {
  }
  if (now_ < horizon) now_ = horizon;
}

}  // namespace ssr
