#include "ssr/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "ssr/common/check.h"

namespace ssr {

void EventQueue::push(SimTime at, Callback fn) {
  push(at, EventBand::kInternal, std::move(fn));
}

void EventQueue::push(SimTime at, EventBand band, Callback fn) {
  SSR_CHECK_MSG(static_cast<bool>(fn), "event callback required");
  heap_.push_back(Event{at, band, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime EventQueue::next_time() const {
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  SSR_CHECK_MSG(!heap_.empty(), "pop from empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return {ev.at, std::move(ev.fn)};
}

std::optional<std::pair<SimTime, EventQueue::Callback>>
EventQueue::pop_if_at_or_before(SimTime horizon) {
  if (heap_.empty() || heap_.front().at > horizon) return std::nullopt;
  return pop();
}

}  // namespace ssr
