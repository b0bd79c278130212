// Min-time event queue for the discrete-event engine: one binary heap
// ordered by (time, band, insertion sequence), a total order, so pop order
// never depends on heap layout.  See DESIGN.md §13.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "ssr/common/time.h"

namespace ssr {

/// Type-erased move-only nullary callable (a minimal stand-in for C++23's
/// std::move_only_function).  std::function requires its target to be
/// copyable, which forbids lambdas that capture move-only state and forces
/// the queue to copy callbacks around; this wrapper only ever moves.
///
/// Targets up to kInlineSize bytes live inside the wrapper itself (small
/// buffer optimization) — every engine-scheduled lambda fits, so the
/// millions of events a fig15-scale run pushes never touch the allocator.
/// Larger or throwing-move targets fall back to a heap allocation.
class UniqueCallback {
 public:
  UniqueCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueCallback>>>
  UniqueCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      vt_ = &kInlineVTable<D>;
    } else {
      auto owned = std::make_unique<D>(std::forward<F>(fn));
      ::new (static_cast<void*>(buf_)) D*(owned.release());
      vt_ = &kHeapVTable<D>;
    }
  }

  UniqueCallback(UniqueCallback&& other) noexcept { steal(other); }
  UniqueCallback& operator=(UniqueCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  UniqueCallback(const UniqueCallback&) = delete;
  UniqueCallback& operator=(const UniqueCallback&) = delete;
  ~UniqueCallback() { reset(); }

  void operator()() { vt_->invoke(buf_); }
  explicit operator bool() const { return vt_ != nullptr; }

 private:
  static constexpr std::size_t kInlineSize = 48;

  struct VTable {
    void (*invoke)(void*);
    /// Move-construct the target from `src` into `dst`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr VTable kInlineVTable{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVTable{
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* dst, void* src) { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void steal(UniqueCallback& other) {
    if (other.vt_ != nullptr) {
      vt_ = other.vt_;
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }
  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

/// Deterministic tie-break class for events scheduled at the same instant.
/// Bands exist so the *open-system* stepping API can reproduce the closed
/// batch setup bit for bit: in a closed run every failure-schedule event is
/// pushed before every job arrival, and every arrival before any event the
/// simulation itself generates, so at equal timestamps the insertion-order
/// tie-break fires them in exactly this class order.  An open run pushes
/// arrivals incrementally (so their raw sequence numbers interleave with
/// internal events), and the band restores the closed ordering regardless of
/// push order.  Within a band, insertion order still decides.
enum class EventBand : std::uint8_t {
  kFailure = 0,   ///< fault-injection schedule events
  kArrival = 1,   ///< job arrival / admission events
  kInternal = 2,  ///< everything the simulation schedules while running
};

/// Time-ordered queue of callbacks.  Events at the same instant fire in
/// (band, insertion order): a monotone sequence number breaks ties within a
/// band, which makes runs deterministic regardless of floating-point
/// coincidences.
class EventQueue {
 public:
  using Callback = UniqueCallback;

  void push(SimTime at, Callback fn);  ///< kInternal band
  void push(SimTime at, EventBand band, Callback fn);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; kTimeInfinity when empty.  The
  /// bounded-advance contract peeks here before popping, so an
  /// advance-to-horizon loop stops *without* removing an event past the
  /// horizon (popping and re-pushing would move the event to the back of its
  /// same-instant band and reorder ties).
  SimTime next_time() const;

  /// Removes and returns the earliest event.  Precondition: !empty().
  std::pair<SimTime, Callback> pop();

  /// Bounded advance: removes and returns the earliest event only if its
  /// time is <= horizon; nullopt otherwise (the queue is untouched, so
  /// events strictly past the horizon can never be over-stepped).  Events
  /// tied exactly at the horizon are all eligible, in band/insertion order.
  std::optional<std::pair<SimTime, Callback>> pop_if_at_or_before(
      SimTime horizon);

 private:
  struct Event {
    SimTime at;
    EventBand band;
    std::uint64_t seq;
    Callback fn;
  };
  /// Heap comparator ("later than"): min-heap via std::push_heap/pop_heap.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.band != b.band) return a.band > b.band;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  ///< flat min-heap under Later
  std::uint64_t next_seq_ = 0;
};

}  // namespace ssr
