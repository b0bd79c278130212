// Layer tracing measured from outside the library.
//
// The benchmark attributes a run's wall time to the library's modules
// without touching their code: it times the calls it makes into each module
// (generation, harness construction, submit, stepping, collect, replay) and
// the callbacks the engine makes back out through its two public seams —
// the ReservationHook (the `core` layer) and EngineObserver (the `metrics`
// layer).  Callbacks nest (on_task_finished -> Engine::reserve_slot -> offer
// -> approve, and observers fire inside any of them), so spans live on one
// stack and each layer is charged its *exclusive* time: a span's duration
// minus the durations of the spans it encloses.  Engine work a hook triggers
// by calling back into the engine (reserve_slot, release_reservation,
// launch_copy) is not a separate span and stays inside the hook's time.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ssr/core/reservation_manager.h"
#include "ssr/sched/types.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kWorkloadGen,
  kExpHarness,
  kSchedSubmit,
  kSchedStep,
  // The nine ReservationHook callbacks, in declaration order.
  kCoreOnTaskFinished,
  kCoreOnTaskKilled,
  kCoreOnSlotIdle,
  kCoreOnSlotFailed,
  kCoreApprove,
  kCoreOnStageSubmitted,
  kCoreOnStageFullyPlaced,
  kCoreOnTaskStarted,
  kCoreOnJobFinished,
  kMetricsObserver,
  kExpCollect,
  kMetricsSerialize,
  kMetricsParse,
  kExpReplayFold,
  kAuditReplay,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);
inline constexpr Layer kFirstCoreLayer = Layer::kCoreOnTaskFinished;
inline constexpr Layer kLastCoreLayer = Layer::kCoreOnJobFinished;

/// Metric-name stem of a layer ("sched.step", "core.approve", ...).
const char* layer_name(Layer layer);

/// Per-layer totals of one pass.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  /// Outermost-span time only, so a layer that re-enters itself is not
  /// counted twice.
  std::array<double, kLayerCount> inclusive_s{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t approve_accepted = 0;

  double self(Layer l) const { return self_s[static_cast<std::size_t>(l)]; }
  double inclusive(Layer l) const {
    return inclusive_s[static_cast<std::size_t>(l)];
  }
  std::uint64_t count(Layer l) const {
    return calls[static_cast<std::size_t>(l)];
  }
  /// Sum of the exclusive times of the nine hook callbacks.
  double core_s() const;
};

/// Exclusive-time span stack.  Single-threaded, like the engine.
class Tracer {
 public:
  void push(Layer layer) {
    ++depth_[static_cast<std::size_t>(layer)];
    stack_.push_back({layer, Clock::now(), 0.0});
  }
  void pop();

  void note_approve(bool accepted) {
    if (accepted) ++totals_.approve_accepted;
  }

  const LayerTotals& totals() const { return totals_; }
  /// Clears the totals between passes; the stack must be empty.
  void reset();

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::array<std::uint32_t, kLayerCount> depth_{};
  LayerTotals totals_;
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.push(layer); }
  ~Span() { tracer_.pop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// ReservationManager with every hook callback wrapped in a span.  The
/// harness's dynamic_cast still finds the base class, so the run's
/// reservations_expired count is collected exactly as for the plain
/// manager.
class TracedReservationManager final : public ssr::ReservationManager {
 public:
  TracedReservationManager(ssr::SsrConfig config, Tracer& tracer)
      : ReservationManager(config), tracer_(tracer) {}

  void on_task_finished(ssr::Engine& engine,
                        const ssr::TaskFinishInfo& info) override;
  void on_task_killed(ssr::Engine& engine,
                      const ssr::TaskFinishInfo& info) override;
  void on_slot_idle(ssr::Engine& engine, ssr::SlotId slot) override;
  void on_slot_failed(ssr::Engine& engine, ssr::SlotId slot) override;
  bool approve(const ssr::Engine& engine, ssr::SlotId slot, ssr::JobId job,
               int priority) const override;
  void on_stage_submitted(ssr::Engine& engine, ssr::StageId stage) override;
  void on_stage_fully_placed(ssr::Engine& engine,
                             ssr::StageId stage) override;
  void on_task_started(ssr::Engine& engine, ssr::TaskId task,
                       ssr::SlotId slot) override;
  void on_job_finished(ssr::Engine& engine, ssr::JobId job) override;

 private:
  Tracer& tracer_;
};

/// Forwards every observer callback to `inner`, in order, inside one
/// metrics.observer span.
class TimedObservers final : public ssr::EngineObserver {
 public:
  TimedObservers(Tracer& tracer, std::vector<ssr::EngineObserver*> inner)
      : tracer_(tracer), inner_(std::move(inner)) {}

  void on_job_submitted(const ssr::Engine& e, ssr::JobId j) override;
  void on_job_finished(const ssr::Engine& e, ssr::JobId j) override;
  void on_stage_submitted(const ssr::Engine& e, ssr::StageId s) override;
  void on_stage_finished(const ssr::Engine& e, ssr::StageId s) override;
  void on_task_started(const ssr::Engine& e, ssr::TaskId t,
                       ssr::SlotId s) override;
  void on_task_finished(const ssr::Engine& e, ssr::TaskId t,
                        ssr::SlotId s) override;
  void on_task_killed(const ssr::Engine& e, ssr::TaskId t,
                      ssr::SlotId s) override;
  void on_task_failed(const ssr::Engine& e, ssr::TaskId t,
                      ssr::SlotId s) override;
  void on_task_requeued(const ssr::Engine& e, ssr::TaskId t) override;
  void on_stage_invalidated(const ssr::Engine& e, ssr::StageId s) override;
  void on_slot_failed(const ssr::Engine& e, ssr::SlotId s) override;
  void on_slot_recovered(const ssr::Engine& e, ssr::SlotId s) override;
  void on_slot_reserved(const ssr::Engine& e, ssr::SlotId s,
                        const ssr::Reservation& r) override;
  void on_reservation_released(const ssr::Engine& e, ssr::SlotId s,
                               ssr::ReservationEndReason why) override;
  void on_run_complete(const ssr::Engine& e) override;

 private:
  Tracer& tracer_;
  std::vector<ssr::EngineObserver*> inner_;
};

/// Counts stage and reservation transitions for the traced run: open
/// stages (submitted or re-opened, not yet finished), reservations made,
/// and reservations that ended without a task claiming them.
class CountingObserver final : public ssr::EngineObserver {
 public:
  void on_stage_submitted(const ssr::Engine&, ssr::StageId) override {
    ++open_stages;
  }
  void on_stage_finished(const ssr::Engine&, ssr::StageId) override {
    --open_stages;
  }
  void on_stage_invalidated(const ssr::Engine&, ssr::StageId) override {
    ++open_stages;
  }
  void on_slot_reserved(const ssr::Engine&, ssr::SlotId,
                        const ssr::Reservation&) override {
    ++reservations;
  }
  void on_reservation_released(const ssr::Engine&, ssr::SlotId,
                               ssr::ReservationEndReason) override {
    ++reservations_unclaimed;
  }

  std::int64_t open_stages = 0;
  std::uint64_t reservations = 0;
  std::uint64_t reservations_unclaimed = 0;
};

}  // namespace perfbench
