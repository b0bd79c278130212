#include "tracing.h"

#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "workload.gen",
    "exp.harness",
    "sched.submit",
    "sched.step",
    "core.on_task_finished",
    "core.on_task_killed",
    "core.on_slot_idle",
    "core.on_slot_failed",
    "core.approve",
    "core.on_stage_submitted",
    "core.on_stage_fully_placed",
    "core.on_task_started",
    "core.on_job_finished",
    "metrics.observer",
    "exp.collect",
    "metrics.serialize",
    "metrics.parse",
    "exp.replay_fold",
    "audit.replay_audit",
};

bool is_core_layer(Layer layer) {
  return layer >= kFirstCoreLayer && layer <= kLastCoreLayer;
}

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

double LayerTotals::core_s() const {
  double total = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (is_core_layer(static_cast<Layer>(i))) total += self_s[i];
  }
  return total;
}

void Tracer::pop() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const auto index = static_cast<std::size_t>(frame.layer);
  const double duration =
      std::chrono::duration<double>(end - frame.start).count();
  totals_.self_s[index] += duration - frame.child_s;
  ++totals_.calls[index];
  if (--depth_[index] == 0) totals_.inclusive_s[index] += duration;
  if (!stack_.empty()) stack_.back().child_s += duration;
}

void Tracer::reset() {
  if (!stack_.empty()) throw std::logic_error("Tracer::reset inside a span");
  totals_ = LayerTotals{};
}

// --- TracedReservationManager ----------------------------------------------

void TracedReservationManager::on_task_finished(
    ssr::Engine& engine, const ssr::TaskFinishInfo& info) {
  const Span span(tracer_, Layer::kCoreOnTaskFinished);
  ReservationManager::on_task_finished(engine, info);
}

void TracedReservationManager::on_task_killed(
    ssr::Engine& engine, const ssr::TaskFinishInfo& info) {
  const Span span(tracer_, Layer::kCoreOnTaskKilled);
  ReservationManager::on_task_killed(engine, info);
}

void TracedReservationManager::on_slot_idle(ssr::Engine& engine,
                                            ssr::SlotId slot) {
  const Span span(tracer_, Layer::kCoreOnSlotIdle);
  ReservationManager::on_slot_idle(engine, slot);
}

void TracedReservationManager::on_slot_failed(ssr::Engine& engine,
                                              ssr::SlotId slot) {
  const Span span(tracer_, Layer::kCoreOnSlotFailed);
  ReservationManager::on_slot_failed(engine, slot);
}

bool TracedReservationManager::approve(const ssr::Engine& engine,
                                       ssr::SlotId slot, ssr::JobId job,
                                       int priority) const {
  const Span span(tracer_, Layer::kCoreApprove);
  const bool accepted =
      ReservationManager::approve(engine, slot, job, priority);
  tracer_.note_approve(accepted);
  return accepted;
}

void TracedReservationManager::on_stage_submitted(ssr::Engine& engine,
                                                  ssr::StageId stage) {
  const Span span(tracer_, Layer::kCoreOnStageSubmitted);
  ReservationManager::on_stage_submitted(engine, stage);
}

void TracedReservationManager::on_stage_fully_placed(ssr::Engine& engine,
                                                     ssr::StageId stage) {
  const Span span(tracer_, Layer::kCoreOnStageFullyPlaced);
  ReservationManager::on_stage_fully_placed(engine, stage);
}

void TracedReservationManager::on_task_started(ssr::Engine& engine,
                                               ssr::TaskId task,
                                               ssr::SlotId slot) {
  const Span span(tracer_, Layer::kCoreOnTaskStarted);
  ReservationManager::on_task_started(engine, task, slot);
}

void TracedReservationManager::on_job_finished(ssr::Engine& engine,
                                               ssr::JobId job) {
  const Span span(tracer_, Layer::kCoreOnJobFinished);
  ReservationManager::on_job_finished(engine, job);
}

// --- TimedObservers ----------------------------------------------------------

#define PERFBENCH_FORWARD(call)                                   \
  do {                                                            \
    const Span span(tracer_, Layer::kMetricsObserver);            \
    for (ssr::EngineObserver* observer : inner_) observer->call;  \
  } while (false)

void TimedObservers::on_job_submitted(const ssr::Engine& e, ssr::JobId j) {
  PERFBENCH_FORWARD(on_job_submitted(e, j));
}
void TimedObservers::on_job_finished(const ssr::Engine& e, ssr::JobId j) {
  PERFBENCH_FORWARD(on_job_finished(e, j));
}
void TimedObservers::on_stage_submitted(const ssr::Engine& e,
                                        ssr::StageId s) {
  PERFBENCH_FORWARD(on_stage_submitted(e, s));
}
void TimedObservers::on_stage_finished(const ssr::Engine& e, ssr::StageId s) {
  PERFBENCH_FORWARD(on_stage_finished(e, s));
}
void TimedObservers::on_task_started(const ssr::Engine& e, ssr::TaskId t,
                                     ssr::SlotId s) {
  PERFBENCH_FORWARD(on_task_started(e, t, s));
}
void TimedObservers::on_task_finished(const ssr::Engine& e, ssr::TaskId t,
                                      ssr::SlotId s) {
  PERFBENCH_FORWARD(on_task_finished(e, t, s));
}
void TimedObservers::on_task_killed(const ssr::Engine& e, ssr::TaskId t,
                                    ssr::SlotId s) {
  PERFBENCH_FORWARD(on_task_killed(e, t, s));
}
void TimedObservers::on_task_failed(const ssr::Engine& e, ssr::TaskId t,
                                    ssr::SlotId s) {
  PERFBENCH_FORWARD(on_task_failed(e, t, s));
}
void TimedObservers::on_task_requeued(const ssr::Engine& e, ssr::TaskId t) {
  PERFBENCH_FORWARD(on_task_requeued(e, t));
}
void TimedObservers::on_stage_invalidated(const ssr::Engine& e,
                                          ssr::StageId s) {
  PERFBENCH_FORWARD(on_stage_invalidated(e, s));
}
void TimedObservers::on_slot_failed(const ssr::Engine& e, ssr::SlotId s) {
  PERFBENCH_FORWARD(on_slot_failed(e, s));
}
void TimedObservers::on_slot_recovered(const ssr::Engine& e, ssr::SlotId s) {
  PERFBENCH_FORWARD(on_slot_recovered(e, s));
}
void TimedObservers::on_slot_reserved(const ssr::Engine& e, ssr::SlotId s,
                                      const ssr::Reservation& r) {
  PERFBENCH_FORWARD(on_slot_reserved(e, s, r));
}
void TimedObservers::on_reservation_released(const ssr::Engine& e,
                                             ssr::SlotId s,
                                             ssr::ReservationEndReason why) {
  PERFBENCH_FORWARD(on_reservation_released(e, s, why));
}
void TimedObservers::on_run_complete(const ssr::Engine& e) {
  PERFBENCH_FORWARD(on_run_complete(e));
}

#undef PERFBENCH_FORWARD

}  // namespace perfbench
