#include "ssr/sim/slot_model.h"

namespace ssr {

const char* slot_state_name(SlotState state) {
  switch (state) {
    case SlotState::Idle:
      return "Idle";
    case SlotState::Busy:
      return "Busy";
    case SlotState::ReservedIdle:
      return "ReservedIdle";
    case SlotState::Dead:
      return "Dead";
  }
  return "?";
}

void SlotModel::settle(SimTime now) {
  for (Record& r : slots_) accrue(r, now);
}

double SlotModel::total_busy() const {
  double total = 0.0;
  for (const Record& r : slots_) total += r.busy;
  return total;
}

double SlotModel::total_reserved_idle() const {
  double total = 0.0;
  for (const Record& r : slots_) total += r.reserved_idle;
  return total;
}

double SlotModel::total_dead() const {
  double total = 0.0;
  for (const Record& r : slots_) total += r.dead;
  return total;
}

double SlotModel::reserved_idle_of(JobId owner) const {
  auto it = reserved_idle_by_owner_.find(owner);
  return it != reserved_idle_by_owner_.end() ? it->second : 0.0;
}

}  // namespace ssr
