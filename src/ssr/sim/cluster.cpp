#include "ssr/sim/cluster.h"

#include <algorithm>

namespace ssr {

Cluster::Cluster(std::uint32_t num_nodes, std::uint32_t slots_per_node)
    : num_nodes_(num_nodes) {
  SSR_CHECK_MSG(num_nodes > 0 && slots_per_node > 0,
                "cluster must have at least one slot");
  slots_.reserve(static_cast<std::size_t>(num_nodes) * slots_per_node);
  slots_of_node_.resize(num_nodes);
  std::uint32_t next_slot = 0;
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    for (std::uint32_t s = 0; s < slots_per_node; ++s) {
      slots_.emplace_back(SlotId{next_slot}, NodeId{n});
      record_capacity(slots_.back().capacity());
      slots_of_node_[n].push_back(SlotId{next_slot});
      ++next_slot;
    }
  }
  index_all_idle();
}

Cluster::Cluster(const std::vector<std::vector<Resources>>& node_slots)
    : num_nodes_(static_cast<std::uint32_t>(node_slots.size())) {
  SSR_CHECK_MSG(!node_slots.empty(), "cluster must have at least one node");
  slots_of_node_.resize(node_slots.size());
  std::uint32_t next_slot = 0;
  for (std::uint32_t n = 0; n < node_slots.size(); ++n) {
    SSR_CHECK_MSG(!node_slots[n].empty(), "node must have at least one slot");
    for (const Resources& cap : node_slots[n]) {
      SSR_CHECK_MSG(cap.cpu > 0.0 && cap.memory > 0.0,
                    "slot capacity must be positive");
      slots_.emplace_back(SlotId{next_slot}, NodeId{n}, cap);
      record_capacity(cap);
      slots_of_node_[n].push_back(SlotId{next_slot});
      ++next_slot;
    }
  }
  index_all_idle();
}

void Cluster::index_all_idle() {
  idle_ = SlotSet(num_slots());
  reserved_idle_ = SlotSet(num_slots());
  for (const Slot& s : slots_) idle_.insert(s.id());
}

void Cluster::record_capacity(const Resources& capacity) {
  if (std::find(distinct_capacities_.begin(), distinct_capacities_.end(),
                capacity) == distinct_capacities_.end()) {
    distinct_capacities_.push_back(capacity);
  }
}

bool Cluster::fits_any_slot(const Resources& demand) const {
  for (const Resources& cap : distinct_capacities_) {
    if (demand.fits_in(cap)) return true;
  }
  return false;
}

const std::vector<SlotId>& Cluster::reserved_idle_slots_of(JobId job) const {
  static const std::vector<SlotId> kEmpty;
  const std::size_t i = job_index(job);
  return i < by_job_.size() ? by_job_[i].slots : kEmpty;
}

void Cluster::index_reservation(SlotId id, const Reservation& r) {
  reserved_idle_.insert(id);
  const std::size_t i = job_index(r.job);
  if (i >= by_job_.size()) by_job_.resize(i + 1);
  std::vector<SlotId>& mine = by_job_[i].slots;
  mine.insert(std::lower_bound(mine.begin(), mine.end(), id), id);
  reserved_idle_by_priority_.try_emplace(r.priority, num_slots())
      .first->second.insert(id);
}

void Cluster::unindex_reservation(SlotId id, const Reservation& r) {
  reserved_idle_.erase(id);
  std::vector<SlotId>& mine = by_job_.at(job_index(r.job)).slots;
  auto job_it = std::lower_bound(mine.begin(), mine.end(), id);
  SSR_CHECK_MSG(job_it != mine.end() && *job_it == id,
                "reservation missing from the per-job index");
  mine.erase(job_it);
  auto prio_it = reserved_idle_by_priority_.find(r.priority);
  const bool bucketed = prio_it != reserved_idle_by_priority_.end() &&
                        prio_it->second.erase(id);
  SSR_CHECK_MSG(bucketed, "reservation missing from the priority index");
}

void Cluster::accrue(Slot& s, SimTime now) {
  SSR_CHECK_MSG(now >= s.state_since_, "time moved backwards");
  const double elapsed = now - s.state_since_;
  switch (s.state_) {
    case SlotState::Busy:
      s.busy_time_ += elapsed;
      break;
    case SlotState::ReservedIdle:
      s.reserved_idle_time_ += elapsed;
      by_job_[job_index(s.reservation_->job)].reserved_idle_time += elapsed;
      break;
    case SlotState::Dead:
      s.dead_time_ += elapsed;
      break;
    case SlotState::Idle:
      break;
  }
  s.state_since_ = now;
}

void Cluster::start_task(SlotId id, TaskId task, SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ != SlotState::Busy, "slot already running a task");
  accrue(s, now);
  if (s.state_ == SlotState::Idle) {
    idle_.erase(id);
  } else {
    unindex_reservation(id, *s.reservation_);
    s.reservation_.reset();
  }
  s.state_ = SlotState::Busy;
  s.running_task_ = task;
}

void Cluster::end_task(SlotId id, SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ == SlotState::Busy, "no task running on slot");
  accrue(s, now);
  s.running_task_.reset();
  s.state_ = SlotState::Idle;
  idle_.insert(id);
}

std::uint64_t Cluster::reserve(SlotId id, Reservation reservation,
                               SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ == SlotState::Idle, "only idle slots can be reserved");
  accrue(s, now);
  idle_.erase(id);
  reservation.token = next_token_++;
  s.reservation_ = reservation;
  s.state_ = SlotState::ReservedIdle;
  index_reservation(id, reservation);
  return reservation.token;
}

void Cluster::release_reservation(SlotId id, SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ == SlotState::ReservedIdle, "slot not reserved");
  accrue(s, now);
  unindex_reservation(id, *s.reservation_);
  s.reservation_.reset();
  s.state_ = SlotState::Idle;
  idle_.insert(id);
}

bool Cluster::release_if_current(SlotId id, std::uint64_t token, SimTime now) {
  Slot& s = mutable_slot(id);
  if (s.state_ != SlotState::ReservedIdle || !s.reservation_ ||
      s.reservation_->token != token) {
    return false;
  }
  release_reservation(id, now);
  return true;
}

void Cluster::fail_slot(SlotId id, SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ == SlotState::Idle,
                "only drained (idle) slots can fail; kill/release first");
  accrue(s, now);
  idle_.erase(id);
  s.state_ = SlotState::Dead;
}

void Cluster::recover_slot(SlotId id, SimTime now) {
  Slot& s = mutable_slot(id);
  SSR_CHECK_MSG(s.state_ == SlotState::Dead, "only dead slots can recover");
  accrue(s, now);
  s.state_ = SlotState::Idle;
  idle_.insert(id);
}

void Cluster::settle(SimTime now) {
  for (Slot& s : slots_) accrue(s, now);
}

double Cluster::total_busy_time() const {
  double total = 0.0;
  for (const Slot& s : slots_) total += s.busy_time_;
  return total;
}

double Cluster::total_reserved_idle_time() const {
  double total = 0.0;
  for (const Slot& s : slots_) total += s.reserved_idle_time_;
  return total;
}

double Cluster::total_dead_time() const {
  double total = 0.0;
  for (const Slot& s : slots_) total += s.dead_time_;
  return total;
}

double Cluster::reserved_idle_time_of(JobId job) const {
  const std::size_t i = job_index(job);
  return i < by_job_.size() ? by_job_[i].reserved_idle_time : 0.0;
}

double Cluster::utilization(SimTime now) const {
  if (now <= 0.0) return 0.0;
  return total_busy_time() / (now * static_cast<double>(slots_.size()));
}

}  // namespace ssr
