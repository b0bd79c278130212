// Cluster model: nodes, compute slots, the slot state machine, reservations,
// and how much time each slot spends busy versus reserved-but-idle
// (utilization accounting).  Where stage outputs live (data locality) is the
// engine's record, StageRecord::output_slots, not the cluster's.
//
// The model corresponds to the paper's Spark deployment: each node hosts a
// fixed number of executors ("slots"); one slot runs one task at a time.  A
// slot is Idle, Busy, ReservedIdle, or Dead.  ReservedIdle is the state
// introduced by speculative slot reservation: the slot is empty but withheld
// from jobs whose priority does not exceed the reservation's.  Dead models a
// failed executor/machine (the fault-injection layer): the slot holds no
// task and no reservation, and is absent from every free-slot index until
// it recovers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/ids.h"
#include "ssr/common/resources.h"
#include "ssr/common/time.h"
#include "ssr/sim/slot_model.h"
#include "ssr/sim/slot_set.h"

namespace ssr {

/// A reservation held on a ReservedIdle slot (Algorithm 1 of the paper).
struct Reservation {
  JobId job;                         ///< Reserving job; its tasks always pass
                                     ///< the approval check.
  int priority = 0;                  ///< Inherited from the reserving job.
  SimTime deadline = kTimeInfinity;  ///< Absolute expiry (Sec. IV-B knob).
  StageId for_stage;                 ///< Downstream stage being served.
  std::uint64_t token = 0;           ///< Generation counter; expiry events
                                     ///< validate it before releasing.
};

/// One compute slot (a Spark executor).  State transitions are performed by
/// Cluster so that time accounting and the free-slot indexes stay coherent.
class Slot {
 public:
  Slot(SlotId id, NodeId node, Resources capacity = {})
      : id_(id), node_(node), capacity_(capacity) {}

  SlotId id() const { return id_; }
  NodeId node() const { return node_; }
  SlotState state() const { return state_; }

  /// Resource capacity (Sec. III-C); homogeneous {1, 1} by default.
  const Resources& capacity() const { return capacity_; }

  const std::optional<Reservation>& reservation() const { return reservation_; }
  const std::optional<TaskId>& running_task() const { return running_task_; }

  double busy_time() const { return busy_time_; }
  double reserved_idle_time() const { return reserved_idle_time_; }
  double dead_time() const { return dead_time_; }

 private:
  friend class Cluster;

  SlotId id_;
  NodeId node_;
  Resources capacity_;
  SlotState state_ = SlotState::Idle;
  std::optional<Reservation> reservation_;
  std::optional<TaskId> running_task_;

  SimTime state_since_ = kTimeZero;
  double busy_time_ = 0.0;
  double reserved_idle_time_ = 0.0;
  double dead_time_ = 0.0;
};

/// The whole cluster.  Owns all slots, performs state transitions, maintains
/// deterministic (id-ordered) indexes of idle and reserved-idle slots, and
/// accumulates utilization statistics per slot and per reserving job.
class Cluster {
 public:
  /// Homogeneous cluster: every slot has capacity {1, 1}.
  Cluster(std::uint32_t num_nodes, std::uint32_t slots_per_node);

  /// Heterogeneous cluster: node_slots[i] lists the capacities of node i's
  /// slots (Sec. III-C scenarios, e.g. big-memory slots on some nodes).
  explicit Cluster(const std::vector<std::vector<Resources>>& node_slots);

  std::uint32_t num_nodes() const { return num_nodes_; }
  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  const Slot& slot(SlotId id) const { return slots_.at(id.v); }

  /// The slots hosted on `node`, in ascending id order (fixed at
  /// construction); node-level failure iterates this.
  const std::vector<SlotId>& slots_of_node(NodeId node) const {
    return slots_of_node_.at(node.v);
  }

  /// Slots currently Idle (unreserved), iterated in id order for
  /// determinism.  Copy the set (a copy of its words) to walk a snapshot
  /// across calls that start tasks or reserve.
  const SlotSet& idle_slots() const { return idle_; }

  /// Slots currently ReservedIdle, iterated in id order.
  const SlotSet& reserved_idle_slots() const { return reserved_idle_; }

  // --- Incremental scheduler indexes --------------------------------------
  // Maintained on every state transition so the scheduling hot path never
  // rescans all slots.  Each index preserves id-ordered iteration, keeping
  // placement decisions bit-identical with the full-scan formulation.

  /// ReservedIdle slots whose reservation belongs to `job`, sorted by id.
  /// (The id-ordered subsequence of reserved_idle_slots() with that job.)
  /// The reference is invalidated by the first reservation of a job not
  /// seen before, which grows the per-job table, and the vector changes
  /// whenever one of the job's reservations is made, claimed, released,
  /// expires or fails.  Copy it, or finish iterating it, before any call
  /// that can change a reservation — starting a task, reserving, releasing.
  const std::vector<SlotId>& reserved_idle_slots_of(JobId job) const;

  /// ReservedIdle slots bucketed by reservation priority, each bucket a
  /// SlotSet.  Lets priority-aware policies enumerate only the buckets a
  /// requester could override instead of scanning every reservation.  A
  /// bucket persists, possibly empty, once its priority has been reserved
  /// at; there are only a few distinct priorities.
  const std::map<int, SlotSet>& reserved_idle_by_priority() const {
    return reserved_idle_by_priority_;
  }

  /// True if at least one slot's capacity covers `demand`.  O(#distinct
  /// capacity classes) — slot capacities are fixed at construction, so the
  /// distinct set is precomputed once (a single entry for homogeneous
  /// clusters) instead of scanning every slot per query.
  bool fits_any_slot(const Resources& demand) const;

  // --- State transitions -------------------------------------------------

  /// Idle|ReservedIdle -> Busy.  Starting a task on a reserved slot consumes
  /// the reservation (the caller's approval logic decides whether that is
  /// legal; the cluster only records the transition).
  void start_task(SlotId id, TaskId task, SimTime now);

  /// Busy -> Idle, whether the task finished, lost a straggler race, or is
  /// being drained off a failing slot.
  void end_task(SlotId id, SimTime now);

  /// Idle -> ReservedIdle.  Returns the generation token the expiry event
  /// must present to release_if_current().
  std::uint64_t reserve(SlotId id, Reservation reservation, SimTime now);

  /// ReservedIdle -> Idle (deadline expiry, job completion, override).
  void release_reservation(SlotId id, SimTime now);

  /// Releases only if the slot is still ReservedIdle under the same token.
  /// Safe to call from a stale deadline event; returns true if released.
  bool release_if_current(SlotId id, std::uint64_t token, SimTime now);

  /// Idle -> Dead (failure injection).  The caller must have drained the
  /// slot first: running tasks killed, reservations released.
  void fail_slot(SlotId id, SimTime now);

  /// Dead -> Idle.  The slot returns empty and cold (the engine dropped it
  /// from every stage's output slots when it failed).
  void recover_slot(SlotId id, SimTime now);

  // --- Accounting ---------------------------------------------------------

  /// Flush per-slot accounting up to `now` (call before reading totals).
  void settle(SimTime now);

  double total_busy_time() const;
  double total_reserved_idle_time() const;
  /// Slot-seconds spent Dead (excluded from utilization denominators by
  /// callers that account for failures).
  double total_dead_time() const;

  /// Reserved-idle seconds attributable to reservations held by `job`.
  double reserved_idle_time_of(JobId job) const;

  /// Fraction of slot-seconds spent busy over [0, now]; call settle() first.
  double utilization(SimTime now) const;

 private:
  /// What the cluster tracks per reserving job.
  struct JobReservations {
    std::vector<SlotId> slots;  ///< its ReservedIdle slots, sorted by id
    double reserved_idle_time = 0.0;  ///< seconds its reservations accrued
  };

  Slot& mutable_slot(SlotId id) { return slots_.at(id.v); }
  /// Sizes the free-slot sets and indexes every slot as Idle (construction).
  void index_all_idle();
  void accrue(Slot& s, SimTime now);
  void record_capacity(const Resources& capacity);
  void index_reservation(SlotId id, const Reservation& r);
  void unindex_reservation(SlotId id, const Reservation& r);

  /// Position of `job` in the dense per-job table.  Engine jobs count up
  /// from 0, while hooks that hold class-wide carve-outs reserve under
  /// sentinel ids counting down from 2^32 - 1 (TableDrivenHook::kTableJob);
  /// interleaving the two ends keeps both dense.
  static std::size_t job_index(JobId job) {
    return job.v < 0x80000000u ? 2 * std::size_t{job.v}
                               : 2 * std::size_t{~job.v} + 1;
  }

  std::uint32_t num_nodes_;
  std::vector<Slot> slots_;
  /// Per-node slot lists (ascending id), fixed at construction.
  std::vector<std::vector<SlotId>> slots_of_node_;
  SlotSet idle_;
  SlotSet reserved_idle_;
  /// Secondary views of reserved_idle_, by reserving job (job_index) and by
  /// priority.  Entries are emptied, never erased, so a transition
  /// allocates only when a job's list outgrows its capacity.
  std::vector<JobReservations> by_job_;
  std::map<int, SlotSet> reserved_idle_by_priority_;
  /// Distinct slot capacities (fixed at construction).
  std::vector<Resources> distinct_capacities_;
  std::uint64_t next_token_ = 1;
};

}  // namespace ssr
