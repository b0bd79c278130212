// Replayable capture of the engine's observer event stream.
//
// TraceStream is the one place EngineObserver callbacks become TraceEvent
// records: each event carries the derived context a consumer would otherwise
// pull from the live Engine — the submitting job's name/priority/tenant, the
// data-locality flag of a starting attempt, the full Reservation of a
// reserve, a stage's parent list.  Every consumer-side chain (the RunResult
// fold, the ReplayAuditor invariant audit, the Chrome-trace exporter) is a
// TraceConsumer over those records, so one implementation serves both a live
// run (TraceFanOut) and a capture re-driven from file (TraceReplayer), with
// no Engine and no re-simulation — see exp/trace_replay.h for the RunResult
// fold this enables.
//
// The on-disk format (ssr-trace v1) is a compact little-endian binary:
//
//   magic "SSRTRACE" | body | fnv1a64(body)
//   body = u32 version | header | u64 event_count | events...
//   header = u32 num_nodes | u32 num_slots | u64 seed | u8 counts_expired
//          | u64 suspicions | u64 false_suspicions | str policy
//   event = u8 kind | f64 time | kind-specific payload (fixed-width ints,
//           IEEE doubles bit-cast to u64, u32-length-prefixed strings)
//
// Doubles round-trip bit-exactly, so a replayed digest can be compared
// byte-for-byte against the committed goldens.  TraceReplayer validates
// magic, version, checksum and every event up front; corrupt, truncated or
// version-skewed files are rejected with a CheckError naming the defect
// instead of yielding garbage events.
//
// Neither side holds the run as TraceEvent records: the recorder appends each
// event's encoding to one byte buffer as it arrives, and the replayer keeps
// the validated bytes and decodes each event again on every replay.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/types.h"

namespace ssr {

/// Current on-disk format version.  Bump on any layout change; the replayer
/// refuses other versions (no silent cross-version decoding).
inline constexpr std::uint32_t kTraceVersion = 1;

/// Largest slot count a capture header may declare.  Replay consumers size a
/// per-slot model from the header before they see any event, so an
/// unchecked u32 from a file could ask for gigabytes.  2^20 is 26x the
/// largest cluster any bench runs (sched_10k: 40,000 slots) and above the
/// 400,000 slots of a 100k-node cluster.  The recorder refuses larger
/// clusters too, so every capture it writes can be read back.
inline constexpr std::uint32_t kMaxTraceSlots = std::uint32_t{1} << 20;

/// One EngineObserver callback, in capture order.  Discriminants match the
/// callback that produced the record; every on_* callback of EngineObserver
/// has exactly one kind here (the analyzer's observer-schema rule enforces
/// this).
enum class TraceEventKind : std::uint8_t {
  kJobSubmitted = 1,
  kJobFinished = 2,
  kStageSubmitted = 3,
  kStageFinished = 4,
  kTaskStarted = 5,
  kTaskFinished = 6,
  kTaskKilled = 7,
  kTaskFailed = 8,
  kTaskRequeued = 9,
  kStageInvalidated = 10,
  kSlotFailed = 11,
  kSlotRecovered = 12,
  kSlotReserved = 13,
  kReservationReleased = 14,
  kRunComplete = 15,
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRunComplete;
  SimTime time = 0.0;

  TaskId task;    ///< task-scoped kinds (stage/job implied by the id)
  StageId stage;  ///< stage-scoped kinds
  SlotId slot;    ///< slot-scoped kinds and task placements
  JobId job;      ///< job-scoped kinds; reserving job for kSlotReserved

  // kJobSubmitted context (so replay needs no JobGraph):
  std::string job_name;
  std::string tenant;  ///< empty = untenanted (closed-system run)
  /// Job priority (kJobSubmitted) / reservation priority (kSlotReserved).
  int priority = 0;

  /// kTaskStarted: the attempt launched with data locality (original
  /// attempts only; JobTaskStats::local_starts counts these).
  bool local = false;

  // kSlotReserved: the full Reservation.
  SimTime deadline = kTimeInfinity;
  StageId for_stage;
  std::uint64_t token = 0;

  // kReservationReleased:
  ReservationEndReason reason = ReservationEndReason::Released;

  /// kStageSubmitted: parent stage indexes within the job (barrier inputs).
  std::vector<std::uint32_t> parents;

  bool operator==(const TraceEvent&) const = default;
};

/// Run-level context every consumer needs before the first event.
struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::uint32_t num_nodes = 0;
  std::uint32_t num_slots = 0;
  std::uint64_t seed = 0;
  /// True iff the run's hook was a ReservationManager, whose expiry counter
  /// equals the number of Expired-reason releases; gates whether a replay
  /// may reconstruct RunResult::reservations_expired.
  bool counts_expired = false;
  /// Failure-detector outcome of the recorded run (not event-shaped; see
  /// sim/failure_detector.h).  Zero for detector-off runs.
  std::uint64_t suspicions = 0;
  std::uint64_t false_suspicions = 0;
  std::string policy;  ///< label only (e.g. "ssr", "nossr")
};

/// A header with `engine`'s cluster shape (num_nodes, num_slots) and every
/// run-level field at its default: what a live TraceFanOut needs when its
/// consumers do not read seed, policy or detector outcome.
TraceHeader header_for(const Engine& engine);

/// Consumer side of the stream: TraceFanOut drives these live and
/// TraceReplayer::replay drives them from a capture, in the same order.
class TraceConsumer {
 public:
  virtual ~TraceConsumer() = default;

  /// Fired once, before the first event.
  virtual void on_trace_begin(const TraceHeader& header) { (void)header; }
  virtual void on_trace_event(const TraceEvent& event) = 0;
};

/// The one conversion from EngineObserver callbacks to TraceEvents.  Each
/// callback fills an event (time, ids, and the derived context listed in the
/// file comment) and hands it to emit(); subclasses decide what an event is
/// for.
class TraceStream : public EngineObserver {
 public:
  void on_job_submitted(const Engine& engine, JobId job) final;
  void on_job_finished(const Engine& engine, JobId job) final;
  void on_stage_submitted(const Engine& engine, StageId stage) final;
  void on_stage_finished(const Engine& engine, StageId stage) final;
  void on_task_started(const Engine& engine, TaskId task, SlotId slot) final;
  void on_task_finished(const Engine& engine, TaskId task, SlotId slot) final;
  void on_task_killed(const Engine& engine, TaskId task, SlotId slot) final;
  void on_task_failed(const Engine& engine, TaskId task, SlotId slot) final;
  void on_task_requeued(const Engine& engine, TaskId task) final;
  void on_stage_invalidated(const Engine& engine, StageId stage) final;
  void on_slot_failed(const Engine& engine, SlotId slot) final;
  void on_slot_recovered(const Engine& engine, SlotId slot) final;
  void on_slot_reserved(const Engine& engine, SlotId slot,
                        const Reservation& reservation) final;
  void on_reservation_released(const Engine& engine, SlotId slot,
                               ReservationEndReason reason) final;
  void on_run_complete(const Engine& engine) final;

 protected:
  /// Receives every event, in callback order; `engine` is the one that
  /// fired the callback.
  virtual void emit(const Engine& engine, const TraceEvent& event) = 0;
};

/// Captures the event stream of one run for serialization.  Attach
/// alongside (not instead of) other observers; recording is passive and
/// order-preserving.  Each event is encoded as it arrives.
class TraceRecorder : public TraceStream {
 public:
  /// Throws CheckError if `num_slots` exceeds kMaxTraceSlots.
  TraceRecorder(std::uint32_t num_nodes, std::uint32_t num_slots,
                std::uint64_t seed, std::string policy, bool counts_expired);

  /// Record the detector outcome (harness calls this after the transform;
  /// suspicion counts are inputs to the run, not observer events).
  void set_detector_outcome(std::uint64_t suspicions,
                            std::uint64_t false_suspicions) {
    header_.suspicions = suspicions;
    header_.false_suspicions = false_suspicions;
  }

  const TraceHeader& header() const { return header_; }

  /// Full file image (magic + body + checksum).
  std::string serialize() const;
  /// Writes the same image piece by piece, without building it in memory.
  void write_file(const std::string& path) const;

 protected:
  void emit(const Engine& engine, const TraceEvent& event) override;

 private:
  TraceHeader header_;
  std::uint64_t count_ = 0;
  std::string events_;  ///< every event's encoding, in emit order
};

/// Drives TraceConsumers from a live engine: the live twin of
/// TraceReplayer::replay.  Consumers see each event in attach order, and all
/// of them see an event before any sees the next.
class TraceFanOut : public TraceStream {
 public:
  explicit TraceFanOut(TraceHeader header = {}) : header_(std::move(header)) {}

  /// Fires consumer.on_trace_begin(header) now; the consumer then receives
  /// every later event.  Non-owning: the consumer must outlive the run.
  void attach(TraceConsumer& consumer);

 protected:
  void emit(const Engine& engine, const TraceEvent& event) override;

 private:
  TraceHeader header_;
  std::vector<TraceConsumer*> consumers_;
};

/// Validates a whole capture up front, then re-drives consumers from its
/// bytes: each replay decodes the events afresh, one at a time.
class TraceReplayer {
 public:
  /// Both throw CheckError on unreadable, corrupt, truncated or
  /// version-mismatched input, and on a header declaring more than
  /// kMaxTraceSlots slots; a replayer exists only for a capture whose every
  /// event parsed.
  static TraceReplayer from_file(const std::string& path);
  static TraceReplayer from_bytes(std::string bytes);

  /// The capture's events, still encoded: the view counts them, and
  /// decode_events() materializes them.
  struct Events {
    std::uint64_t count = 0;
    std::uint64_t size() const { return count; }
  };

  const TraceHeader& header() const { return header_; }
  Events events() const { return {count_}; }

  /// Drive every consumer through the whole capture: one on_trace_begin,
  /// then every event in file order (all consumers see an event before any
  /// sees the next — the live engine's observer order).
  void replay(const std::vector<TraceConsumer*>& consumers) const;

 private:
  friend std::vector<TraceEvent> decode_events(const TraceReplayer& replayer);
  TraceReplayer() = default;

  std::string bytes_;  ///< the validated file image
  TraceHeader header_;
  std::uint64_t count_ = 0;
  std::size_t first_event_ = 0;  ///< offset of event 0 within the body
};

/// Every event of a capture in one vector, for tests and tools that compare
/// or search whole streams; replay never builds it.
std::vector<TraceEvent> decode_events(const TraceReplayer& replayer);

/// The file image of a header and events (testing seam; the recorder
/// encodes with the same per-event encoder).
std::string serialize_trace(const TraceHeader& header,
                            const std::vector<TraceEvent>& events);

}  // namespace ssr
