#include "ssr/metrics/trace_capture.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

constexpr char kMagic[8] = {'S', 'S', 'R', 'T', 'R', 'A', 'C', 'E'};
constexpr std::size_t kMagicSize = sizeof(kMagic);

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- Little-endian writers ---------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_task(std::string& out, TaskId task) {
  put_u32(out, task.stage.job.v);
  put_u32(out, task.stage.index);
  put_u32(out, task.index);
  put_u32(out, task.attempt);
}

// --- Bounds-checked reader ---------------------------------------------------

struct Cursor {
  const std::string& buf;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    SSR_CHECK_MSG(pos + n <= buf.size(),
                  "truncated trace: need " << n << " bytes at offset " << pos
                                           << ", have " << buf.size() - pos);
  }
  /// A length field must not claim more items, of at least `size` bytes
  /// each, than the bytes left can hold: checked before anything is
  /// reserved for them.
  void need_items(std::uint64_t n, std::size_t size, const char* what) const {
    SSR_CHECK_MSG(n <= (buf.size() - pos) / size,
                  "truncated trace: " << n << " " << what
                                      << " need at least " << size
                                      << " bytes each at offset " << pos
                                      << ", have " << buf.size() - pos);
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
  TaskId task() {
    TaskId t;
    t.stage.job.v = u32();
    t.stage.index = u32();
    t.index = u32();
    t.attempt = u32();
    return t;
  }
};

}  // namespace

// --- TraceStream -------------------------------------------------------------

namespace {

TraceEvent event_at(const Engine& engine, TraceEventKind kind) {
  TraceEvent e;
  e.kind = kind;
  e.time = engine.sim().now();
  return e;
}

TraceEvent task_event(const Engine& engine, TraceEventKind kind, TaskId task,
                      SlotId slot) {
  TraceEvent e = event_at(engine, kind);
  e.task = task;
  e.slot = slot;
  return e;
}

}  // namespace

void TraceStream::on_job_submitted(const Engine& engine, JobId job) {
  TraceEvent e = event_at(engine, TraceEventKind::kJobSubmitted);
  e.job = job;
  e.job_name = engine.job_name(job);
  e.priority = engine.graph(job).priority();
  if (tenant_of_) {
    const std::string* tenant = tenant_of_(job);
    if (tenant != nullptr) e.tenant = *tenant;
  }
  emit(engine, e);
}

void TraceStream::on_job_finished(const Engine& engine, JobId job) {
  TraceEvent e = event_at(engine, TraceEventKind::kJobFinished);
  e.job = job;
  emit(engine, e);
}

void TraceStream::on_stage_submitted(const Engine& engine, StageId stage) {
  TraceEvent e = event_at(engine, TraceEventKind::kStageSubmitted);
  e.stage = stage;
  e.parents = engine.graph(stage.job).stage(stage.index).parents;
  emit(engine, e);
}

void TraceStream::on_stage_finished(const Engine& engine, StageId stage) {
  TraceEvent e = event_at(engine, TraceEventKind::kStageFinished);
  e.stage = stage;
  emit(engine, e);
}

void TraceStream::on_task_started(const Engine& engine, TaskId task,
                                  SlotId slot) {
  TraceEvent e = task_event(engine, TraceEventKind::kTaskStarted, task, slot);
  // Captured so a replay reproduces local_starts without a StageRuntime.
  const StageRuntime* rt = engine.stage_runtime(task.stage);
  e.local = rt != nullptr && task.attempt == 0 &&
            task.index < rt->parallelism() && rt->original(task.index).local;
  emit(engine, e);
}

void TraceStream::on_task_finished(const Engine& engine, TaskId task,
                                   SlotId slot) {
  emit(engine,
       task_event(engine, TraceEventKind::kTaskFinished, task, slot));
}

void TraceStream::on_task_killed(const Engine& engine, TaskId task,
                                 SlotId slot) {
  emit(engine, task_event(engine, TraceEventKind::kTaskKilled, task, slot));
}

void TraceStream::on_task_failed(const Engine& engine, TaskId task,
                                 SlotId slot) {
  emit(engine, task_event(engine, TraceEventKind::kTaskFailed, task, slot));
}

void TraceStream::on_task_requeued(const Engine& engine, TaskId task) {
  TraceEvent e = event_at(engine, TraceEventKind::kTaskRequeued);
  e.task = task;
  emit(engine, e);
}

void TraceStream::on_stage_invalidated(const Engine& engine, StageId stage) {
  TraceEvent e = event_at(engine, TraceEventKind::kStageInvalidated);
  e.stage = stage;
  emit(engine, e);
}

void TraceStream::on_slot_failed(const Engine& engine, SlotId slot) {
  TraceEvent e = event_at(engine, TraceEventKind::kSlotFailed);
  e.slot = slot;
  emit(engine, e);
}

void TraceStream::on_slot_recovered(const Engine& engine, SlotId slot) {
  TraceEvent e = event_at(engine, TraceEventKind::kSlotRecovered);
  e.slot = slot;
  emit(engine, e);
}

void TraceStream::on_slot_reserved(const Engine& engine, SlotId slot,
                                   const Reservation& reservation) {
  TraceEvent e = event_at(engine, TraceEventKind::kSlotReserved);
  e.slot = slot;
  e.job = reservation.job;
  e.priority = reservation.priority;
  e.deadline = reservation.deadline;
  e.for_stage = reservation.for_stage;
  e.token = reservation.token;
  emit(engine, e);
}

void TraceStream::on_reservation_released(const Engine& engine, SlotId slot,
                                          ReservationEndReason reason) {
  TraceEvent e = event_at(engine, TraceEventKind::kReservationReleased);
  e.slot = slot;
  e.reason = reason;
  emit(engine, e);
}

void TraceStream::on_run_complete(const Engine& engine) {
  emit(engine, event_at(engine, TraceEventKind::kRunComplete));
}

// --- TraceRecorder / TraceFanOut --------------------------------------------

TraceHeader header_for(const Engine& engine) {
  TraceHeader header;
  header.num_nodes = engine.cluster().num_nodes();
  header.num_slots = engine.cluster().num_slots();
  return header;
}

TraceRecorder::TraceRecorder(std::uint32_t num_nodes, std::uint32_t num_slots,
                             std::uint64_t seed, std::string policy,
                             bool counts_expired) {
  header_.num_nodes = num_nodes;
  header_.num_slots = num_slots;
  header_.seed = seed;
  header_.policy = std::move(policy);
  header_.counts_expired = counts_expired;
}

void TraceRecorder::emit(const Engine&, const TraceEvent& event) {
  events_.push_back(event);
}

void TraceFanOut::attach(TraceConsumer& consumer) {
  consumer.on_trace_begin(header_);
  consumers_.push_back(&consumer);
}

void TraceFanOut::emit(const Engine&, const TraceEvent& event) {
  for (TraceConsumer* c : consumers_) c->on_trace_event(event);
}

// --- Serialization -----------------------------------------------------------

std::string serialize_trace(const TraceHeader& header,
                            const std::vector<TraceEvent>& events) {
  std::string body;
  body.reserve(64 + events.size() * 32);
  put_u32(body, header.version);
  put_u32(body, header.num_nodes);
  put_u32(body, header.num_slots);
  put_u64(body, header.seed);
  put_u8(body, header.counts_expired ? 1 : 0);
  put_u64(body, header.suspicions);
  put_u64(body, header.false_suspicions);
  put_str(body, header.policy);
  put_u64(body, events.size());
  for (const TraceEvent& e : events) {
    put_u8(body, static_cast<std::uint8_t>(e.kind));
    put_f64(body, e.time);
    switch (e.kind) {
      case TraceEventKind::kJobSubmitted:
        put_u32(body, e.job.v);
        put_i32(body, e.priority);
        put_str(body, e.job_name);
        put_str(body, e.tenant);
        break;
      case TraceEventKind::kJobFinished:
        put_u32(body, e.job.v);
        break;
      case TraceEventKind::kStageSubmitted:
        put_u32(body, e.stage.job.v);
        put_u32(body, e.stage.index);
        put_u32(body, static_cast<std::uint32_t>(e.parents.size()));
        for (std::uint32_t p : e.parents) put_u32(body, p);
        break;
      case TraceEventKind::kStageFinished:
      case TraceEventKind::kStageInvalidated:
        put_u32(body, e.stage.job.v);
        put_u32(body, e.stage.index);
        break;
      case TraceEventKind::kTaskStarted:
        put_task(body, e.task);
        put_u32(body, e.slot.v);
        put_u8(body, e.local ? 1 : 0);
        break;
      case TraceEventKind::kTaskFinished:
      case TraceEventKind::kTaskKilled:
      case TraceEventKind::kTaskFailed:
        put_task(body, e.task);
        put_u32(body, e.slot.v);
        break;
      case TraceEventKind::kTaskRequeued:
        put_task(body, e.task);
        break;
      case TraceEventKind::kSlotFailed:
      case TraceEventKind::kSlotRecovered:
        put_u32(body, e.slot.v);
        break;
      case TraceEventKind::kSlotReserved:
        put_u32(body, e.slot.v);
        put_u32(body, e.job.v);
        put_i32(body, e.priority);
        put_f64(body, e.deadline);
        put_u32(body, e.for_stage.job.v);
        put_u32(body, e.for_stage.index);
        put_u64(body, e.token);
        break;
      case TraceEventKind::kReservationReleased:
        put_u32(body, e.slot.v);
        put_u8(body, static_cast<std::uint8_t>(e.reason));
        break;
      case TraceEventKind::kRunComplete:
        break;
    }
  }
  std::string out;
  out.reserve(kMagicSize + body.size() + 8);
  out.append(kMagic, kMagicSize);
  out.append(body);
  put_u64(out, fnv1a(body));
  return out;
}

std::string TraceRecorder::serialize() const {
  return serialize_trace(header_, events_);
}

void TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  SSR_CHECK_MSG(out.good(), "cannot open trace file " << path
                                                      << " for writing");
  const std::string bytes = serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SSR_CHECK_MSG(out.good(), "short write to trace file " << path);
}

// --- TraceReplayer -----------------------------------------------------------

TraceReplayer TraceReplayer::from_bytes(const std::string& bytes) {
  SSR_CHECK_MSG(bytes.size() >= kMagicSize + 4 + 8,
                "truncated trace: " << bytes.size()
                                    << " bytes is too short to be an SSR "
                                       "trace");
  SSR_CHECK_MSG(std::memcmp(bytes.data(), kMagic, kMagicSize) == 0,
                "not an SSR trace (bad magic)");
  const std::string body =
      bytes.substr(kMagicSize, bytes.size() - kMagicSize - 8);
  Cursor tail{bytes, bytes.size() - 8};
  const std::uint64_t stored = tail.u64();
  // Version is validated before the checksum so a reader that is simply too
  // old/new reports the skew, not "corrupt".
  Cursor cur{body, 0};
  const std::uint32_t version = cur.u32();
  SSR_CHECK_MSG(version == kTraceVersion,
                "trace version mismatch: file has v"
                    << version << ", this reader supports v" << kTraceVersion);
  SSR_CHECK_MSG(fnv1a(body) == stored,
                "trace checksum mismatch (corrupt or truncated file)");

  TraceReplayer replayer;
  replayer.header_.version = version;
  replayer.header_.num_nodes = cur.u32();
  replayer.header_.num_slots = cur.u32();
  replayer.header_.seed = cur.u64();
  replayer.header_.counts_expired = cur.u8() != 0;
  replayer.header_.suspicions = cur.u64();
  replayer.header_.false_suspicions = cur.u64();
  replayer.header_.policy = cur.str();
  const std::uint64_t count = cur.u64();
  cur.need_items(count, 1 + 8, "events");  // kind and time
  replayer.events_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent e;
    const std::uint8_t kind = cur.u8();
    SSR_CHECK_MSG(
        kind >= static_cast<std::uint8_t>(TraceEventKind::kJobSubmitted) &&
            kind <= static_cast<std::uint8_t>(TraceEventKind::kRunComplete),
        "unknown trace event kind " << static_cast<int>(kind) << " at event "
                                    << i);
    e.kind = static_cast<TraceEventKind>(kind);
    e.time = cur.f64();
    switch (e.kind) {
      case TraceEventKind::kJobSubmitted:
        e.job.v = cur.u32();
        e.priority = cur.i32();
        e.job_name = cur.str();
        e.tenant = cur.str();
        break;
      case TraceEventKind::kJobFinished:
        e.job.v = cur.u32();
        break;
      case TraceEventKind::kStageSubmitted: {
        e.stage.job.v = cur.u32();
        e.stage.index = cur.u32();
        const std::uint32_t n = cur.u32();
        cur.need_items(n, 4, "parents");
        e.parents.reserve(n);
        for (std::uint32_t p = 0; p < n; ++p) e.parents.push_back(cur.u32());
        break;
      }
      case TraceEventKind::kStageFinished:
      case TraceEventKind::kStageInvalidated:
        e.stage.job.v = cur.u32();
        e.stage.index = cur.u32();
        break;
      case TraceEventKind::kTaskStarted:
        e.task = cur.task();
        e.slot.v = cur.u32();
        e.local = cur.u8() != 0;
        break;
      case TraceEventKind::kTaskFinished:
      case TraceEventKind::kTaskKilled:
      case TraceEventKind::kTaskFailed:
        e.task = cur.task();
        e.slot.v = cur.u32();
        break;
      case TraceEventKind::kTaskRequeued:
        e.task = cur.task();
        break;
      case TraceEventKind::kSlotFailed:
      case TraceEventKind::kSlotRecovered:
        e.slot.v = cur.u32();
        break;
      case TraceEventKind::kSlotReserved:
        e.slot.v = cur.u32();
        e.job.v = cur.u32();
        e.priority = cur.i32();
        e.deadline = cur.f64();
        e.for_stage.job.v = cur.u32();
        e.for_stage.index = cur.u32();
        e.token = cur.u64();
        break;
      case TraceEventKind::kReservationReleased: {
        e.slot.v = cur.u32();
        const std::uint8_t reason = cur.u8();
        SSR_CHECK_MSG(
            reason <= static_cast<std::uint8_t>(
                          ReservationEndReason::SlotFailed),
            "unknown reservation end reason " << static_cast<int>(reason));
        e.reason = static_cast<ReservationEndReason>(reason);
        break;
      }
      case TraceEventKind::kRunComplete:
        break;
    }
    replayer.events_.push_back(std::move(e));
  }
  SSR_CHECK_MSG(cur.pos == body.size(),
                "trace has " << body.size() - cur.pos
                             << " trailing bytes after the last event");
  return replayer;
}

TraceReplayer TraceReplayer::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SSR_CHECK_MSG(in.good(), "cannot open trace file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_bytes(buf.str());
}

void TraceReplayer::replay(const std::vector<TraceConsumer*>& consumers) const {
  for (TraceConsumer* c : consumers) c->on_trace_begin(header_);
  for (const TraceEvent& e : events_) {
    for (TraceConsumer* c : consumers) c->on_trace_event(e);
  }
}

}  // namespace ssr
