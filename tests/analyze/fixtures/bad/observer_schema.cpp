// Seeded bugs in a miniature observer/stream tree: EngineObserver declares
// four callbacks, but the stream (a) never overrides on_finished, (b) its
// on_failed override emits no TraceEventKind, and (c) its on_killed override
// reuses on_started's kind; the replay auditor never handles kFinished.
// Expected: ssr-analyze flags [observer-schema] at least three times.

namespace fixture {

enum class TraceEventKind { kStarted = 1, kFinished = 2, kKilled = 3, kFailed = 4 };

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_started(int id) {}
  virtual void on_finished(int id) {}
  virtual void on_killed(int id) {}
  virtual void on_failed(int id) {}
};

class TraceStream : public EngineObserver {
 public:
  void on_started(int id) override { emit(TraceEventKind::kStarted, id); }
  void on_killed(int id) override {
    emit(TraceEventKind::kStarted, id);  // BAD: indistinguishable from a start
  }
  void on_failed(int id) override {
    last_ = id;  // BAD: no TraceEventKind emitted; the event is dropped
  }
  // BAD: on_finished has no override at all.

 private:
  void emit(TraceEventKind kind, int id);
  int last_ = 0;
};

class ReplayAuditor {
 public:
  void on_trace_event(TraceEventKind kind) {
    if (kind == TraceEventKind::kStarted || kind == TraceEventKind::kKilled ||
        kind == TraceEventKind::kFailed) {
      seen_++;
    }
    // BAD: kFinished never handled; the invariant audit skips its transition.
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
