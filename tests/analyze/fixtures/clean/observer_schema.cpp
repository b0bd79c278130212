// Clean counterpart: the stream overrides every observer callback, each
// with its own TraceEventKind, and the replay auditor handles every kind.
// Expected: ssr-analyze reports nothing.

namespace fixture {

enum class TraceEventKind { kStarted = 1, kFinished = 2 };

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_started(int id) {}
  virtual void on_finished(int id) {}
};

class TraceStream : public EngineObserver {
 public:
  void on_started(int id) override {
    emit(TraceEventKind::kStarted, id);
  }
  void on_finished(int id) override {
    emit(TraceEventKind::kFinished, id);
  }

 private:
  void emit(TraceEventKind kind, int id);
};

class ReplayAuditor {
 public:
  void on_trace_event(TraceEventKind kind) {
    if (kind == TraceEventKind::kStarted) {
      seen_++;
    } else if (kind == TraceEventKind::kFinished) {
      seen_--;
    }
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
