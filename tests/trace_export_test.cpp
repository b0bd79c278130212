// Tests for the Chrome-tracing exporter: live feeding through a TraceFanOut,
// direct TraceEvent feeding (the replay path), per-tenant process tracks,
// and JSON hygiene (empty runs, escaping, metadata events).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "ssr/core/reservation_manager.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/metrics/trace_export.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

std::string export_json(const TraceExporter& trace) {
  std::ostringstream os;
  trace.write_json(os);
  return os.str();
}

TEST(TraceExport, RecordsEveryAttemptAsCompleteEvent) {
  Engine engine(SchedConfig{}, 1, 2, 1);
  TraceFanOut stream;
  TraceExporter trace;
  stream.attach(trace);
  engine.add_observer(&stream);
  engine.submit(JobBuilder("j")
                    .stage(2, fixed_duration(5.0))
                    .stage(2, fixed_duration(5.0))
                    .build());
  engine.run();
  EXPECT_EQ(trace.event_count(), 4u);

  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("submit j"), std::string::npos);
  EXPECT_NE(json.find("finish j"), std::string::npos);
  // 5 simulated seconds -> 5000 trace us.
  EXPECT_NE(json.find("\"dur\":5000"), std::string::npos);
}

TEST(TraceExport, MarksKilledStragglerAttempts) {
  SsrConfig cfg;
  cfg.enable_straggler_mitigation = true;
  Engine engine(SchedConfig{}, 1, 4, 1);
  engine.set_reservation_hook(std::make_unique<ReservationManager>(cfg));
  TraceFanOut stream;
  TraceExporter trace;
  stream.attach(trace);
  engine.add_observer(&stream);
  engine.submit(JobBuilder("fg")
                    .priority(10)
                    .stage(4, uniform_duration(1.0, 2.0))
                    .explicit_durations({1.0, 1.0, 60.0, 60.0})
                    .stage(4, fixed_duration(2.0))
                    .build());
  engine.run();
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_NE(os.str().find("(killed)"), std::string::npos);
  EXPECT_NE(os.str().find("\"killed\":true"), std::string::npos);
}

TEST(TraceExport, EscapesJobNames) {
  Engine engine(SchedConfig{}, 1, 1, 1);
  TraceFanOut stream;
  TraceExporter trace;
  stream.attach(trace);
  engine.add_observer(&stream);
  engine.submit(JobBuilder("we\"ird\\name")
                    .stage(1, fixed_duration(1.0))
                    .build());
  engine.run();
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_NE(os.str().find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceExport, EmptyRunWritesValidDocumentWithClusterTrack) {
  // No events at all: still a well-formed document with the default process
  // track's metadata, so a viewer opens it without complaint.
  TraceExporter trace;
  EXPECT_EQ(trace.event_count(), 0u);
  const std::string json = export_json(trace);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cluster\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  ASSERT_EQ(trace.tracks().size(), 1u);
  EXPECT_EQ(trace.tracks().front(), "cluster");
}

TraceEvent job_submitted(SimTime at, JobId job, std::string name,
                         std::string tenant) {
  TraceEvent e;
  e.kind = TraceEventKind::kJobSubmitted;
  e.time = at;
  e.job = job;
  e.job_name = std::move(name);
  e.tenant = std::move(tenant);
  return e;
}

TraceEvent task_event(TraceEventKind kind, SimTime at, TaskId task,
                      SlotId slot) {
  TraceEvent e;
  e.kind = kind;
  e.time = at;
  e.task = task;
  e.slot = slot;
  return e;
}

TEST(TraceExport, RecordCoreAssignsTenantTracks) {
  // Engine-free feeding (what a capture replay drives): tenanted attempts
  // land on per-tenant process tracks, untenanted ones on track 0, and
  // track ids are stable across repeats of the same tenant.
  TraceExporter trace;
  TaskId t0{{JobId{0}, 0}, 0, 0};
  TaskId t1{{JobId{1}, 0}, 0, 0};
  TaskId t2{{JobId{2}, 0}, 0, 0};
  trace.on_trace_event(job_submitted(0.5, JobId{0}, "a", "alpha"));
  trace.on_trace_event(job_submitted(0.5, JobId{1}, "b", "beta"));
  trace.on_trace_event(job_submitted(0.5, JobId{2}, "c", ""));
  using Kind = TraceEventKind;
  trace.on_trace_event(task_event(Kind::kTaskStarted, 1.0, t0, SlotId{0}));
  trace.on_trace_event(task_event(Kind::kTaskStarted, 1.0, t1, SlotId{1}));
  trace.on_trace_event(task_event(Kind::kTaskStarted, 2.0, t2, SlotId{2}));
  trace.on_trace_event(task_event(Kind::kTaskFinished, 4.0, t0, SlotId{0}));
  trace.on_trace_event(task_event(Kind::kTaskFinished, 5.0, t1, SlotId{1}));
  trace.on_trace_event(task_event(Kind::kTaskFailed, 6.0, t2, SlotId{2}));

  ASSERT_EQ(trace.tracks().size(), 3u);
  EXPECT_EQ(trace.tracks()[0], "cluster");
  EXPECT_EQ(trace.tracks()[1], "alpha");
  EXPECT_EQ(trace.tracks()[2], "beta");
  EXPECT_EQ(trace.event_count(), 3u);

  const std::string json = export_json(trace);
  // One process_name metadata record per track...
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  // ...attempts carry their track as the pid...
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // ...and the untenanted attempt stays on pid 0.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"killed\":true"), std::string::npos);
  EXPECT_NE(json.find("submit a"), std::string::npos);
}

TEST(TraceExport, LiveObserverUsesTenantResolver) {
  Engine engine(SchedConfig{}, 1, 2, 1);
  TraceFanOut stream;
  TraceExporter trace;
  stream.attach(trace);
  engine.add_observer(&stream);
  JobSpec metered = JobBuilder("metered").stage(1, fixed_duration(2.0)).build();
  metered.tenant = "svc";
  engine.submit(std::move(metered));
  engine.submit(JobBuilder("plain").stage(1, fixed_duration(2.0)).build());
  engine.run();

  ASSERT_EQ(trace.tracks().size(), 2u);
  EXPECT_EQ(trace.tracks()[1], "svc");
  const std::string json = export_json(trace);
  EXPECT_NE(json.find("\"name\":\"svc\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

}  // namespace
}  // namespace ssr
