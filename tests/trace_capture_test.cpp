// Record/replay backbone for the trace-capture subsystem.
//
// The contract under test (metrics/trace_capture.h, exp/trace_replay.h):
// a capture of a run's observer stream is *sufficient* to re-drive every
// consumer-side chain without an Engine — the RunResult/digest pipeline, the
// ReplayAuditor invariant audit, the Chrome-trace export — and the
// reconstruction is bit-identical, not approximately equal.  The live run
// feeds the same consumers through a TraceFanOut, and ScenarioHarness checks
// the live fold against the Engine's own accounting, so a replayed digest
// equal to the live one is pinned to the engine.  The suite pins that in
// five layers:
//
//  * 100 seeded random round-trips (70 closed trials mixing reservation
//    policies, node-failure schedules and heartbeat-detector configs; 30
//    open-arrival multi-tenant trials) where the replayed digest must equal
//    the live digest byte for byte and the replayed audit must stay clean;
//  * the four committed golden scenarios, whose replayed digests must equal
//    the *committed* golden files — a capture is as authoritative as the
//    simulation that produced it;
//  * a committed binary fixture (tests/golden/failure_recovery.trace) that
//    re-recording must reproduce byte for byte and replaying must re-certify
//    against its committed digest — the replay_verify ctests lean on this;
//  * rejection of corrupt, truncated, version-skewed and trailing-garbage
//    inputs, and of well-formed streams no run could produce, with errors
//    naming the defect;
//  * seeded mutations of two real captures, each accepted or refused with
//    a CheckError by the parser and by the consumers it feeds.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.h"
#include "run_digest.h"
#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/common/check.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/open_scenario.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/metrics/trace_export.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

// Deterministic per-trial parameter derivation (lint forbids unseeded RNG).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string digest_of(const std::string& title, const RunResult& run) {
  std::ostringstream out;
  append_run(out, title, run);
  return out.str();
}

std::string temp_capture_path(const std::string& tag) {
  return testing::TempDir() + "ssr_capture_" + tag + ".trace";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Replay a capture through the RunResult builder and the invariant
/// auditor; a capture of a clean run must replay clean.
RunResult replay_clean(const std::string& path) {
  const TraceReplayer replayer = TraceReplayer::from_file(path);
  ReplayResultBuilder builder;
  audit::ReplayAuditor auditor;
  replayer.replay({&builder, &auditor});
  EXPECT_TRUE(auditor.clean()) << "replayed audit tripped on " << path;
  EXPECT_TRUE(builder.complete()) << "capture never reached run-complete";
  return builder.result();
}

// --- 100 seeded random round-trips ------------------------------------------

struct ClosedTrial {
  ClusterSpec cluster;
  TraceGenConfig bg;
  std::uint32_t fg_parallelism = 4;
  RunOptions options;
};

ClosedTrial derive_closed_trial(std::uint64_t trial) {
  std::uint64_t s = 0x7ace5eedull ^ (trial * 0xc2b2ull);
  ClosedTrial t;
  t.cluster.nodes = 2 + static_cast<std::uint32_t>(splitmix64(s) % 7);
  t.cluster.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  t.bg.num_jobs = 3 + static_cast<std::uint32_t>(splitmix64(s) % 5);
  t.bg.window = 60.0 + static_cast<double>(splitmix64(s) % 4) * 30.0;
  t.bg.large_job_max_tasks = 20;
  t.bg.seed = 17 + trial * 101;
  t.fg_parallelism = 4 + static_cast<std::uint32_t>(splitmix64(s) % 5);
  t.options.seed = 1 + trial;
  t.options.metrics_policy = "trial" + std::to_string(trial);

  // Policy mix: baseline, strict SSR, deadline SSR (expiry machinery and the
  // counts_expired header bit live), SSR with straggler copies.
  switch (splitmix64(s) % 4) {
    case 0:
      break;
    case 1:
      t.options.ssr = SsrConfig{};
      t.options.ssr->min_reserving_priority = 1;
      break;
    case 2:
      t.options.ssr = SsrConfig{};
      t.options.ssr->min_reserving_priority = 1;
      t.options.ssr->isolation_p = 0.4;
      break;
    default:
      t.options.ssr = SsrConfig{};
      t.options.ssr->min_reserving_priority = 1;
      t.options.ssr->enable_straggler_mitigation = true;
      break;
  }

  // ~60% of trials inject a seeded node-failure schedule.
  if (splitmix64(s) % 5 < 3) {
    RandomFailureConfig f;
    f.num_nodes = t.cluster.nodes;
    f.horizon = t.bg.window * 1.5;
    f.failures = 1 + static_cast<std::uint32_t>(splitmix64(s) % 3);
    f.min_downtime = 2.0;
    f.max_downtime = 25.0;
    f.permanent_fraction = static_cast<double>(splitmix64(s) % 3) * 0.15;
    f.seed = 0xfa11 + trial;
    t.options.failures = make_random_node_failures(f);
  }

  // ~1/3 of trials run the heartbeat detector, half of those with a lossy
  // channel (false suspicions reach the capture header).
  if (splitmix64(s) % 3 == 0) {
    t.options.detector.heartbeat_period = 2.0 +
        static_cast<double>(splitmix64(s) % 3);
    t.options.detector.timeout_beats =
        2 + static_cast<std::uint32_t>(splitmix64(s) % 2);
    t.options.detector.heartbeat_loss =
        (splitmix64(s) % 2 == 0) ? 0.05 : 0.0;
    t.options.detector.seed = 0xbea7 + trial;
  }
  return t;
}

TEST(TraceCapture, SeventyRandomClosedRunsRoundTripBitIdentically) {
  constexpr std::uint64_t kTrials = 70;
  std::uint64_t with_failures = 0, with_detector = 0, with_expiry = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    ClosedTrial t = derive_closed_trial(trial);
    SCOPED_TRACE("closed trial " + std::to_string(trial));
    const std::string path = temp_capture_path("closed" + std::to_string(trial));
    t.options.capture_path = path;

    std::vector<JobSpec> jobs = make_background_jobs(t.bg);
    jobs.push_back(make_kmeans(t.fg_parallelism, 10, t.bg.window * 0.25));
    const RunResult live =
        run_scenario(t.cluster, std::move(jobs), t.options);
    const RunResult replayed = replay_clean(path);

    // Byte-for-byte digest equality: every hexfloat accumulator, every
    // counter, the recovery block, the detector line.
    EXPECT_EQ(digest_of("trial", live), digest_of("trial", replayed));

    with_failures += live.recovery.slots_failed > 0 ? 1 : 0;
    with_detector += live.suspicions > 0 ? 1 : 0;
    with_expiry += live.reservations_expired > 0 ? 1 : 0;
    std::remove(path.c_str());
  }
  // The sweep must exercise the paths whose reconstruction it claims to pin.
  EXPECT_GT(with_failures, 10u);
  EXPECT_GT(with_detector, 3u);
  EXPECT_GT(with_expiry, 3u);
}

struct OpenTrial {
  ClusterSpec cluster;
  OpenScenarioSpec spec;
  std::vector<OpenTenantProfile> profiles;
  std::uint64_t arrival_seed = 1;
  RunOptions options;
};

OpenTrial derive_open_trial(std::uint64_t trial) {
  std::uint64_t s = 0x09e27ace5ull ^ (trial * 0x51dull);
  OpenTrial t;
  t.cluster.nodes = 3 + static_cast<std::uint32_t>(splitmix64(s) % 5);
  t.cluster.slots_per_node = 1 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  const std::uint32_t total = t.cluster.total_slots();

  const std::uint32_t num_tenants =
      2 + static_cast<std::uint32_t>(splitmix64(s) % 2);
  double expected_span = 0.0;
  for (std::uint32_t ti = 0; ti < num_tenants; ++ti) {
    VirtualClusterSpec vc;
    vc.name = "t" + std::to_string(ti);
    vc.min_slots = static_cast<std::uint32_t>(splitmix64(s) % 2);
    vc.max_slots = 2 + static_cast<std::uint32_t>(splitmix64(s) % total);
    vc.queue_when_full = (splitmix64(s) % 4) != 0;
    t.spec.tenants.push_back(vc);

    OpenTenantProfile prof;
    prof.tenant = vc.name;
    prof.mean_interarrival = 8.0 + static_cast<double>(splitmix64(s) % 4) * 6.0;
    prof.num_jobs = 3 + static_cast<std::uint32_t>(splitmix64(s) % 4);
    prof.min_parallelism = 2;
    prof.max_parallelism = 2 + static_cast<std::uint32_t>(splitmix64(s) % 4);
    prof.priority = static_cast<int>(splitmix64(s) % 3) * 5;
    t.profiles.push_back(prof);
    expected_span = std::max(expected_span, prof.mean_interarrival *
                                                static_cast<double>(prof.num_jobs));
  }

  t.options.seed = 0x10001 + trial;
  t.arrival_seed = 0x20002 + trial * 7;
  if (splitmix64(s) % 2 == 0) {
    t.options.ssr = SsrConfig{};
    t.options.ssr->min_reserving_priority = 1;
  }
  if (splitmix64(s) % 2 == 0) {
    RandomFailureConfig f;
    f.num_nodes = t.cluster.nodes;
    f.horizon = expected_span * 1.5;
    f.failures = 1 + static_cast<std::uint32_t>(splitmix64(s) % 3);
    f.min_downtime = 2.0;
    f.max_downtime = 20.0;
    f.seed = 0x0fa11 + trial * 3;
    t.options.failures = make_random_node_failures(f);
  }
  return t;
}

TEST(TraceCapture, ThirtyRandomOpenArrivalRunsRoundTripBitIdentically) {
  constexpr std::uint64_t kTrials = 30;
  std::uint64_t tenanted_events = 0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    OpenTrial t = derive_open_trial(trial);
    SCOPED_TRACE("open trial " + std::to_string(trial));
    const std::string path = temp_capture_path("open" + std::to_string(trial));
    t.options.capture_path = path;

    const RunResult live = run_open_scenario(
        t.cluster, t.spec, make_open_arrivals(t.profiles, t.arrival_seed),
        t.options);
    const RunResult replayed = replay_clean(path);
    EXPECT_EQ(digest_of("open", live), digest_of("open", replayed));

    // The capture carries the tenant of every admitted job (the replayed
    // Chrome export's per-tenant tracks depend on it).
    for (const TraceEvent& e :
         decode_events(TraceReplayer::from_file(path))) {
      if (e.kind == TraceEventKind::kJobSubmitted && !e.tenant.empty()) {
        ++tenanted_events;
      }
    }
    std::remove(path.c_str());
  }
  EXPECT_GT(tenanted_events, 100u);
}

// --- Golden scenarios replay to their committed digests ----------------------

TEST(TraceCapture, GoldenScenarioCapturesReplayToCommittedDigests) {
  for (GoldenScenario& scenario : golden_scenarios()) {
    SCOPED_TRACE(scenario.name);
    std::ostringstream replayed_digest;
    for (GoldenPass& pass : scenario.passes) {
      RunOptions options = pass.options;
      const std::string path =
          temp_capture_path(scenario.name + "_" + std::to_string(&pass - scenario.passes.data()));
      options.capture_path = path;
      run_scenario(scenario.cluster, std::move(pass.jobs), options);
      append_run(replayed_digest, pass.title, replay_clean(path));
      std::remove(path.c_str());
    }
    // Read-only comparison against the committed file: this suite never
    // regenerates digests (golden_replay_test owns that).
    const std::optional<std::string> committed = read_golden(scenario.file);
    ASSERT_TRUE(committed.has_value()) << "missing golden " << scenario.file;
    EXPECT_EQ(*committed, replayed_digest.str())
        << "replayed capture diverged from committed digest "
        << scenario.file;
  }
}

// --- Committed binary fixture ------------------------------------------------

TEST(TraceCapture, CommittedFixtureIsReproducedAndReplaysToCommittedGolden) {
  GoldenScenario s = failure_recovery_scenario();
  ASSERT_EQ(s.passes.size(), 1u);
  GoldenPass& pass = s.passes.front();
  RunOptions options = pass.options;
  const std::string tmp = temp_capture_path("fixture");
  options.capture_path = tmp;
  run_scenario(s.cluster, std::move(pass.jobs), options);
  const std::string fresh = slurp(tmp);
  std::remove(tmp.c_str());

  const std::string fixture =
      std::string(SSR_GOLDEN_DIR) + "/failure_recovery.trace";
  if (std::getenv("SSR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(fixture, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << fixture;
    out << fresh;
    GTEST_SKIP() << "regenerated " << fixture;
  }

  // Re-recording the scenario must reproduce the committed bytes exactly —
  // the capture format has no timestamps, hashes or other nondeterminism
  // beyond the simulation itself.
  std::ifstream in(fixture, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing fixture " << fixture
      << " — regenerate with SSR_UPDATE_GOLDEN=1 ./tests/trace_capture_test";
  std::ostringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), fresh);

  // Replaying the *committed* fixture re-certifies the committed digest
  // without re-simulating (what the replay-verify CI step does).
  const RunResult replayed = replay_clean(fixture);
  const std::optional<std::string> golden = read_golden(s.file);
  ASSERT_TRUE(golden.has_value());
  EXPECT_EQ(*golden, digest_of(pass.title, replayed));
}

// --- Chrome-trace export from a capture --------------------------------------

TEST(TraceCapture, ReplayFeedsChromeTraceExportWithTenantTracks) {
  OpenTrial t = derive_open_trial(3);
  const std::string path = temp_capture_path("export");
  t.options.capture_path = path;
  run_open_scenario(t.cluster, t.spec,
                    make_open_arrivals(t.profiles, t.arrival_seed), t.options);

  TraceExporter exporter;
  TraceReplayer::from_file(path).replay({&exporter});
  std::remove(path.c_str());

  EXPECT_GT(exporter.event_count(), 0u);
  // Track 0 is the untenanted default; every tenant with admitted work gets
  // its own process track, named from the captured tenant labels.
  ASSERT_GE(exporter.tracks().size(), 2u);
  EXPECT_EQ(exporter.tracks().front(), "cluster");
  bool saw_tenant_track = false;
  for (const std::string& track : exporter.tracks()) {
    if (track.rfind("t", 0) == 0) saw_tenant_track = true;
  }
  EXPECT_TRUE(saw_tenant_track) << "no per-tenant track in replayed export";

  std::ostringstream json;
  exporter.write_json(json);
  EXPECT_NE(json.str().find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceCapture, RecorderOnAVirtualClusterEngineRecordsEachJobsTenant) {
  // No harness: the tenant travels on the admitted JobSpec, and a job
  // submitted around the manager stays untenanted.
  Engine engine(SchedConfig{}, /*num_nodes=*/2, /*slots_per_node=*/2,
                /*seed=*/1);
  VirtualClusterManager vcm(engine);
  vcm.add_cluster({.name = "gold", .min_slots = 2, .max_slots = 4});
  vcm.add_cluster({.name = "silver", .min_slots = 1, .max_slots = 4});
  TraceRecorder recorder(2, engine.cluster().num_slots(), 1, "run",
                         /*counts_expired=*/false);
  engine.add_observer(&recorder);
  vcm.submit_job("gold", JobBuilder("g").stage(1, fixed_duration(1.0)).build());
  vcm.submit_job("silver",
                 JobBuilder("s").stage(1, fixed_duration(1.0)).build());
  engine.submit(JobBuilder("plain").stage(1, fixed_duration(1.0)).build());
  engine.drain();

  std::vector<std::string> tenants;
  for (const TraceEvent& e :
       decode_events(TraceReplayer::from_bytes(recorder.serialize()))) {
    if (e.kind == TraceEventKind::kJobSubmitted) tenants.push_back(e.tenant);
  }
  EXPECT_EQ(tenants, (std::vector<std::string>{"gold", "silver", ""}));
}

/// Keeps a copy of every event it is fed.
struct CollectingConsumer : TraceConsumer {
  std::vector<TraceEvent> seen;
  void on_trace_event(const TraceEvent& e) override { seen.push_back(e); }
};

TEST(TraceCapture, ReplayedEventsEqualTheSerializedOnes) {
  // Replay decodes every event into one reused object.  Each event a
  // consumer sees must still equal the one serialized, with the fields its
  // kind does not carry at their defaults, not left over from the event
  // before.  One event of every kind, each payload away from its defaults,
  // then the same events in reverse order.
  std::vector<TraceEvent> events(15);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].kind = static_cast<TraceEventKind>(i + 1);
    events[i].time = 1.5 * static_cast<double>(i);
  }
  const JobId job{3};
  const StageId stage{job, 2};
  const TaskId task{stage, 5, 1};
  events[0].job = job;
  events[0].priority = 7;
  events[0].job_name = "a job name longer than the small-string buffer";
  events[0].tenant = "gold";
  events[1].job = job;
  events[2].stage = stage;
  events[2].parents = {0, 1};
  events[3].stage = stage;
  for (std::size_t i = 4; i <= 7; ++i) {  // started, finished, killed, failed
    events[i].task = task;
    events[i].slot = SlotId{9};
  }
  events[4].local = true;
  events[8].task = task;
  events[9].stage = stage;
  events[10].slot = SlotId{4};
  events[11].slot = SlotId{4};
  events[12].slot = SlotId{6};
  events[12].job = job;
  events[12].priority = 7;
  events[12].deadline = 40.0;
  events[12].for_stage = StageId{job, 3};
  events[12].token = 77;
  events[13].slot = SlotId{6};
  events[13].reason = ReservationEndReason::Expired;
  const std::vector<TraceEvent> forward = events;
  events.insert(events.end(), forward.rbegin(), forward.rend());

  const TraceReplayer replayer =
      TraceReplayer::from_bytes(serialize_trace(TraceHeader{}, events));
  CollectingConsumer replayed;
  replayer.replay({&replayed});
  EXPECT_TRUE(replayed.seen == events);
  EXPECT_TRUE(decode_events(replayer) == events);
  EXPECT_EQ(replayer.events().size(), events.size());
}

TEST(TraceCapture, LiveAndReplayedChromeExportsOfAFaultedRunAreEqual) {
  // Two single-slot nodes, one job of two 10 s tasks, node 0 down over
  // [4, 20): the attempt on slot 0 dies at t=4 and re-runs on slot 1.  The
  // live export (the stream fanned out to an exporter) and the export
  // replayed from the capture must be byte-identical — both show the dead
  // attempt as a killed 4 s slice.
  const ClusterSpec cluster{.nodes = 2, .slots_per_node = 1};
  RunOptions options;
  options.seed = 1;
  options.failures.events.push_back(
      FailureEvent{FailureEvent::Scope::Node, 0, 4.0, 20.0});
  const std::string path = temp_capture_path("faulted_export");
  options.capture_path = path;

  ScenarioHarness harness(cluster, options);
  TraceFanOut stream;
  TraceExporter live;
  stream.attach(live);
  harness.engine().add_observer(&stream);
  const JobId job = harness.engine().submit(
      JobBuilder("job").stage(2, fixed_duration(10.0)).build());
  harness.engine().run();
  EXPECT_EQ(harness.collect({job}).recovery.tasks_failed, 1u);

  TraceExporter replayed;
  TraceReplayer::from_file(path).replay({&replayed});
  std::remove(path.c_str());

  std::ostringstream live_json;
  std::ostringstream replayed_json;
  live.write_json(live_json);
  replayed.write_json(replayed_json);
  EXPECT_EQ(live_json.str(), replayed_json.str());
  EXPECT_NE(live_json.str().find("\"ts\":0,\"dur\":4000"), std::string::npos)
      << live_json.str();
  EXPECT_NE(live_json.str().find("\"killed\":true"), std::string::npos)
      << live_json.str();
}

// --- Malformed-input rejection -----------------------------------------------

/// A small but non-trivial capture, recorded once and reused (string copy per
/// call keeps the cached original pristine).
const std::string& small_capture() {
  static const std::string bytes = [] {
    ClosedTrial t = derive_closed_trial(1);
    // ctest runs each rejection case in its own process, in parallel: name
    // the file after the recording test so no two processes share it.
    const std::string path = temp_capture_path(
        std::string("reject_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    t.options.capture_path = path;
    std::vector<JobSpec> jobs = make_background_jobs(t.bg);
    run_scenario(t.cluster, std::move(jobs), t.options);
    std::string b = slurp(path);
    std::remove(path.c_str());
    return b;
  }();
  return bytes;
}

void expect_rejected(const std::string& bytes, const std::string& needle) {
  try {
    TraceReplayer::from_bytes(bytes);
    FAIL() << "malformed trace accepted; expected an error mentioning '"
           << needle << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "rejection message names the wrong defect: " << e.what();
  }
}

TEST(TraceCaptureRejection, ValidCaptureParses) {
  const TraceReplayer r = TraceReplayer::from_bytes(small_capture());
  EXPECT_EQ(r.header().version, kTraceVersion);
  const std::vector<TraceEvent> events = decode_events(r);
  EXPECT_GT(events.size(), 0u);
  EXPECT_EQ(r.events().size(), events.size());
  EXPECT_EQ(events.back().kind, TraceEventKind::kRunComplete);
}

TEST(TraceCaptureRejection, TooShortInput) {
  expect_rejected(small_capture().substr(0, 10), "too short");
  expect_rejected("", "too short");
}

TEST(TraceCaptureRejection, BadMagic) {
  std::string bytes = small_capture();
  bytes[0] ^= 0xff;
  expect_rejected(bytes, "bad magic");
}

TEST(TraceCaptureRejection, VersionMismatchReportedBeforeChecksum) {
  std::string bytes = small_capture();
  // Version u32 sits immediately after the 8-byte magic; bumping it without
  // fixing the checksum must still report *version skew*, not corruption.
  bytes[8] = static_cast<char>(kTraceVersion + 1);
  expect_rejected(bytes, "version mismatch");
}

TEST(TraceCaptureRejection, FlippedByteFailsChecksum) {
  std::string bytes = small_capture();
  bytes[bytes.size() / 2] ^= 0x01;
  expect_rejected(bytes, "checksum mismatch");
}

TEST(TraceCaptureRejection, TruncationFailsChecksum) {
  const std::string& bytes = small_capture();
  expect_rejected(bytes.substr(0, bytes.size() - 5), "checksum mismatch");
}

TEST(TraceCaptureRejection, TrailingGarbageFailsChecksum) {
  expect_rejected(small_capture() + "junk", "checksum mismatch");
}

TEST(TraceCaptureRejection, AttemptEndingOnAnotherSlotIsRejected) {
  // Well-formed bytes, impossible run: the attempt starts on slot 0 and
  // "finishes" on slot 1.  The RunResult fold must refuse it by name
  // instead of counting slot 0 busy until the run ends.
  TraceHeader header;
  header.num_nodes = 2;
  header.num_slots = 2;
  const JobId job{0};
  const StageId stage{job, 0};
  const TaskId task{stage, 0, 0};
  std::vector<TraceEvent> events(7);
  events[0].kind = TraceEventKind::kJobSubmitted;
  events[0].job = job;
  events[0].job_name = "j";
  events[1].kind = TraceEventKind::kStageSubmitted;
  events[1].stage = stage;
  events[2].kind = TraceEventKind::kTaskStarted;
  events[2].task = task;
  events[2].slot = SlotId{0};
  events[3].kind = TraceEventKind::kTaskFinished;
  events[3].time = 5.0;
  events[3].task = task;
  events[3].slot = SlotId{1};
  events[4].kind = TraceEventKind::kStageFinished;
  events[4].time = 5.0;
  events[4].stage = stage;
  events[5].kind = TraceEventKind::kJobFinished;
  events[5].time = 5.0;
  events[5].job = job;
  events[6].kind = TraceEventKind::kRunComplete;
  events[6].time = 5.0;
  const TraceReplayer replayer =
      TraceReplayer::from_bytes(serialize_trace(header, events));
  try {
    replay_run_result(replayer);
    FAIL() << "an attempt ending on a slot it never ran on was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("job0/s0/t0"), std::string::npos)
        << e.what();
  }
}

TEST(TraceCaptureRejection, SlotBeyondTheHeaderFailsTheReplayAudit) {
  // Well-formed bytes naming a slot the header does not declare.  The replay
  // audit alone must refuse it with a CheckError naming the slot, as the
  // RunResult fold does, not let a container's range error escape.
  TraceHeader header;
  header.num_nodes = 1;
  header.num_slots = 2;
  const StageId stage{JobId{0}, 0};
  std::vector<TraceEvent> events(3);
  events[0].kind = TraceEventKind::kJobSubmitted;
  events[0].job_name = "j";
  events[1].kind = TraceEventKind::kStageSubmitted;
  events[1].stage = stage;
  events[2].kind = TraceEventKind::kTaskStarted;
  events[2].task = TaskId{stage, 0, 0};
  events[2].slot = SlotId{5};
  const TraceReplayer replayer =
      TraceReplayer::from_bytes(serialize_trace(header, events));
  audit::ReplayAuditor auditor;
  try {
    replayer.replay({&auditor});
    FAIL() << "a start on a slot the header does not declare was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("slot5"), std::string::npos)
        << e.what();
  }
}

TEST(TraceCaptureRejection, EventBeforeTraceBeginFailsTheReplayAudit) {
  // A consumer fed an event before its header has no model to apply it to;
  // the misuse must be named, not read through an empty optional.
  TraceEvent start;
  start.kind = TraceEventKind::kTaskStarted;
  start.task = TaskId{StageId{JobId{0}, 0}, 0, 0};
  start.slot = SlotId{0};
  audit::ReplayAuditor auditor;
  try {
    auditor.on_trace_event(start);
    FAIL() << "an event before on_trace_begin was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("before on_trace_begin"),
              std::string::npos)
        << e.what();
  }
}

// Overwrite the little-endian integer of `width` bytes at `at`.
void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-seal an edited capture: FNV-1a 64 over the body (between the 8-byte
// magic and the 8-byte checksum), so only the edited field is wrong.
std::string resealed(std::string bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 8; i + 8 < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ull;
  }
  put_le(bytes, bytes.size() - 8, h, 8);
  return bytes;
}

// Offset of the u64 event count: an empty capture ends count, checksum.
std::size_t event_count_offset(const TraceHeader& header) {
  return serialize_trace(header, {}).size() - 16;
}

TEST(TraceCaptureRejection, EventCountBeyondTheBytesLeft) {
  // A valid checksum over a lying count must be refused before the count
  // sizes any allocation (it used to escape as bad_alloc / length_error).
  const TraceHeader header;
  const std::vector<TraceEvent> one_event(1);
  for (const std::uint64_t lie : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string bytes = serialize_trace(header, one_event);
    put_le(bytes, event_count_offset(header), lie, 8);
    expect_rejected(resealed(bytes), "events need at least 9 bytes");
  }
}

TEST(TraceCaptureRejection, ParentCountBeyondTheBytesLeft) {
  const TraceHeader header;
  std::vector<TraceEvent> events(2);  // a stage with no parents, then the end
  events[0].kind = TraceEventKind::kStageSubmitted;
  std::string bytes = serialize_trace(header, events);
  // count u64, kind u8, time f64, stage (job u32, index u32), parents u32
  const std::size_t parents_at = event_count_offset(header) + 8 + 1 + 8 + 8;
  put_le(bytes, parents_at, 0xffffffffu, 4);
  expect_rejected(resealed(bytes), "parents need at least 4 bytes");
}

TEST(TraceCaptureRejection, SlotCountBeyondTheBound) {
  // Replay consumers size a per-slot model from the header before the first
  // event, so a declared count past the bound must be refused by the parser,
  // not reach them as a multi-gigabyte allocation.  Only from_bytes runs
  // here: nothing sizes a model, at either side of the bound.
  TraceHeader header;
  header.num_nodes = 1;
  const std::vector<TraceEvent> run_complete(1);
  header.num_slots = kMaxTraceSlots;
  EXPECT_EQ(TraceReplayer::from_bytes(serialize_trace(header, run_complete))
                .header()
                .num_slots,
            kMaxTraceSlots);
  for (const std::uint32_t lie : {kMaxTraceSlots + 1, 0xffffffffu}) {
    header.num_slots = lie;
    expect_rejected(serialize_trace(header, run_complete),
                    "slots, more than the");
  }
  // The recorder refuses such a cluster, so it never writes a capture the
  // parser would refuse.
  EXPECT_THROW(TraceRecorder(1, kMaxTraceSlots + 1, 1, "run",
                             /*counts_expired=*/false),
               CheckError);
}

TEST(TraceCaptureRejection, MalformedLastEventIsRejectedUpFront) {
  // The replayer decodes events again on every replay, but it validates all
  // of them first: a defect in the last event refuses the whole capture,
  // before any consumer could act on the events ahead of it.
  std::string bytes = small_capture();
  const std::uint64_t count = TraceReplayer::from_bytes(bytes).events().size();
  // The last event is the run's end: a kind byte and the time, then the
  // checksum.
  bytes[bytes.size() - 8 - 9] = static_cast<char>(0xee);
  expect_rejected(resealed(bytes), "unknown trace event kind 238 at event " +
                                       std::to_string(count - 1));
}

TEST(TraceCaptureRejection, MissingFile) {
  try {
    TraceReplayer::from_file(testing::TempDir() + "ssr_no_such_capture.trace");
    FAIL() << "expected CheckError for a missing file";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
              std::string::npos)
        << e.what();
  }
}

// --- Seeded mutations of real captures ---------------------------------------
//
// The parser's contract on hostile bytes: from_bytes accepts or throws
// CheckError; an accepted capture replays exactly the events it counted; and
// the RunResult fold and the invariant audit each finish or throw CheckError.
// Anything else (another exception, a crash, a sanitizer report) fails.

struct CountingConsumer : TraceConsumer {
  std::uint64_t events = 0;
  void on_trace_event(const TraceEvent&) override { ++events; }
};

/// Where each event of a valid capture starts, and how long it is.
struct EventSpan {
  std::size_t at = 0;
  std::size_t size = 0;
  TraceEventKind kind = TraceEventKind::kRunComplete;
};

std::vector<EventSpan> event_spans(const std::string& capture) {
  const TraceReplayer replayer = TraceReplayer::from_bytes(capture);
  const std::string empty = serialize_trace(replayer.header(), {});
  std::size_t at = empty.size() - 8;  // events follow the count
  std::vector<EventSpan> spans;
  for (const TraceEvent& e : decode_events(replayer)) {
    const std::size_t size =
        serialize_trace(replayer.header(), {e}).size() - empty.size();
    spans.push_back({at, size, e.kind});
    at += size;
  }
  return spans;
}

/// A deterministic mutant of `clean`; `what` names the mutation.
std::string mutate(const std::string& clean,
                   const std::vector<EventSpan>& spans, std::uint64_t& rng,
                   std::string& what) {
  std::string bytes = clean;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(rng) % n);
  };
  const EventSpan& event = spans[pick(spans.size())];
  const std::size_t count_at = spans.front().at - 8;
  std::vector<EventSpan> with_length;
  for (const EventSpan& span : spans) {
    if (span.kind == TraceEventKind::kJobSubmitted ||
        span.kind == TraceEventKind::kStageSubmitted) {
      with_length.push_back(span);
    }
  }
  bool reseal = true;
  switch (pick(8)) {
    case 0: {
      const std::size_t at = pick(bytes.size());
      bytes[at] ^= static_cast<char>(1u << pick(8));
      reseal = pick(2) == 0;
      what = "bit flip at " + std::to_string(at);
      break;
    }
    case 1: {
      bytes.resize(pick(bytes.size()));
      reseal = bytes.size() >= 16 && pick(2) == 0;
      what = "truncation to " + std::to_string(bytes.size());
      break;
    }
    case 2: {
      const std::size_t at = pick(bytes.size() + 1);
      std::string inserted(1 + pick(16), '\0');
      for (char& c : inserted) c = static_cast<char>(splitmix64(rng));
      bytes.insert(at, inserted);
      reseal = pick(2) == 0;
      what = std::to_string(inserted.size()) + " bytes inserted at " +
             std::to_string(at);
      break;
    }
    case 3: {
      // The event count lies.
      const std::uint64_t n = spans.size();
      const std::uint64_t lies[] = {0, n - 1, n + 1, n * 2, ~std::uint64_t{0}};
      const std::uint64_t lie = lies[pick(5)];
      put_le(bytes, count_at, lie, 8);
      what = "event count " + std::to_string(lie);
      break;
    }
    case 4: {
      // A job's name length or a stage's parent count lies (both sit 17
      // bytes into their event: kind, time, then two u32s).
      const std::size_t at = with_length[pick(with_length.size())].at + 17;
      const std::uint64_t lies[] = {0, 1, 3, 0x7fffffffu, 0xffffffffu};
      const std::uint64_t lie = lies[pick(5)];
      put_le(bytes, at, lie, 4);
      what = "length field at " + std::to_string(at) + " = " +
             std::to_string(lie);
      break;
    }
    case 5: {
      // An id, slot or index field of an event takes a hostile value.
      const std::uint64_t lies[] = {0, 1, 0x7fffffffu, 0xfffffffeu,
                                    0xffffffffu, kMaxTraceSlots};
      const std::uint64_t lie = lies[pick(6)];
      const std::size_t at = event.at + 9 + 4 * pick((event.size - 9) / 4 + 1);
      if (at + 4 <= event.at + event.size) put_le(bytes, at, lie, 4);
      what = "field at " + std::to_string(at) + " = " + std::to_string(lie);
      break;
    }
    case 6: {
      // An event's time becomes NaN, infinite, negative or huge.
      const double lies[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -1.0,
                             1e300};
      const double lie = lies[pick(5)];
      std::uint64_t bits = 0;
      std::memcpy(&bits, &lie, sizeof(bits));
      put_le(bytes, event.at + 1, bits, 8);
      what = "time of event at " + std::to_string(event.at) + " = " +
             std::to_string(lie);
      break;
    }
    default: {
      // An event is dropped or repeated, with the count kept true: well
      // formed, but no run could produce it.
      const std::string copy = bytes.substr(event.at, event.size);
      const bool drop = pick(2) == 0;
      if (drop) {
        bytes.erase(event.at, event.size);
      } else {
        bytes.insert(event.at, copy);
      }
      put_le(bytes, count_at, drop ? spans.size() - 1 : spans.size() + 1, 8);
      what = std::string(drop ? "dropped" : "repeated") + " event at " +
             std::to_string(event.at);
      break;
    }
  }
  if (reseal) {
    bytes = resealed(std::move(bytes));
    what += ", resealed";
  }
  return bytes;
}

struct MutantTally {
  int parsed = 0;             ///< accepted by from_bytes
  int refused_on_replay = 0;  ///< then refused by the fold or the audit
};

/// Holds `bytes` to the contract above.
void hold_to_contract(const std::string& bytes, const std::string& what,
                      MutantTally& tally) {
  try {
    std::optional<TraceReplayer> replayer;
    try {
      replayer.emplace(TraceReplayer::from_bytes(bytes));
    } catch (const CheckError&) {
      return;
    }
    ++tally.parsed;
    CountingConsumer counter;
    replayer->replay({&counter});
    EXPECT_EQ(counter.events, replayer->events().size()) << what;
    bool refused = false;
    try {
      ReplayResultBuilder fold;
      replayer->replay({&fold});
      if (fold.complete()) (void)fold.result();
    } catch (const CheckError&) {
      refused = true;
    }
    try {
      audit::ReplayAuditor auditor;
      replayer->replay({&auditor});
    } catch (const CheckError&) {
      refused = true;
    }
    if (refused) ++tally.refused_on_replay;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as " << e.what();
  }
}

void expect_mutants_within_contract(const std::string& clean,
                                    std::uint64_t seed) {
  const std::vector<EventSpan> spans = event_spans(clean);
  ASSERT_GT(spans.size(), 2u);
  constexpr int kMutants = 1500;
  MutantTally tally;
  std::uint64_t rng = seed;
  for (int i = 0; i < kMutants; ++i) {
    std::string what;
    const std::string bytes = mutate(clean, spans, rng, what);
    hold_to_contract(bytes, what, tally);
  }
  // Resealed lies parse, so the consumers meet hostile streams too, and
  // their own checks refuse some.
  EXPECT_GT(tally.parsed, kMutants / 10);
  EXPECT_LT(tally.parsed, kMutants);
  EXPECT_GT(tally.refused_on_replay, 0);
}

TEST(TraceCaptureMutation, SmallCaptureMutantsStayWithinTheContract) {
  expect_mutants_within_contract(small_capture(), 0x5eed0001);
}

TEST(TraceCaptureMutation, CommittedFixtureMutantsStayWithinTheContract) {
  expect_mutants_within_contract(
      slurp(std::string(SSR_GOLDEN_DIR) + "/failure_recovery.trace"),
      0x5eed0002);
}

}  // namespace
}  // namespace ssr
