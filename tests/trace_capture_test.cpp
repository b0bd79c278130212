// Record/replay backbone for the trace-capture subsystem.
//
// The contract under test (metrics/trace_capture.h, exp/trace_replay.h):
// a capture of a run's observer stream is *sufficient* to re-drive every
// consumer-side chain without an Engine — the RunResult/digest pipeline, the
// SlotLedger invariant audit, the Chrome-trace export — and the
// reconstruction is bit-identical, not approximately equal.  The live run
// feeds the same consumers through a TraceFanOut, and ScenarioHarness checks
// the live fold against the Engine's own accounting, so a replayed digest
// equal to the live one is pinned to the engine.  The suite pins that in
// four layers:
//
//  * 100 seeded random round-trips (70 closed trials mixing reservation
//    policies, node-failure schedules and heartbeat-detector configs; 30
//    open-arrival multi-tenant trials) where the replayed digest must equal
//    the live digest byte for byte and the replayed ledger must stay clean;
//  * the four committed golden scenarios, whose replayed digests must equal
//    the *committed* golden files — a capture is as authoritative as the
//    simulation that produced it;
//  * a committed binary fixture (tests/golden/failure_recovery.trace) that
//    re-recording must reproduce byte for byte and replaying must re-certify
//    against its committed digest — the replay-verify CI step leans on this;
//  * rejection of corrupt, truncated, version-skewed and trailing-garbage
//    inputs, and of well-formed streams no run could produce, with errors
//    naming the defect.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

/// Replay a capture through the RunResult builder and the ledger auditor;
/// a capture of a clean run must replay clean.
RunResult replay_clean(const std::string& path) {
  const TraceReplayer replayer = TraceReplayer::from_file(path);
  ReplayResultBuilder builder;
  audit::ReplayAuditor auditor;
  replayer.replay({&builder, &auditor});
  EXPECT_TRUE(auditor.clean()) << "replayed ledger tripped on " << path;
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
    const TraceReplayer replayer = TraceReplayer::from_file(path);
    for (const TraceEvent& e : replayer.events()) {
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
  EXPECT_GT(r.events().size(), 0u);
  EXPECT_EQ(r.events().back().kind, TraceEventKind::kRunComplete);
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

}  // namespace
}  // namespace ssr
