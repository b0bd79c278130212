// Open-vs-closed equivalence suite: the engine's open-system stepping API
// (submit / advance_to / drain) must be *bit-identical* to the closed batch
// API (submit everything, run()) — same event stream, same RunResult, same
// golden digests — no matter how the stepping is sliced.
//
// Why this holds (and what this suite locks): same-instant event ordering
// in the queue is (time, band, insertion seq) with kFailure < kArrival <
// kInternal.  The band reproduces the closed harness's push-order
// tie-breaking structurally, so arrival events submitted mid-run fire in
// exactly the order a batch submission would have given them, provided jobs
// enter submit() in the same sequence (JobIds and per-band seqs then
// match).  The open driver here therefore submits jobs in original vector
// order ("prefix submission": before advancing to t, every job with
// submit_time <= t — and any earlier-indexed job — is submitted), while the
// advance_to horizons themselves are drawn at random: zero-width steps,
// exact event-boundary ties, small and large strides.  Any divergence —
// one task placed differently, one reservation released in another order —
// shows up as the first differing event-log line.
//
// Coverage: the four golden-replay scenarios (asserted against the
// *committed* digests, so open mode reproduces the repo's canonical
// numbers), plus a 100-case seeded random sweep over cluster shapes, job
// mixes, policies, and failure schedules.
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.h"
#include "run_digest.h"
#include "ssr/common/check.h"
#include "ssr/common/distributions.h"
#include "ssr/common/rng.h"
#include "ssr/exp/harness.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/workload/open_arrival.h"

namespace ssr {
namespace {

// SplitMix64: derives independent per-trial parameters from a trial index
// (same idiom as the chaos suite).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct DrivenRun {
  std::string digest;
  std::vector<TraceEvent> events;
};

/// Closed reference: batch-submit and run, through the same harness wiring
/// run_scenario uses, with an event log attached.
DrivenRun drive_closed(const ClusterSpec& cluster, std::vector<JobSpec> jobs,
                       const RunOptions& options, const std::string& title) {
  ScenarioHarness harness(cluster, options);
  TraceRecorder log(cluster.nodes, cluster.total_slots(), options.seed, title,
                    /*counts_expired=*/false);
  harness.engine().add_observer(&log);
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    ids.push_back(harness.engine().submit(std::move(spec)));
  }
  harness.engine().run();
  std::ostringstream digest;
  append_run(digest, title, harness.collect(ids));
  return {digest.str(),
          decode_events(TraceReplayer::from_bytes(log.serialize()))};
}

/// Open replay: identical inputs, but driven through advance_to in
/// randomized slices with prefix submission (see the file comment).
DrivenRun drive_open(const ClusterSpec& cluster, std::vector<JobSpec> jobs,
                     const RunOptions& options, const std::string& title,
                     Rng& steps) {
  ScenarioHarness harness(cluster, options);
  Engine& engine = harness.engine();
  TraceRecorder log(cluster.nodes, cluster.total_slots(), options.seed, title,
                    /*counts_expired=*/false);
  engine.add_observer(&log);

  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  std::size_t next = 0;
  const auto submit_prefix = [&](SimTime horizon) {
    // Furthest index whose arrival lies within the horizon; everything
    // before it must enter first to keep JobIds and arrival seqs aligned
    // with the closed batch (the vector need not be sorted by time).
    std::size_t hi = next;
    for (std::size_t i = next; i < jobs.size(); ++i) {
      if (jobs[i].submit_time <= horizon) hi = i + 1;
    }
    while (next < hi) {
      ids.push_back(engine.submit(std::move(jobs[next])));
      ++next;
    }
  };

  while (next < jobs.size() || engine.sim().pending_events() > 0) {
    SimTime horizon = engine.now();
    switch (steps.uniform_int(0, 4)) {
      case 0:
        break;  // zero-width step: advance_to(now) must be a no-op
      case 1: {
        // Land exactly on the next event: every same-instant tie at the
        // boundary must fire, in band order.
        const SimTime at = engine.sim().next_event_time();
        if (at < kTimeInfinity) {
          horizon = at;
        } else if (next < jobs.size()) {
          horizon = std::max(horizon, jobs[next].submit_time);
        }
        break;
      }
      case 2:
        horizon += steps.exponential_mean(2.0);  // fine-grained stepping
        break;
      case 3:
        horizon += steps.exponential_mean(60.0);  // coarse stride
        break;
      default:
        horizon += steps.exponential_mean(600.0);  // giant leap
        break;
    }
    submit_prefix(horizon);
    // A closed run ends at the last completion, so the open replay may
    // advance through event-free gaps but must not overshoot into the idle
    // tail after the final event — that extra simulated time would (
    // correctly!) shift run_complete and the settled accounting.  Advance
    // in sub-steps that stop at the last pending event.
    while (engine.now() < horizon) {
      const SimTime at = engine.sim().next_event_time();
      if (at >= kTimeInfinity) break;
      engine.advance_to(std::min(horizon, at));
    }
    // Starved progress guard: if nothing is pending and jobs remain, jump
    // to the next unsubmitted arrival instead of spinning on tiny steps.
    if (engine.sim().pending_events() == 0 && next < jobs.size()) {
      const SimTime at = jobs[next].submit_time;
      submit_prefix(at);
      engine.advance_to(at);
    }
  }
  engine.drain();

  std::ostringstream digest;
  append_run(digest, title, harness.collect(ids));
  return {digest.str(),
          decode_events(TraceReplayer::from_bytes(log.serialize()))};
}

/// Assert two event streams are identical (every field, times compared
/// exactly), reporting the first divergence.
void expect_same_events(const DrivenRun& closed, const DrivenRun& open) {
  const std::size_t n = std::min(closed.events.size(), open.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(closed.events[i] == open.events[i])
        << "event streams diverge at event " << i << " (kinds "
        << static_cast<int>(closed.events[i].kind) << " / "
        << static_cast<int>(open.events[i].kind) << ")";
  }
  EXPECT_EQ(closed.events.size(), open.events.size())
      << "event streams have a common prefix but different lengths";
}

class GoldenEquivalence : public ::testing::TestWithParam<int> {};

// For each golden scenario: every pass, driven openly with randomized step
// sizes, must reproduce the closed event stream, the closed RunResult
// digest, and — pass by pass concatenated — the committed golden file.
TEST_P(GoldenEquivalence, OpenReplayMatchesClosedAndGolden) {
  GoldenScenario scenario = golden_scenarios().at(
      static_cast<std::size_t>(GetParam()));
  Rng steps(0xC0FFEE ^ static_cast<std::uint64_t>(GetParam()));
  std::ostringstream open_digest;
  for (GoldenPass& pass : scenario.passes) {
    DrivenRun closed =
        drive_closed(scenario.cluster, pass.jobs, pass.options, pass.title);
    DrivenRun open = drive_open(scenario.cluster, std::move(pass.jobs),
                                pass.options, pass.title, steps);
    expect_same_events(closed, open);
    EXPECT_EQ(closed.digest, open.digest)
        << pass.title << ": open-mode metrics diverged from closed mode";
    open_digest << open.digest;
  }
  if (std::getenv("SSR_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "goldens being regenerated; closed-vs-open already checked";
  }
  const std::optional<std::string> golden = read_golden(scenario.file);
  ASSERT_TRUE(golden.has_value()) << "missing golden " << scenario.file;
  EXPECT_EQ(*golden, open_digest.str())
      << scenario.name
      << ": open-mode digest diverged from the committed golden";
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldenScenarios, GoldenEquivalence,
    ::testing::Range(0, static_cast<int>(golden_scenarios().size())));

class RandomEquivalence : public ::testing::TestWithParam<int> {};

// 100 seeded trials over random small scenarios: cluster shape, background
// trace jobs (unsorted submit times), Poisson foreground arrivals, policy,
// SSR on/off, straggler mitigation, and (in a quarter of trials) a random
// node-failure schedule.
TEST_P(RandomEquivalence, OpenReplayMatchesClosed) {
  const auto trial = static_cast<std::uint64_t>(GetParam());
  const auto draw = [&](std::uint64_t salt, std::uint64_t mod) {
    return splitmix64(trial * 1315423911ULL + salt) % mod;
  };

  const ClusterSpec cluster{
      .nodes = static_cast<std::uint32_t>(3 + draw(1, 6)),
      .slots_per_node = static_cast<std::uint32_t>(1 + draw(2, 3))};

  RunOptions options;
  options.seed = trial + 1;
  if (draw(3, 3) == 0) options.sched.policy = SchedulingPolicy::Fair;
  options.sched.locality_wait = (draw(4, 2) == 0) ? 0.0 : 3.0;
  if (draw(5, 2) == 0) {
    options.ssr = SsrConfig{};
    options.ssr->min_reserving_priority = 1;
    options.ssr->isolation_p = (draw(6, 2) == 0) ? 1.0 : 0.4;
    options.ssr->enable_straggler_mitigation = draw(7, 2) == 0;
  }
  if (draw(8, 4) == 0) {
    RandomFailureConfig failures;
    failures.num_nodes = cluster.nodes;
    failures.failures = static_cast<std::uint32_t>(1 + draw(9, 3));
    failures.horizon = 150.0;
    failures.min_downtime = 10.0;
    failures.max_downtime = 40.0;
    failures.permanent_fraction = 0.2;
    failures.seed = splitmix64(trial ^ 0xFA117);
    options.failures = make_random_node_failures(failures);
  }

  // Background batch (submit times scattered, vector NOT time-sorted)...
  TraceGenConfig bg;
  bg.num_jobs = static_cast<std::uint32_t>(draw(10, 5));
  bg.window = 120.0;
  bg.mean_task_seconds = 40.0;
  bg.small_job_max_tasks = 6;
  bg.large_job_max_tasks = 24;
  bg.seed = splitmix64(trial ^ 0xB6);
  std::vector<JobSpec> jobs =
      bg.num_jobs > 0 ? make_background_jobs(bg) : std::vector<JobSpec>{};
  // ...plus a small Poisson foreground stream appended afterwards, so the
  // prefix-submission driver must handle index order != time order.
  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "fg",
                      .mean_interarrival = 20.0 + static_cast<double>(
                                                      draw(11, 40)),
                      .num_jobs = static_cast<std::uint32_t>(1 + draw(12, 4)),
                      .min_parallelism = 2,
                      .max_parallelism =
                          static_cast<std::uint32_t>(4 + draw(13, 8)),
                      .priority = 10});
  for (OpenArrival& arrival :
       make_open_arrivals(profiles, splitmix64(trial ^ 0xF9))) {
    jobs.push_back(std::move(arrival.spec));
  }

  const std::string title = "random/" + std::to_string(trial);
  Rng steps(splitmix64(trial ^ 0x57E9));
  DrivenRun closed = drive_closed(cluster, jobs, options, title);
  DrivenRun open = drive_open(cluster, std::move(jobs), options, title, steps);
  expect_same_events(closed, open);
  EXPECT_EQ(closed.digest, open.digest)
      << "trial " << trial << ": open-mode metrics diverged from closed mode";
}

INSTANTIATE_TEST_SUITE_P(Seeded100, RandomEquivalence,
                         ::testing::Range(1, 101));

// Open-system semantics the equivalence driver deliberately avoids: "now"
// moves with advance_to even when no events fire, and jobs may arrive after
// the engine has gone fully idle.
TEST(OpenSystemSemantics, TimePassesWithoutEvents) {
  Engine engine(SchedConfig{}, 2, 2, /*seed=*/1);
  engine.advance_to(125.0);
  EXPECT_DOUBLE_EQ(engine.now(), 125.0);
  EXPECT_TRUE(engine.all_jobs_finished());  // vacuously: nothing submitted
}

TEST(OpenSystemSemantics, SubmitAfterIdleGap) {
  Engine engine(SchedConfig{}, 2, 2, /*seed=*/1);
  const JobId first = engine.submit(
      JobBuilder("early").stage(2, uniform_duration(1.0, 2.0)).build());
  engine.advance_to(50.0);  // runs 'early' to completion, then idles
  EXPECT_TRUE(engine.job_finished(first));
  EXPECT_FALSE(engine.sim().pending_events() > 0);

  // A job arriving mid-idle-gap: submit at now, or with a future arrival.
  JobSpec late = JobBuilder("late").stage(2, uniform_duration(1.0, 2.0)).build();
  const JobId second = engine.submit_job(std::move(late), 75.0);
  EXPECT_FALSE(engine.job_finished(second));
  EXPECT_FALSE(engine.all_jobs_finished());
  engine.drain();
  EXPECT_TRUE(engine.all_jobs_finished());
  // The late job's JCT counts from its open-system arrival instant.
  EXPECT_GE(engine.job_finish_time(second), 75.0);
  EXPECT_LE(engine.jct(second), engine.job_finish_time(second) - 75.0 + 1e-9);
}

TEST(OpenSystemSemantics, AdvanceBackwardsThrows) {
  Engine engine(SchedConfig{}, 2, 2, /*seed=*/1);
  engine.advance_to(10.0);
  EXPECT_THROW(engine.advance_to(5.0), CheckError);
  // Submitting into the simulated past must also be rejected.
  JobSpec spec = JobBuilder("past").stage(1, uniform_duration(1.0, 2.0)).build();
  EXPECT_THROW(engine.submit_job(std::move(spec), 5.0), CheckError);
}

}  // namespace
}  // namespace ssr
