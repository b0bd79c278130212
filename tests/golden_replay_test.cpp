// Golden-replay regression suite: pins the simulator's end-to-end metric
// digests for figure-shaped scenarios to committed reference files.
//
// Each digest captures, in hexfloat (bit-exact) form, the per-job JCT
// vector, per-job busy and reserved-idle slot-seconds, the run totals, and
// an audit-clean marker (under -DSSR_AUDIT=ON builds the run would have
// thrown on any invariant violation before reaching the digest).  Any
// scheduling change that perturbs even one placement decision shifts these
// numbers, so the suite locks the hot-path index rewrite to the behaviour
// of the original full-scan scheduler.
//
// The scenario inputs live in golden_scenarios.h, shared with the
// open-vs-closed equivalence suite (open_system_test), which must reproduce
// these exact digests through the stepping API.
//
// Regenerate after an *intentional* behaviour change with:
//   SSR_UPDATE_GOLDEN=1 ./tests/golden_replay_test
// and review the digest diff like any other code change.
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.h"
#include "run_digest.h"
#include "ssr/exp/scenario.h"

namespace ssr {
namespace {

/// Run every pass of a scenario through the closed harness and return the
/// digest plus the per-pass results (for scenario-specific assertions).
std::string closed_digest(GoldenScenario scenario,
                          std::vector<RunResult>* results = nullptr) {
  std::ostringstream digest;
  for (GoldenPass& pass : scenario.passes) {
    RunResult run =
        run_scenario(scenario.cluster, std::move(pass.jobs), pass.options);
    append_run(digest, pass.title, run);
    if (results != nullptr) results->push_back(std::move(run));
  }
  return digest.str();
}

TEST(GoldenReplay, Fig12ShapedIsolation) {
  const GoldenScenario s = fig12_scenario();
  compare_golden(s.file, closed_digest(s));
}

TEST(GoldenReplay, Fig14ShapedTradeoff) {
  const GoldenScenario s = fig14_scenario();
  compare_golden(s.file, closed_digest(s));
}

TEST(GoldenReplay, Fig15ShapedLargeScale) {
  const GoldenScenario s = fig15_scenario();
  compare_golden(s.file, closed_digest(s));
}

// One golden per zoo policy (DESIGN.md §14): each pins the full placement
// behaviour of its selector/hook on the fig12 isolation shape, so a change
// to any policy — or to the selector seam underneath all of them — shows
// up as a reviewed digest diff rather than a silent drift.
TEST(GoldenReplay, PolicyZooScenarios) {
  for (ZooPolicy policy : all_zoo_policies()) {
    const GoldenScenario s = zoo_policy_scenario(policy);
    SCOPED_TRACE(s.name);
    compare_golden(s.file, closed_digest(s));
  }
}

// The static and timeout strawmen (Sec. III-A), each also under node
// failures that break their held reservations.
TEST(GoldenReplay, StrawmanHooks) {
  const GoldenScenario s = strawman_scenario();
  std::vector<RunResult> results;
  const std::string digest = closed_digest(s, &results);

  // Every pass holds slots idle, and the faulted passes lose some of them.
  ASSERT_EQ(results.size(), 4u);
  for (const RunResult& run : results) EXPECT_GT(run.reserved_idle_time, 0.0);
  EXPECT_GT(results[1].recovery.reservations_broken, 0u);
  EXPECT_GT(results[3].recovery.reservations_broken, 0u);

  compare_golden(s.file, digest);
}

TEST(GoldenReplay, FailureRecoveryShapedScenario) {
  const GoldenScenario s = failure_recovery_scenario();
  std::vector<RunResult> results;
  const std::string digest = closed_digest(s, &results);

  // The scenario must actually drive the recovery machinery it pins.
  ASSERT_EQ(results.size(), 1u);
  const RunResult& run = results.front();
  EXPECT_GT(run.recovery.slots_failed, 0u);
  EXPECT_GT(run.recovery.tasks_failed, 0u);
  EXPECT_GT(run.recovery.tasks_requeued, 0u);
  EXPECT_GT(run.recovery.failures_masked, 0u);
  EXPECT_GT(run.recovery.stages_invalidated, 0u);
  EXPECT_GT(run.recovery.reservations_broken, 0u);
  EXPECT_GT(run.dead_time, 0.0);

  compare_golden(s.file, digest);
}

}  // namespace
}  // namespace ssr
