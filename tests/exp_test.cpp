// Tests for the experiment harness (src/ssr/exp).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/exp/bench_report.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/sweep.h"

namespace ssr {
namespace {

TEST(RunResult, JctOfThrowsForUnknownName) {
  RunResult r;
  JobResult a;
  a.name = "alpha";
  a.jct = 7.0;
  r.jobs.push_back(a);
  EXPECT_DOUBLE_EQ(r.jct_of("alpha"), 7.0);
  EXPECT_THROW(r.jct_of("beta"), CheckError);
}

TEST(RunResult, MeanJctWithPrefix) {
  RunResult r;
  for (double jct : {2.0, 4.0}) {
    JobResult j;
    j.name = "bg-x";
    j.jct = jct;
    r.jobs.push_back(j);
  }
  JobResult other;
  other.name = "fg";
  other.jct = 100.0;
  r.jobs.push_back(other);
  EXPECT_DOUBLE_EQ(r.mean_jct_with_prefix("bg-"), 3.0);
  EXPECT_DOUBLE_EQ(r.mean_jct_with_prefix("zzz"), 0.0);
}

TEST(Scenario, RunScenarioPopulatesAggregates) {
  const ClusterSpec cluster{.nodes = 1, .slots_per_node = 2};
  std::vector<JobSpec> jobs;
  jobs.push_back(JobBuilder("a").stage(2, fixed_duration(10.0)).build());
  RunOptions o;
  const RunResult r = run_scenario(cluster, std::move(jobs), o);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.jobs[0].jct, 10.0);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_DOUBLE_EQ(r.busy_time, 20.0);
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
  EXPECT_EQ(r.task_totals.tasks_finished, 2u);
}

TEST(Scenario, SlowdownHelper) {
  EXPECT_DOUBLE_EQ(slowdown(30.0, 10.0), 3.0);
}

TEST(BenchArgs, DefaultsAndScaleSetFlag) {
  const char* argv[] = {"bin"};
  const BenchArgs args = BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.scale, 1.0);
  EXPECT_FALSE(args.scale_set);
  EXPECT_EQ(args.seed, 1u);

  const char* argv2[] = {"bin", "--scale", "2"};
  const BenchArgs args2 = BenchArgs::parse(3, const_cast<char**>(argv2));
  EXPECT_TRUE(args2.scale_set);
  const char* bad[] = {"bin", "--scale", "0.5"};
  EXPECT_THROW(BenchArgs::parse(3, const_cast<char**>(bad)), CheckError);
}

// Convenience: parse a fixed flag/value pair and expect CheckError.
void expect_parse_throws(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bin");
  EXPECT_THROW(BenchArgs::parse(static_cast<int>(argv.size()),
                                const_cast<char**>(argv.data())),
               CheckError)
      << "argv: " << argv[1];
}

TEST(BenchArgs, AcceptsJobsCsvJsonFlags) {
  const char* argv[] = {"bin",   "--jobs", "4",      "--csv", "/tmp/t.csv",
                        "--json", "/tmp/t.json", "--seed", "42"};
  const BenchArgs args = BenchArgs::parse(9, const_cast<char**>(argv));
  EXPECT_EQ(args.jobs, 4u);
  EXPECT_EQ(args.csv, "/tmp/t.csv");
  EXPECT_EQ(args.json, "/tmp/t.json");
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(BenchArgs{}.jobs, 0u);  // default: one worker per core
}

TEST(BenchArgs, RejectsNonPositiveScaleAndJobs) {
  expect_parse_throws({"--scale", "0"});
  expect_parse_throws({"--scale", "-2"});
  expect_parse_throws({"--scale", "inf"});
  expect_parse_throws({"--scale", "infinity"});
  expect_parse_throws({"--jobs", "0"});
  expect_parse_throws({"--jobs", "-3"});
  expect_parse_throws({"--jobs", "100000"});  // implausibly large
}

TEST(BenchArgs, RejectsMalformedNumbers) {
  expect_parse_throws({"--scale", "abc"});
  expect_parse_throws({"--scale", "10x"});  // trailing garbage
  expect_parse_throws({"--scale", ""});
  expect_parse_throws({"--jobs", "2x"});
  expect_parse_throws({"--jobs", "1.5"});
  expect_parse_throws({"--seed", "junk"});
  expect_parse_throws({"--seed", "-1"});
  expect_parse_throws({"--seed", "99999999999999999999999999"});  // overflow
}

TEST(BenchArgs, RejectsUnknownFlagsAndMissingValues) {
  expect_parse_throws({"--bogus"});
  expect_parse_throws({"extra"});
  expect_parse_throws({"--scale"});  // flag with no value
  expect_parse_throws({"--jobs"});
  expect_parse_throws({"--csv"});
  // There is one event queue, so no flag selects or shards it.
  expect_parse_throws({"--queue", "heap"});
  expect_parse_throws({"--shards", "4"});
  // Nothing wrote the metrics document this flag named.
  expect_parse_throws({"--metrics-json", "x"});
}

TEST(BenchArgsDeathTest, BenchMainsExitWithStatus2OnABadFlag) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* argv[] = {"bench", "--bogus"};
  EXPECT_EXIT(BenchArgs::parse_or_exit(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(2), "unknown argument '--bogus'");
  // The user sees `<argv0>: <message>` alone: stderr is that one line, with
  // no "check failed" expression and no source file.
  EXPECT_EXIT(BenchArgs::parse_or_exit(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(2),
              "^bench: unknown argument '--bogus' [^\n]*\n$");
  for (const char* flag : {"--help", "-h"}) {
    const char* help[] = {"bench", flag};
    EXPECT_EXIT(BenchArgs::parse_or_exit(2, const_cast<char**>(help)),
                testing::ExitedWithCode(0), "");
  }
}

TEST(SummaryStats, ComputesMomentsAndPercentiles) {
  const SummaryStats s = SummaryStats::of({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  // sample stddev = sqrt(2.5); sem = stddev / sqrt(5)
  EXPECT_NEAR(s.sem, std::sqrt(2.5) / std::sqrt(5.0), 1e-12);

  const SummaryStats one = SummaryStats::of({7.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.sem, 0.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);

  EXPECT_EQ(SummaryStats::of({}).n, 0u);
}

TEST(Summarize, GroupsByLabelInFirstAppearanceOrder) {
  std::vector<TrialResult> results;
  for (const char* label : {"b", "a", "b"}) {
    TrialResult tr;
    tr.index = results.size();
    tr.label = label;
    JobResult j;
    j.name = "x";
    j.jct = static_cast<double>(results.size() + 1);
    tr.run.jobs.push_back(j);
    tr.run.makespan = j.jct;
    tr.run.utilization = 0.5;
    results.push_back(std::move(tr));
  }
  const std::vector<GroupSummary> groups = summarize(results);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].label, "b");
  EXPECT_EQ(groups[0].trials, 2u);
  EXPECT_DOUBLE_EQ(groups[0].metrics.at("jct").mean, 2.0);  // (1 + 3) / 2
  EXPECT_EQ(groups[1].label, "a");
  EXPECT_EQ(groups[1].trials, 1u);
  EXPECT_DOUBLE_EQ(groups[1].metrics.at("makespan").mean, 2.0);
}

TEST(SweepEmission, CsvQuotesAndTagColumns) {
  TrialResult tr;
  tr.index = 0;
  tr.label = "has,comma\ttab";
  tr.tags = {{"knob", "0.5"}};
  tr.seed = 9;
  JobResult j;
  j.name = "job";
  j.jct = 1.5;
  tr.run.jobs.push_back(j);
  std::ostringstream os;
  write_trials_csv(os, {tr});
  const std::string out = os.str();
  EXPECT_NE(out.find("\"has,comma\ttab\""), std::string::npos)
      << "labels containing commas must be quoted:\n" << out;
  EXPECT_NE(out.find("tag:knob"), std::string::npos) << out;

  // JSON strings may not hold raw control characters.
  std::ostringstream js;
  write_summary_json(js, summarize({tr}));
  EXPECT_NE(js.str().find("\"has,comma\\u0009tab\""), std::string::npos)
      << js.str();
  EXPECT_NE(js.str().find("\"jct\""), std::string::npos);
}

TEST(BenchReport, RecordNamesAreJsonEscaped) {
  BenchReporter reporter;
  reporter.add(BenchRecord{"has\ttab", 1.0, 2.0});
  std::ostringstream os;
  reporter.write(os);
  EXPECT_NE(os.str().find("\"has\\u0009tab\""), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace ssr
