#include "ssr/exp/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "ssr/common/check.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/sched/engine.h"

namespace ssr {

double RunResult::jct_of(const std::string& name) const {
  for (const JobResult& j : jobs) {
    if (j.name == name) return j.jct;
  }
  SSR_CHECK_MSG(false, "no job named " << name);
  return 0.0;
}

double RunResult::mean_jct_with_prefix(const std::string& prefix) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const JobResult& j : jobs) {
    if (j.name.rfind(prefix, 0) == 0) {
      acc += j.jct;
      ++n;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

RunResult run_scenario(const ClusterSpec& cluster, std::vector<JobSpec> jobs,
                       const RunOptions& options) {
  ScenarioHarness harness(cluster, options);
  Engine& engine = harness.engine();
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    ids.push_back(engine.submit(std::move(spec)));
  }
  engine.run();
  return harness.collect(ids);
}

double alone_jct(const ClusterSpec& cluster, JobSpec job,
                 const RunOptions& options) {
  std::vector<JobSpec> jobs;
  jobs.push_back(std::move(job));
  const RunResult r = run_scenario(cluster, std::move(jobs), options);
  return r.jobs.front().jct;
}

namespace {

// Strict numeric parsing: the whole argument must be consumed, so inputs
// like "10x" or "" fail loudly instead of silently truncating.
double parse_double_arg(const char* flag, const std::string& text) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  SSR_CHECK_MSG(consumed == text.size() && !text.empty(),
                flag << " expects a number, got '" << text << "'");
  return value;
}

std::uint64_t parse_u64_arg(const char* flag, const std::string& text) {
  SSR_CHECK_MSG(!text.empty() && text.find_first_not_of("0123456789") ==
                                     std::string::npos,
                flag << " expects a non-negative integer, got '" << text
                     << "'");
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  SSR_CHECK_MSG(consumed == text.size(),
                flag << " value out of range: '" << text << "'");
  return value;
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  auto value_of = [&](int& i) -> std::string {
    SSR_CHECK_MSG(i + 1 < argc, argv[i] << " requires a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = parse_double_arg("--scale", value_of(i));
      args.scale_set = true;
      SSR_CHECK_MSG(std::isfinite(args.scale) && args.scale >= 1.0,
                    "--scale must be a finite number >= 1");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = parse_u64_arg("--seed", value_of(i));
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      const std::uint64_t jobs = parse_u64_arg("--jobs", value_of(i));
      SSR_CHECK_MSG(jobs >= 1, "--jobs must be >= 1");
      SSR_CHECK_MSG(jobs <= 4096, "--jobs is implausibly large");
      args.jobs = static_cast<unsigned>(jobs);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = value_of(i);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.json = value_of(i);
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      args.bench_json = value_of(i);
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      args.policy = value_of(i);
      SSR_CHECK_MSG(parse_zoo_policy(args.policy).has_value(),
                    "--policy must be one of baseline, ssr, dagps, packing, "
                    "table; got '"
                        << args.policy << "'");
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      args.help = true;
    } else {
      SSR_CHECK_MSG(false, "unknown argument '"
                               << argv[i]
                               << "' (expected --scale, --seed, --jobs, "
                                  "--csv, --json, --bench-json, --policy "
                                  "or --help)");
    }
  }
  return args;
}

BenchArgs BenchArgs::parse_or_exit(int argc, char** argv) {
  BenchArgs args;
  try {
    args = parse(argc, argv);
  } catch (const CheckError& e) {
    std::cerr << argv[0] << ": " << e.message() << "\n";
    std::exit(2);
  }
  if (args.help) {
    std::cout << "usage: " << argv[0]
              << " [--scale N>=1] [--seed S] [--jobs N] [--csv FILE]"
                 " [--json FILE] [--bench-json FILE]"
                 " [--policy baseline|ssr|dagps|packing|table]\n";
    std::exit(0);
  }
  return args;
}

std::uint32_t BenchArgs::scaled(std::uint32_t value) const {
  const auto scaled =
      static_cast<std::uint32_t>(static_cast<double>(value) / scale);
  return std::max<std::uint32_t>(1, scaled);
}

}  // namespace ssr
