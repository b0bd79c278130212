#include "ssr/exp/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <ostream>
#include <set>
#include <thread>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/common/stats.h"
#include "ssr/common/thread_pool.h"
#include "ssr/metrics/json.h"

namespace ssr {

std::uint64_t derive_trial_seed(std::uint64_t base_seed,
                                std::uint64_t trial_index) {
  // splitmix64 applied to a combination of base and index.  The odd
  // multiplier spreads adjacent indices across the word before mixing, so
  // (base, 0), (base, 1), ... yield decorrelated engine seeds.
  std::uint64_t x = base_seed ^ (trial_index * 0x9E3779B97F4A7C15ull +
                                 0xBF58476D1CE4E5B9ull);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

SummaryStats SummaryStats::of(const std::vector<double>& values) {
  SummaryStats s;
  if (values.empty()) return s;
  OnlineStats online;
  for (double v : values) online.add(v);
  s.n = online.count();
  s.mean = online.mean();
  s.sem = online.count() > 1
              ? online.stddev() / std::sqrt(static_cast<double>(online.count()))
              : 0.0;
  s.p50 = percentile(values, 0.50);
  s.p95 = percentile(values, 0.95);
  s.p99 = percentile(values, 0.99);
  s.min = online.min();
  s.max = online.max();
  return s;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {
  num_workers_ = options_.num_workers != 0
                     ? options_.num_workers
                     : std::max(1u, std::thread::hardware_concurrency());
}

std::vector<TrialResult> SweepRunner::run(
    const std::vector<Trial>& grid) const {
  std::vector<TrialResult> results(grid.size());
  auto run_one = [&](std::size_t i) {
    const Trial& trial = grid[i];
    TrialResult out;
    out.index = i;
    out.label = trial.label;
    out.tags = trial.tags;
    RunOptions options = trial.options;
    if (options_.base_seed) {
      options.seed = derive_trial_seed(*options_.base_seed, i);
    }
    out.seed = options.seed;
    // The trial keeps its spec; the engine consumes a private copy.
    out.run = run_scenario(trial.cluster, trial.jobs, options);
    results[i] = std::move(out);
  };

  if (num_workers_ <= 1 || grid.size() <= 1) {
    for (std::size_t i = 0; i < grid.size(); ++i) run_one(i);
    return results;
  }

  std::vector<std::future<void>> pending;
  pending.reserve(grid.size());
  {
    // Declared after `results` so unwinding joins the workers (draining
    // in-flight trials) before the results vector is destroyed.
    ThreadPool pool(num_workers_);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      pending.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    for (std::future<void>& f : pending) f.get();
  }
  return results;
}

std::vector<GroupSummary> summarize(const std::vector<TrialResult>& results) {
  std::vector<GroupSummary> groups;
  std::map<std::string, std::size_t> index_of;
  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  for (const TrialResult& r : results) {
    if (index_of.find(r.label) == index_of.end()) {
      index_of[r.label] = groups.size();
      groups.push_back(GroupSummary{r.label, 0, {}});
    }
    groups[index_of[r.label]].trials += 1;
    auto& metric = samples[r.label];
    for (const JobResult& j : r.run.jobs) metric["jct"].push_back(j.jct);
    metric["makespan"].push_back(r.run.makespan);
    metric["utilization"].push_back(r.run.utilization);
  }
  for (GroupSummary& g : groups) {
    for (const auto& [name, values] : samples[g.label]) {
      g.metrics[name] = SummaryStats::of(values);
    }
  }
  return groups;
}

namespace {

/// Quote a CSV cell if it contains a delimiter, quote, or newline.
std::string csv_cell(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// Shortest round-trip representation of a double (printf %.17g trimmed is
/// overkill for CSV meant for plotting; 12 significant digits round-trips
/// every value the simulator produces in practice while staying readable).
std::string csv_num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

void write_trials_csv(std::ostream& os,
                      const std::vector<TrialResult>& results) {
  std::set<std::string> tag_keys;
  for (const TrialResult& r : results) {
    for (const auto& [k, v] : r.tags) tag_keys.insert(k);
  }
  os << "trial,label,seed";
  // "tag:" prefix keeps user tag names from colliding with the built-in
  // columns (a tag literally named "seed", say).
  for (const std::string& k : tag_keys) os << ',' << csv_cell("tag:" + k);
  os << ",job,name,priority,submit,finish,jct,makespan,utilization,"
        "busy_time,reserved_idle_time,reservations_expired\n";
  for (const TrialResult& r : results) {
    for (std::size_t j = 0; j < r.run.jobs.size(); ++j) {
      const JobResult& job = r.run.jobs[j];
      os << r.index << ',' << csv_cell(r.label) << ',' << r.seed;
      for (const std::string& k : tag_keys) {
        auto it = r.tags.find(k);
        os << ',' << (it == r.tags.end() ? "" : csv_cell(it->second));
      }
      os << ',' << j << ',' << csv_cell(job.name) << ',' << job.priority
         << ',' << csv_num(job.submit) << ',' << csv_num(job.finish) << ','
         << csv_num(job.jct) << ',' << csv_num(r.run.makespan) << ','
         << csv_num(r.run.utilization) << ',' << csv_num(r.run.busy_time)
         << ',' << csv_num(r.run.reserved_idle_time) << ','
         << r.run.reservations_expired << '\n';
    }
  }
}

void write_summary_csv(std::ostream& os,
                       const std::vector<GroupSummary>& groups) {
  os << "label,trials,metric,n,mean,sem,p50,p95,p99,min,max\n";
  for (const GroupSummary& g : groups) {
    for (const auto& [name, s] : g.metrics) {
      os << csv_cell(g.label) << ',' << g.trials << ',' << csv_cell(name)
         << ',' << s.n << ',' << csv_num(s.mean) << ',' << csv_num(s.sem)
         << ',' << csv_num(s.p50) << ',' << csv_num(s.p95) << ','
         << csv_num(s.p99) << ',' << csv_num(s.min) << ',' << csv_num(s.max)
         << '\n';
    }
  }
}

void write_summary_json(std::ostream& os,
                        const std::vector<GroupSummary>& groups) {
  os << "[\n";
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupSummary& g = groups[gi];
    os << "  {\"label\": \"" << json_escape(g.label)
       << "\", \"trials\": " << g.trials << ", \"metrics\": {";
    std::size_t mi = 0;
    for (const auto& [name, s] : g.metrics) {
      if (mi++ > 0) os << ", ";
      os << '"' << json_escape(name) << "\": {\"n\": " << s.n
         << ", \"mean\": " << csv_num(s.mean) << ", \"sem\": " << csv_num(s.sem)
         << ", \"p50\": " << csv_num(s.p50) << ", \"p95\": " << csv_num(s.p95)
         << ", \"p99\": " << csv_num(s.p99) << ", \"min\": " << csv_num(s.min)
         << ", \"max\": " << csv_num(s.max) << '}';
    }
    os << "}}" << (gi + 1 < groups.size() ? "," : "") << '\n';
  }
  os << "]\n";
}

void emit_sweep_outputs(const BenchArgs& args,
                        const std::vector<TrialResult>& results) {
  if (!args.csv.empty()) {
    std::ofstream out(args.csv);
    SSR_CHECK_MSG(out.good(), "cannot open --csv file " + args.csv);
    write_trials_csv(out, results);
  }
  if (!args.json.empty()) {
    std::ofstream out(args.json);
    SSR_CHECK_MSG(out.good(), "cannot open --json file " + args.json);
    write_summary_json(out, summarize(results));
  }
}

}  // namespace ssr
