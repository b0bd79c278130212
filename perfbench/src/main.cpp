// Benchmark binary: runs one workload in this process and prints its
// metrics.
//
//   ssr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--reference]
//
// Every pass generates the workload of the given seed and runs it end to
// end.  Pass 0 fixes the simulated outcome and the digest, and, being the
// first pass in the process (cold caches and allocator), is left out of
// timing.  Passes then repeat until S seconds have gone by.
//
// --trace 0 reports the end-to-end metrics.  A shared host slows the same
// pass by up to 2x for seconds to minutes at a time, so host times are
// scaled to a reference host speed: a HostProbe slice runs after every
// segment of a pass (one per step of simulated time), and the pass's time
// is divided by how much slower than their reference the slices ran.
// --trace 1 alternates traced and untraced passes, without the probe, and
// reports the per-layer split of the traced pass with the median step time,
// plus the tracing overhead against the untraced passes.
//
// Every pass must reproduce pass 0's digest; --reference also checks it
// against the library's own one-call runner.
//
// Human-readable lines come first; the last line is one JSON object.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ssr/exp/bench_report.h"
#include "tracing.h"
#include "workloads.h"

namespace {

using perfbench::Layer;
using perfbench::PassResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ssr_perfbench: " << why
            << "\nusage: ssr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args.reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
        used = value.size();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        args.trace = value == "1";
        used = value.size();
      } else {
        usage("unknown argument " + flag);
      }
      if (used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string fingerprint(const std::string& digest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : digest) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Metrics in output order, each with its unit.  Every row is printed in
/// the table; only rows of the run's mode go into the JSON result.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           bool in_json = true) {
    rows_.push_back({name, value, unit, in_json});
  }
  void print_table(std::ostream& os) const {
    for (const Row& r : rows_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", r.value);
      os << "  " << r.name << " = " << buf << ' ' << r.unit << '\n';
    }
  }
  void print_json(std::ostream& os) const {
    os << '{';
    const char* sep = "";
    for (const Row& r : rows_) {
      if (!r.in_json) continue;
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", r.value);
      os << sep << '"' << r.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << r.unit << "\"}";
      sep = ", ";
    }
    os << '}';
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    bool in_json;
  };
  std::vector<Row> rows_;
};

std::vector<double> collect(const std::vector<const PassResult*>& passes,
                            double (*f)(const PassResult&)) {
  std::vector<double> out;
  for (const PassResult* p : passes) out.push_back(f(*p));
  return out;
}

/// How much slower than its reference the host ran during a pass: the
/// pass's mean probe slice over the reference slice.
double host_slowdown(const PassResult& p) {
  return ratio(p.probe_s, static_cast<double>(p.probe_slices) *
                              perfbench::HostProbe::kReferenceSliceS);
}

double pass_tasks_per_s(const PassResult& p) {
  return ratio(static_cast<double>(p.run.task_totals.tasks_started), p.live_s);
}

void add_host_metrics(Report& r, const std::vector<const PassResult*>& timed,
                      const std::vector<double>& setups) {
  r.add("tasks_per_s",
        median(collect(timed,
                       [](const PassResult& p) {
                         return pass_tasks_per_s(p) * host_slowdown(p);
                       })),
        "1/s");
  r.add("setup_s", median(setups), "s");
  r.add("peak_rss_mb", ssr::peak_rss_mb(), "MB");
  // For the table only: what the host gave, unscaled.
  r.add("host_slowdown", median(collect(timed, host_slowdown)), "ratio",
        /*in_json=*/false);
  r.add("wall_tasks_per_s", median(collect(timed, pass_tasks_per_s)), "1/s",
        false);
}

/// Simulated outcomes: deterministic in the seed, identical in every pass.
/// The response percentiles are end-to-end metrics; the rest vary too much
/// from seed to seed to carry a bound and are reported with the layers.
void add_outcomes(Report& r, const perfbench::Workload& w, const Args& args,
                  const PassResult& first, double failed_frac) {
  const bool e2e = !args.trace;
  r.add("hi_response_p50_s", percentile(first.hi_response_s, 0.50), "sim_s",
        e2e);
  r.add("hi_response_p99_s", percentile(first.hi_response_s, 0.99), "sim_s",
        e2e);

  const std::vector<double> alone = perfbench::alone_jcts(w, args.seed);
  std::vector<double> slowdowns;
  for (std::size_t i = 0; i < alone.size() && i < first.hi_jct_s.size(); ++i) {
    slowdowns.push_back(first.hi_jct_s[i] / alone[i]);
  }
  const ssr::RunResult& run = first.run;
  r.add("fg_slowdown_mean", mean(slowdowns), "ratio", !e2e);
  r.add("bg_jct_mean_s", mean(first.bg_response_s), "sim_s", !e2e);
  r.add("utilization", run.utilization, "ratio", !e2e);
  r.add("reserved_idle_frac",
        ratio(run.reserved_idle_time,
              run.makespan * static_cast<double>(w.cluster.total_slots())),
        "ratio", !e2e);
  r.add("failed_frac", failed_frac, "ratio", !e2e);
}

void add_per_layer(Report& r, const PassResult& m,
                   const std::vector<const PassResult*>& untraced,
                   double first_pass_ratio) {
  const perfbench::LayerTotals& l = m.layers;
  const auto secs = [&](Layer layer) { return l.self(layer); };
  const double step = l.inclusive(Layer::kSchedStep);
  const double hook = l.core_s();
  const double observer = l.self(Layer::kMetricsObserver);
  const ssr::RunResult& run = m.run;
  const double started = static_cast<double>(run.task_totals.tasks_started);

  r.add("workload.gen_s", secs(Layer::kWorkloadGen), "s");
  r.add("exp.harness_s", secs(Layer::kExpHarness), "s");
  r.add("sched.submit_s", secs(Layer::kSchedSubmit), "s");
  r.add("sched.step_s", step, "s");
  r.add("sched.self_s", step - hook - observer, "s");
  r.add("sched.open_stages_mean", m.open_stages_mean, "count");
  r.add("sched.open_stages_peak", static_cast<double>(m.open_stages_peak),
        "count");
  r.add("sched.local_start_ratio",
        ratio(static_cast<double>(run.task_totals.local_starts), started),
        "ratio");
  r.add("sched.copy_win_ratio",
        ratio(static_cast<double>(run.task_totals.copies_won),
              static_cast<double>(run.task_totals.copies_started)),
        "ratio");
  // Closed workloads have no tenants and report zeros.
  for (const char* tenant : {"interactive", "batch"}) {
    ssr::TenantResult row;
    for (const ssr::TenantResult& t : run.tenants) {
      if (t.name == tenant) row = t;
    }
    const std::string stem = std::string("sched.tenant.") + tenant;
    r.add(stem + ".admitted", static_cast<double>(row.admitted), "count");
    r.add(stem + ".queued", static_cast<double>(row.queued), "count");
    r.add(stem + ".queue_delay_mean_s", row.mean_queue_delay, "sim_s");
  }

  r.add("sim.events", static_cast<double>(m.sim_events), "count");
  r.add("sim.events_per_task",
        ratio(static_cast<double>(m.sim_events), started), "ratio");
  r.add("sim.pending_peak", static_cast<double>(m.pending_peak), "count");
  r.add("sim.slots_failed", static_cast<double>(run.recovery.slots_failed),
        "count");
  r.add("sim.tasks_requeued", static_cast<double>(run.recovery.tasks_requeued),
        "count");
  r.add("sim.stages_invalidated",
        static_cast<double>(run.recovery.stages_invalidated), "count");
  r.add("sim.suspicions", static_cast<double>(run.suspicions), "count");

  for (auto i = static_cast<std::size_t>(perfbench::kFirstCoreLayer);
       i <= static_cast<std::size_t>(perfbench::kLastCoreLayer); ++i) {
    const auto layer = static_cast<Layer>(i);
    const std::string stem = perfbench::layer_name(layer);
    r.add(stem + ".calls", static_cast<double>(l.count(layer)), "count");
    r.add(stem + ".s", l.self(layer), "s");
  }
  r.add("core.hook_s", hook, "s");
  r.add("core.approve_accept_ratio",
        ratio(static_cast<double>(l.approve_accepted),
              static_cast<double>(l.count(Layer::kCoreApprove))),
        "ratio");
  r.add("core.reservations", static_cast<double>(m.reservations), "count");
  r.add("core.reservations_expired",
        static_cast<double>(run.reservations_expired), "count");
  r.add("core.claim_ratio",
        ratio(static_cast<double>(m.reservations - m.reservations_unclaimed),
              static_cast<double>(m.reservations)),
        "ratio");
  r.add("core.copies_launched", static_cast<double>(m.copies_launched),
        "count");

  r.add("metrics.observer_calls",
        static_cast<double>(l.count(Layer::kMetricsObserver)), "count");
  r.add("metrics.observer_s", observer, "s");
  r.add("metrics.capture_events", static_cast<double>(m.capture_events),
        "count");
  r.add("metrics.capture_bytes", static_cast<double>(m.capture_bytes),
        "bytes");
  r.add("metrics.serialize_s", secs(Layer::kMetricsSerialize), "s");
  r.add("metrics.parse_s", secs(Layer::kMetricsParse), "s");
  r.add("exp.collect_s", secs(Layer::kExpCollect), "s");
  r.add("exp.replay_fold_s", secs(Layer::kExpReplayFold), "s");
  r.add("audit.replay_audit_s", secs(Layer::kAuditReplay), "s");

  // Host-side rates and overhead from the untraced passes of this process.
  r.add("exp.replay_events_per_s",
        median(collect(untraced,
                       [](const PassResult& p) {
                         return ratio(static_cast<double>(p.capture_events),
                                      p.replay_s);
                       })),
        "1/s");
  r.add("bench.trace_overhead",
        ratio(m.live_s,
              median(collect(untraced,
                             [](const PassResult& p) { return p.live_s; }))),
        "ratio");
  r.add("bench.first_pass_ratio", first_pass_ratio, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) usage("unknown workload " + args.workload);

  try {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(Clock::now() - start).count();
    };
    perfbench::Tracer tracer;

    std::vector<PassResult> passes;
    std::vector<bool> is_traced;
    // Set-up takes milliseconds: each timed untraced pass is followed by
    // set-up-only repetitions, so the median rests on many samples spread
    // over the whole run.  They are scaled by the host slowdown the probe
    // measured in that pass, just before them.
    constexpr int kSetupsPerPass = 5;
    std::vector<double> setups;
    // Only untraced runs report host time; traced ones run without probe.
    std::optional<perfbench::HostProbe> probe;
    if (!args.trace) probe.emplace();
    perfbench::HostProbe* const probe_ptr = probe ? &*probe : nullptr;
    passes.push_back(
        perfbench::run_pass(*workload, args.seed, false, tracer, probe_ptr));
    is_traced.push_back(false);
    std::size_t traced_count = 0;
    std::size_t untraced_count = 0;
    const std::size_t min_traced = args.trace ? 1 : 0;
    const std::size_t min_untraced = args.trace ? 1 : 2;
    while (elapsed() < args.seconds || traced_count < min_traced ||
           untraced_count < min_untraced) {
      // Traced runs alternate, starting traced, so both kinds see the same
      // machine state on average.
      const bool traced = args.trace && traced_count <= untraced_count;
      passes.push_back(
          perfbench::run_pass(*workload, args.seed, traced, tracer, probe_ptr));
      is_traced.push_back(traced);
      ++(traced ? traced_count : untraced_count);
      if (!args.trace) {
        const double slowdown = host_slowdown(passes.back());
        setups.push_back(passes.back().setup_s / slowdown);
        for (int i = 0; i < kSetupsPerPass; ++i) {
          setups.push_back(perfbench::setup_only(*workload, args.seed) /
                           slowdown);
        }
      }
    }

    // --- Correctness ------------------------------------------------------
    const PassResult& first = passes.front();
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t not_completed = 0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassResult& p = passes[i];
      const std::string tag = "pass " + std::to_string(i) +
                              (is_traced[i] ? " (traced)" : "") + ": ";
      attempted += p.submitted;
      not_completed += p.not_completed;
      for (const std::string& f : p.check_failures) failures.push_back(tag + f);
      if (p.digest != first.digest) {
        failures.push_back(tag + "digest differs from pass 0");
      }
      if (p.segment_s.size() != first.segment_s.size()) {
        failures.push_back(tag + "live time splits into " +
                           std::to_string(p.segment_s.size()) +
                           " segments, pass 0 into " +
                           std::to_string(first.segment_s.size()));
      }
      if (is_traced[i]) {
        // sched.self_s is defined as step - hook - observer; it must equal
        // the exclusive time the span stack measured for the step spans,
        // or some nested span was counted twice or outside a step.
        const perfbench::LayerTotals& l = p.layers;
        const double defined = l.inclusive(Layer::kSchedStep) - l.core_s() -
                               l.self(Layer::kMetricsObserver);
        const double measured = l.self(Layer::kSchedStep);
        if (std::abs(defined - measured) >
            1e-9 + 1e-6 * l.inclusive(Layer::kSchedStep)) {
          failures.push_back(tag + "exclusive span times do not sum to "
                                   "sched.step_s");
        }
      }
    }
    if (args.reference &&
        perfbench::reference_digest(*workload, args.seed) != first.digest) {
      failures.push_back("digest differs from the library's own runner");
    }
    // A job that was rejected or never completed is one failed operation;
    // so is each failed check.
    if (not_completed > 0) {
      failures.push_back(std::to_string(not_completed) +
                         " submitted jobs were rejected or not completed");
    }
    const std::uint64_t checks = failures.size() - (not_completed > 0 ? 1 : 0);
    const std::uint64_t failed = not_completed + checks;
    attempted += checks;
    const double failed_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));

    // --- Timing samples ---------------------------------------------------
    std::vector<const PassResult*> traced;
    std::vector<const PassResult*> untraced;
    for (std::size_t i = 1; i < passes.size(); ++i) {
      (is_traced[i] ? traced : untraced).push_back(&passes[i]);
    }
    if (untraced.empty()) untraced.push_back(&first);
    const double first_pass_ratio = ratio(
        first.live_s,
        median(collect(untraced,
                       [](const PassResult& p) { return p.live_s; })));

    Report report;
    if (args.trace) {
      // Report the traced pass with the median step time, whole, so its
      // layer times add up.
      std::sort(traced.begin(), traced.end(),
                [](const PassResult* a, const PassResult* b) {
                  return a->layers.inclusive(Layer::kSchedStep) <
                         b->layers.inclusive(Layer::kSchedStep);
                });
      add_per_layer(report, *traced[(traced.size() - 1) / 2], untraced,
                    first_pass_ratio);
    } else {
      add_host_metrics(report, untraced, setups);
    }
    add_outcomes(report, *workload, args, first, failed_frac);

    std::cout << "workload " << workload->name << ", seed " << args.seed
              << (args.trace ? ", traced" : ", untraced") << ": "
              << passes.size() << " passes in " << elapsed() << " s; pass 0 "
              << "(first in process, " << first_pass_ratio
              << "x the median) is excluded from timing\n";
    std::cout << "digest fingerprint " << fingerprint(first.digest) << " ("
              << first.run.jobs.size() << " jobs, "
              << first.run.task_totals.tasks_started << " task starts)\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      std::cout << "  pass " << i << (is_traced[i] ? " traced" : "")
                << ": setup " << passes[i].setup_s << " s, live "
                << passes[i].live_s << " s";
      if (passes[i].probe_slices > 0) {
        std::cout << ", host slowdown " << host_slowdown(passes[i]);
      }
      std::cout << '\n';
    }
    for (const std::string& f : failures) {
      std::cout << "CHECK FAILED: " << f << '\n';
    }
    report.print_table(std::cout);
    std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": ";
    report.print_json(std::cout);
    std::cout << "}" << std::endl;
    return failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ssr_perfbench: " << e.what() << '\n';
    return 1;
  }
}
