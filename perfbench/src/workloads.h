// The benchmark's three workloads and the pass that runs one of them.
//
// A pass drives the library the way its own harnesses do — ScenarioHarness
// around an Engine, VirtualClusterManager admission for the open system,
// TraceRecorder / TraceReplayer for capture — but makes each call itself so
// the calls can be timed.  The simulated outcome is byte-identical to
// run_scenario() / run_open_scenario() on the same inputs; the self-test
// checks that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host_probe.h"
#include "ssr/exp/open_scenario.h"
#include "ssr/exp/scenario.h"
#include "tracing.h"

namespace perfbench {

/// Everything a workload generates from its seed.  Closed workloads fill
/// `jobs`, the open one `arrivals`; `options` arrive with the workload's
/// fixed policy and get the seed-dependent parts (engine seed, failure
/// schedule, detector noise seed) filled in.
struct Inputs {
  std::vector<ssr::JobSpec> jobs;
  std::vector<ssr::OpenArrival> arrivals;
  ssr::RunOptions options;
};

struct Workload {
  std::string name;
  ssr::ClusterSpec cluster;
  /// Tenant layout; non-empty only for the open system.
  ssr::OpenScenarioSpec tenants;
  /// Record the run, then re-parse, re-fold and re-audit the capture.
  bool capture = false;
  Inputs (*generate)(std::uint64_t seed) = nullptr;
};

const Workload* find_workload(const std::string& name);

struct PassResult {
  double setup_s = 0.0;   ///< generate + harness construction + submit
  double live_s = 0.0;    ///< first step to collect (capture written)
  double replay_s = 0.0;  ///< parse + fold + audit of the capture
  /// live_s split at each advance_to, the drain and the collect, in order:
  /// passes of one seed split the same way, segment by segment.
  std::vector<double> segment_s;
  /// Host-probe slices run between segments, and their time; not part of
  /// live_s.
  std::uint64_t probe_slices = 0;
  double probe_s = 0.0;

  ssr::RunResult run;
  std::string digest;

  std::uint64_t submitted = 0;
  /// Submissions rejected by admission or never completed.
  std::uint64_t not_completed = 0;
  std::vector<std::string> check_failures;

  /// Arrival-to-finish in simulated seconds, priority >= 10 and == 0 jobs.
  std::vector<double> hi_response_s;
  std::vector<double> bg_response_s;
  /// Engine JCT of the priority >= 10 jobs, in the order alone_jcts()
  /// returns their baselines.
  std::vector<double> hi_jct_s;

  // Filled by traced passes only.
  LayerTotals layers;
  double open_stages_mean = 0.0;
  std::int64_t open_stages_peak = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t reservations = 0;
  std::uint64_t reservations_unclaimed = 0;
  std::uint64_t copies_launched = 0;

  std::uint64_t sim_events = 0;
  std::uint64_t capture_events = 0;
  std::uint64_t capture_bytes = 0;
};

/// Run one pass.  `traced` installs the span wrappers and the counting
/// observer; the untraced pass carries no instrumentation below the calls
/// the benchmark itself makes.  A non-null `probe` runs a slice between
/// segments every few milliseconds of live time.
PassResult run_pass(const Workload& workload, std::uint64_t seed, bool traced,
                    Tracer& tracer, HostProbe* probe);

/// Generate, build the harness and submit, then discard: one set-up sample.
double setup_only(const Workload& workload, std::uint64_t seed);

/// JCT of each priority >= 10 job run alone on the same cluster with the
/// same options (the paper's slowdown denominator).
std::vector<double> alone_jcts(const Workload& workload, std::uint64_t seed);

/// Digest of the library's own one-call runner (run_scenario or
/// run_open_scenario) on the same inputs.
std::string reference_digest(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
