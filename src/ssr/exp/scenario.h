// Experiment harness: builds an Engine from a cluster spec + job mix +
// policy options, runs it, and returns the metrics the paper's figures plot.
// Every bench binary is a thin driver over these helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ssr/core/ssr_config.h"
#include "ssr/dag/job.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/registry.h"
#include "ssr/sched/types.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"

namespace ssr {

struct ClusterSpec {
  std::uint32_t nodes = 50;
  std::uint32_t slots_per_node = 2;  ///< the paper's m4.large: 2 executors

  /// Heterogeneous capacities (Sec. III-C): when non-empty, node_slots[i]
  /// lists node i's slot capacity vectors, must have exactly `nodes`
  /// entries, and `slots_per_node` is ignored.  Empty (the default) keeps
  /// the homogeneous {1,1,1}-capacity cluster every golden was recorded on.
  std::vector<std::vector<Resources>> node_slots{};

  std::uint32_t total_slots() const {
    if (node_slots.empty()) return nodes * slots_per_node;
    std::uint32_t total = 0;
    for (const auto& slots : node_slots) {
      total += static_cast<std::uint32_t>(slots.size());
    }
    return total;
  }
};

struct RunOptions {
  SchedConfig sched;
  /// Reservation policy; nullopt runs the naive work-conserving baseline.
  std::optional<SsrConfig> ssr;
  /// Escape hatch for non-SSR reservation policies (static carve-outs,
  /// timeout holds — see core/naive_policies.h).  When set it wins over
  /// `ssr`.  A factory rather than an instance so one RunOptions can be
  /// copied across many trials, each run owning a fresh hook.
  std::function<std::unique_ptr<ReservationHook>()> hook_factory;
  std::uint64_t seed = 1;
  /// Deterministic fault-injection schedule (sim/failure_injector.h); empty
  /// runs the scenario failure-free with bit-identical behaviour to a run
  /// that never attached an injector.  This is the ground truth; what the
  /// engine acts on is detect_failures(failures, detector, nodes).detected.
  FailureSchedule failures;
  /// Heartbeat failure detector (sim/failure_detector.h).  Default
  /// (heartbeat_period == 0) is instantaneous detection: the truth schedule
  /// passes through verbatim and event streams stay byte-identical to runs
  /// that never saw a detector.
  FailureDetectorConfig detector;
  /// When set, the full observer event stream is captured and written here
  /// as an ssr-trace file (metrics/trace_capture.h) at end of run.
  std::string capture_path;
  /// When set, an EngineMetrics observer feeds this registry during the run
  /// (per-policy and, for open-system runs, per-tenant label groups) under
  /// the `metrics_policy` label.  Non-owning; must outlive the run.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_policy = "run";
};

struct JobResult {
  JobId id;
  std::string name;
  int priority = 0;
  SimTime submit = 0.0;
  SimTime finish = 0.0;
  SimDuration jct = 0.0;
  /// Busy slot-seconds the job's attempts occupied.
  double busy_seconds = 0.0;
  /// Slot-seconds spent ReservedIdle under this job's reservations.
  double reserved_idle_seconds = 0.0;
};

/// Per-tenant isolation/SLO accounting of an open-system run (see
/// sched/virtual_cluster.h for the admission semantics behind the counters).
struct TenantResult {
  std::string name;
  std::uint32_t min_slots = 0;  ///< final shares (after resizes/transfers)
  std::uint32_t max_slots = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  /// Submissions that spent time queued before admission.
  std::uint64_t queued = 0;
  /// Peak aggregate in-flight slot demand (the admitted quantity the max
  /// share bounds; never exceeds max_slots held at admission time).
  std::uint32_t peak_demand = 0;
  double mean_queue_delay = 0.0;  ///< admission - request, over admissions
  double max_queue_delay = 0.0;
  double mean_jct = 0.0;  ///< engine JCT (excludes queue delay)
};

struct RunResult {
  std::vector<JobResult> jobs;  ///< submission order
  SimTime makespan = 0.0;       ///< last job finish time
  double busy_time = 0.0;       ///< total busy slot-seconds
  double reserved_idle_time = 0.0;  ///< slot-seconds lost to reservations
  double utilization = 0.0;     ///< busy fraction over [0, makespan]
  /// Reservations that expired at their deadline (0 unless the run used a
  /// ReservationManager).
  std::uint64_t reservations_expired = 0;
  JobTaskStats task_totals;
  /// Fault-injection outcome counters (all zero in failure-free runs).
  RecoveryStats recovery;
  /// Slot-seconds spent Dead (excluded from the utilization denominator a
  /// failure-aware caller should use).
  double dead_time = 0.0;
  /// Failure-detector outcome: suspicion windows the engine acted on, and
  /// how many of them were false (the target was alive the whole window).
  /// Both zero when the run used instantaneous detection.
  std::uint64_t suspicions = 0;
  std::uint64_t false_suspicions = 0;
  /// Tenant accounting, in tenant declaration order.  Empty for closed
  /// (run_scenario) runs — only run_open_scenario populates it.
  std::vector<TenantResult> tenants;

  /// JCT of the first job whose name matches exactly; throws if absent.
  double jct_of(const std::string& name) const;

  /// Mean JCT over all jobs with the given name prefix (e.g. "bg-").
  double mean_jct_with_prefix(const std::string& prefix) const;
};

/// Run a full scenario to completion.
RunResult run_scenario(const ClusterSpec& cluster, std::vector<JobSpec> jobs,
                       const RunOptions& options);

/// Minimum JCT baseline: the job running alone in the same cluster with the
/// same options (the paper's slowdown denominator).
double alone_jct(const ClusterSpec& cluster, JobSpec job,
                 const RunOptions& options);

/// Measured JCT / alone JCT (Sec. VI "slowdown" metric).
inline double slowdown(double measured_jct, double alone) {
  return measured_jct / alone;
}

/// Parse "--scale N", "--seed S", "--jobs N", "--csv F", "--json F",
/// "--bench-json F", "--policy P" overrides from a bench's argv.  scale
/// divides workload sizes so CI machines can run the large-scale simulations
/// faster; 1 reproduces the paper-scale setup.  jobs sets the sweep
/// worker-pool size (0 = one worker per hardware core).
/// Malformed or out-of-range values and unknown flags throw CheckError with a
/// message naming the offending argument.
struct BenchArgs {
  double scale = 1.0;
  bool scale_set = false;  ///< whether --scale was passed explicitly
  std::uint64_t seed = 1;
  unsigned jobs = 0;  ///< sweep workers; 0 = hardware_concurrency
  std::string csv;    ///< when set, ported benches write per-trial rows here
  std::string json;   ///< when set, ported benches write summary JSON here
  /// When set, perf benches write the BENCH_sched.json perf report here
  /// (see exp/bench_report.h for the schema).
  std::string bench_json;
  /// Scheduling-policy selection ("--policy NAME").  Empty = the bench's
  /// own default.  Benches that honour it resolve the name through
  /// exp/policy_zoo.h (parse_zoo_policy validates at parse time).
  std::string policy;

  static BenchArgs parse(int argc, char** argv);
  /// parse(), for a bench's main: a rejected argument prints the CheckError
  /// message to stderr and exits with status 2.
  static BenchArgs parse_or_exit(int argc, char** argv);
  /// value / scale, at least 1 (for counts).
  std::uint32_t scaled(std::uint32_t value) const;
};

}  // namespace ssr
