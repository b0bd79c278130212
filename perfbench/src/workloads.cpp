#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/run_digest.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/engine_metrics.h"
#include "ssr/metrics/registry.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"
#include "ssr/workload/mlbench.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kHighPriority = 10;
/// Closed runs are stepped with advance_to on this simulated-time grid (and
/// the open-stage count sampled at each step) up to the last submit time;
/// the run can only end after that, so stepping never moves the final
/// settle and the outcome stays identical to one run() call.
constexpr double kStepSeconds = 10.0;
/// A probe slice runs after the first segment that ends this much live
/// time after the previous slice.
constexpr double kProbeEveryS = 0.002;

// fig15_ssr: the paper's Fig. 15 (a) SQL cell at full scale — 1000 nodes x
// 4 slots, 8000 background jobs over an hour, 20 foreground SQL queries at
// priority 10, SSR at P = 1 with only the foreground reserving.
Inputs generate_fig15(std::uint64_t seed) {
  Inputs in;
  ssr::TraceGenConfig bg;
  bg.num_jobs = 8000;
  bg.window = 3600.0;
  bg.seed = seed + 42;
  in.jobs = ssr::make_background_jobs(bg);
  for (std::uint32_t q = 0; q < 20; ++q) {
    ssr::SqlJobParams p;
    p.query_index = q;
    p.base_parallelism = 20;
    p.priority = kHighPriority;
    p.submit_time = bg.window * 0.2 + 30.0 * q;
    in.jobs.push_back(ssr::make_sql_query(p));
  }
  in.options.sched.locality_wait = 3.0;
  in.options.sched.locality_slowdown = 5.0;
  in.options.ssr = ssr::SsrConfig{};
  in.options.ssr->min_reserving_priority = 1;
  in.options.seed = seed;
  return in;
}

// open_ssr: an open system — 200 nodes x 4 slots, an interactive tenant
// (priority 10) and a batch tenant (priority 0) with Poisson arrivals, SSR
// at P = 0.9 with straggler copies on reserved slots.
Inputs generate_open(std::uint64_t seed) {
  Inputs in;
  std::vector<ssr::OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "interactive",
                      .mean_interarrival = 4.0,
                      .num_jobs = 2000,
                      .min_parallelism = 4,
                      .max_parallelism = 16,
                      .priority = kHighPriority});
  profiles.push_back({.tenant = "batch",
                      .mean_interarrival = 10.0,
                      .num_jobs = 800,
                      .min_parallelism = 8,
                      .max_parallelism = 64,
                      .priority = 0});
  in.arrivals = ssr::make_open_arrivals(profiles, seed + 7);
  in.options.ssr = ssr::SsrConfig{};
  in.options.ssr->isolation_p = 0.9;
  in.options.ssr->enable_straggler_mitigation = true;
  in.options.ssr->min_reserving_priority = 1;
  in.options.seed = seed;
  return in;
}

// faulted_capture: 400 nodes x 2 slots, 2400 background jobs plus one
// KMeans job, the baseline scheduler (no SSR), random node failures seen
// through the heartbeat detector; the run is recorded and replayed.
Inputs generate_faulted(std::uint64_t seed) {
  Inputs in;
  ssr::TraceGenConfig bg;
  bg.num_jobs = 2400;
  bg.window = 1800.0;
  bg.seed = seed + 42;
  in.jobs = ssr::make_background_jobs(bg);
  in.jobs.push_back(ssr::make_kmeans(60, kHighPriority, bg.window * 0.25));

  ssr::RandomFailureConfig fc;
  fc.num_nodes = 400;
  fc.horizon = bg.window * 1.25;
  fc.failures = fc.num_nodes / 8;
  fc.min_downtime = 30.0;
  fc.max_downtime = 300.0;
  fc.permanent_fraction = 0.2;
  fc.seed = seed + 7;
  in.options.failures = ssr::make_random_node_failures(fc);
  in.options.detector.heartbeat_period = 2.0;
  in.options.detector.timeout_beats = 3;
  in.options.detector.heartbeat_loss = 0.02;
  in.options.detector.seed = seed + 11;
  in.options.seed = seed;
  return in;
}

ssr::OpenScenarioSpec open_tenants(std::uint32_t total_slots) {
  ssr::OpenScenarioSpec spec;
  spec.tenants.push_back({.name = "interactive",
                          .min_slots = total_slots / 4,
                          .max_slots = total_slots / 2,
                          .queue_when_full = true});
  spec.tenants.push_back({.name = "batch",
                          .min_slots = total_slots / 2,
                          .max_slots = total_slots,
                          .queue_when_full = true});
  return spec;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    w.push_back({.name = "fig15_ssr",
                 .cluster = {.nodes = 1000,
                             .slots_per_node = 4,
                             .node_slots = {}},
                 .tenants = {},
                 .capture = false,
                 .generate = generate_fig15});
    w.push_back({.name = "open_ssr",
                 .cluster = {.nodes = 200,
                             .slots_per_node = 4,
                             .node_slots = {}},
                 .tenants = open_tenants(200 * 4),
                 .capture = false,
                 .generate = generate_open});
    w.push_back({.name = "faulted_capture",
                 .cluster = {.nodes = 400,
                             .slots_per_node = 2,
                             .node_slots = {}},
                 .tenants = {},
                 .capture = true,
                 .generate = generate_faulted});
    return w;
  }();
  return all;
}

bool is_open(const Workload& w) { return !w.tenants.tenants.empty(); }

std::string digest_of(const ssr::RunResult& run) {
  std::ostringstream out;
  ssr::append_run_digest(out, "run", run);
  return out.str();
}

/// What set-up builds; the pass then steps and collects it.  Built in
/// place: the traced hook factory writes `traced_manager` while the harness
/// is constructed.
struct Setup {
  Inputs in;
  std::unique_ptr<ssr::ScenarioHarness> harness;
  std::unique_ptr<ssr::VirtualClusterManager> vcm;
  std::unique_ptr<ssr::MetricsRegistry> registry;
  std::unique_ptr<ssr::EngineMetrics> metrics;
  std::unique_ptr<ssr::TraceRecorder> recorder;
  std::unique_ptr<TimedObservers> timed;
  std::unique_ptr<CountingObserver> counts;
  TracedReservationManager* traced_manager = nullptr;
  std::vector<ssr::JobId> ids;  ///< closed workloads, submission order
  ssr::SimTime last_submit = 0.0;
};

// The capture's policy label.
constexpr const char* kPolicyLabel = "run";

void build_setup(const Workload& w, std::uint64_t seed, bool traced,
                 Tracer& tracer, Setup& s) {
  {
    const Span span(tracer, Layer::kWorkloadGen);
    s.in = w.generate(seed);
  }
  ssr::RunOptions& opts = s.in.options;
  if (traced && opts.ssr) {
    const ssr::SsrConfig config = *opts.ssr;
    opts.hook_factory = [&tracer, &s,
                         config]() -> std::unique_ptr<ssr::ReservationHook> {
      auto manager = std::make_unique<TracedReservationManager>(config, tracer);
      s.traced_manager = manager.get();
      return manager;
    };
  }
  {
    const Span span(tracer, Layer::kExpHarness);
    s.harness = std::make_unique<ssr::ScenarioHarness>(w.cluster, opts);
    ssr::Engine& engine = s.harness->engine();
    if (is_open(w)) {
      s.vcm = std::make_unique<ssr::VirtualClusterManager>(engine);
      for (const ssr::VirtualClusterSpec& tenant : w.tenants.tenants) {
        s.vcm->add_cluster(tenant);
      }
    }
    if (w.capture) {
      s.recorder = std::make_unique<ssr::TraceRecorder>(
          w.cluster.nodes, engine.cluster().num_slots(), opts.seed,
          kPolicyLabel, /*counts_expired=*/opts.ssr.has_value());
      s.recorder->set_detector_outcome(
          s.harness->detection().suspicions.size(),
          s.harness->detection().false_suspicions());
      s.registry = std::make_unique<ssr::MetricsRegistry>();
      s.metrics =
          std::make_unique<ssr::EngineMetrics>(*s.registry, kPolicyLabel);
      if (traced) {
        s.timed = std::make_unique<TimedObservers>(
            tracer, std::vector<ssr::EngineObserver*>{s.recorder.get(),
                                                      s.metrics.get()});
        engine.add_observer(s.timed.get());
      } else {
        engine.add_observer(s.recorder.get());
        engine.add_observer(s.metrics.get());
      }
    }
    if (traced) {
      s.counts = std::make_unique<CountingObserver>();
      engine.add_observer(s.counts.get());
    }
  }
  if (!is_open(w)) {
    const Span span(tracer, Layer::kSchedSubmit);
    ssr::Engine& engine = s.harness->engine();
    s.ids.reserve(s.in.jobs.size());
    for (ssr::JobSpec& spec : s.in.jobs) {
      s.last_submit = std::max(s.last_submit, spec.submit_time);
      s.ids.push_back(engine.submit(std::move(spec)));
    }
  }
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

PassResult run_pass(const Workload& w, std::uint64_t seed, bool traced,
                    Tracer& tracer, HostProbe* probe) {
  tracer.reset();
  PassResult out;
  Setup s;
  const Clock::time_point setup_start = Clock::now();
  build_setup(w, seed, traced, tracer, s);
  out.setup_s = seconds_since(setup_start);
  ssr::Engine& engine = s.harness->engine();

  double open_sum = 0.0;
  std::uint64_t samples = 0;
  const auto sample = [&] {
    if (!s.counts) return;
    open_sum += static_cast<double>(s.counts->open_stages);
    ++samples;
    out.open_stages_peak =
        std::max(out.open_stages_peak, s.counts->open_stages);
    out.pending_peak = std::max<std::uint64_t>(out.pending_peak,
                                               engine.sim().pending_events());
  };

  const Clock::time_point live_start = Clock::now();
  Clock::time_point segment_start = live_start;
  double since_slice_s = 0.0;
  const auto end_segment = [&] {
    out.segment_s.push_back(seconds_since(segment_start));
    since_slice_s += out.segment_s.back();
    if (probe != nullptr && since_slice_s >= kProbeEveryS) {
      out.probe_s += probe->slice();
      ++out.probe_slices;
      since_slice_s = 0.0;
    }
    segment_start = Clock::now();
  };
  std::map<std::string, std::vector<double>> arrivals_by_tenant;
  if (is_open(w)) {
    out.submitted = s.in.arrivals.size();
    for (ssr::OpenArrival& arrival : s.in.arrivals) {
      {
        const Span span(tracer, Layer::kSchedStep);
        engine.advance_to(arrival.at);
      }
      sample();
      arrivals_by_tenant[arrival.tenant].push_back(arrival.at);
      {
        const Span span(tracer, Layer::kSchedSubmit);
        s.vcm->submit_job(arrival.tenant, std::move(arrival.spec));
      }
      end_segment();
    }
  } else {
    out.submitted = s.ids.size();
    for (int k = 1; k * kStepSeconds < s.last_submit; ++k) {
      {
        const Span span(tracer, Layer::kSchedStep);
        engine.advance_to(k * kStepSeconds);
      }
      sample();
      end_segment();
    }
  }
  // Past the last submit, run the remaining events on the same grid so the
  // tail splits into segments too.  Simulator::step_until leaves simulated
  // time at the last event it ran, so drain() then settles the run exactly
  // where it would have alone.
  ssr::Simulator& sim = engine.sim();
  for (ssr::SimTime horizon = engine.now() + kStepSeconds;
       sim.next_event_time() != ssr::kTimeInfinity; horizon += kStepSeconds) {
    {
      const Span span(tracer, Layer::kSchedStep);
      while (sim.step_until(horizon)) {
      }
    }
    end_segment();
  }
  {
    const Span span(tracer, Layer::kSchedStep);
    engine.drain();
  }
  end_segment();

  std::vector<ssr::JobId> ids = s.ids;
  if (is_open(w)) {
    // Admitted jobs got dense ids in admission order.
    for (std::uint32_t i = 0; i < engine.num_jobs(); ++i) {
      ids.push_back(ssr::JobId{i});
    }
  }
  std::string capture;
  {
    const Span span(tracer, Layer::kExpCollect);
    out.run = s.harness->collect(ids);
    if (s.vcm) {
      // The tenant rows run_open_scenario() adds.
      for (const std::string& name : s.vcm->tenant_names()) {
        const ssr::VirtualClusterSpec& shares = s.vcm->spec(name);
        const ssr::TenantStats& stats = s.vcm->stats(name);
        out.run.tenants.push_back({.name = name,
                                   .min_slots = shares.min_slots,
                                   .max_slots = shares.max_slots,
                                   .submitted = stats.submitted,
                                   .admitted = stats.admitted,
                                   .rejected = stats.rejected,
                                   .completed = stats.completed,
                                   .queued = stats.queued_total,
                                   .peak_demand = stats.peak_demand_in_flight,
                                   .mean_queue_delay = stats.mean_queue_delay(),
                                   .max_queue_delay = stats.max_queue_delay,
                                   .mean_jct = stats.mean_jct()});
      }
    }
    if (s.recorder) {
      ssr::record_recovery(*s.registry, out.run.recovery, kPolicyLabel);
      const Span serialize(tracer, Layer::kMetricsSerialize);
      capture = s.recorder->serialize();
    }
  }
  end_segment();
  for (const double segment : out.segment_s) out.live_s += segment;
  out.digest = digest_of(out.run);

  // --- Outcome and correctness --------------------------------------------
  out.not_completed = out.submitted - ids.size();
  for (const ssr::JobId id : ids) {
    if (!engine.job_finished(id)) ++out.not_completed;
  }
  std::map<std::string, std::size_t> next_arrival;
  for (const ssr::JobResult& job : out.run.jobs) {
    double arrived = job.submit;
    if (is_open(w)) {
      // Admission is FIFO per tenant, so a tenant's k-th admitted job is its
      // k-th arrival.
      const std::string& tenant = *s.vcm->tenant_of(job.id);
      arrived = arrivals_by_tenant.at(tenant).at(next_arrival[tenant]++);
    }
    if (job.priority >= kHighPriority) {
      out.hi_response_s.push_back(job.finish - arrived);
      out.hi_jct_s.push_back(job.jct);
    } else if (job.priority == 0) {
      out.bg_response_s.push_back(job.finish - arrived);
    }
  }

  out.sim_events = engine.sim().processed_events();
  if (s.counts) {
    out.open_stages_mean =
        samples == 0 ? 0.0 : open_sum / static_cast<double>(samples);
    out.reservations = s.counts->reservations;
    out.reservations_unclaimed = s.counts->reservations_unclaimed;
  }
  if (s.traced_manager != nullptr) {
    out.copies_launched = s.traced_manager->copies_launched();
  }

  if (w.capture) {
    const Clock::time_point replay_start = Clock::now();
    std::optional<ssr::TraceReplayer> replayer;
    {
      const Span span(tracer, Layer::kMetricsParse);
      replayer.emplace(ssr::TraceReplayer::from_bytes(capture));
    }
    ssr::ReplayResultBuilder fold;
    {
      const Span span(tracer, Layer::kExpReplayFold);
      replayer->replay({&fold});
    }
    ssr::audit::ReplayAuditor auditor;
    {
      const Span span(tracer, Layer::kAuditReplay);
      replayer->replay({&auditor});
    }
    out.replay_s = seconds_since(replay_start);
    out.capture_events = replayer->events().size();
    out.capture_bytes = capture.size();
    if (!fold.complete()) {
      out.check_failures.push_back("replay did not reach run completion");
    } else if (digest_of(fold.result()) != out.digest) {
      out.check_failures.push_back("replayed digest differs from the live run");
    }
    if (!auditor.clean()) {
      out.check_failures.push_back("replay audit found invariant violations");
    }
  }
  if (traced) out.layers = tracer.totals();
  return out;
}

double setup_only(const Workload& workload, std::uint64_t seed) {
  Tracer tracer;
  Setup s;
  const Clock::time_point start = Clock::now();
  build_setup(workload, seed, /*traced=*/false, tracer, s);
  return seconds_since(start);
}

std::vector<double> alone_jcts(const Workload& workload, std::uint64_t seed) {
  Inputs in = workload.generate(seed);
  std::vector<double> jcts;
  const auto alone = [&](ssr::JobSpec spec) {
    spec.submit_time = 0.0;
    jcts.push_back(
        ssr::alone_jct(workload.cluster, std::move(spec), in.options));
  };
  for (const ssr::JobSpec& spec : in.jobs) {
    if (spec.priority >= kHighPriority) alone(spec);
  }
  for (const ssr::OpenArrival& arrival : in.arrivals) {
    if (arrival.spec.priority >= kHighPriority) alone(arrival.spec);
  }
  return jcts;
}

std::string reference_digest(const Workload& workload, std::uint64_t seed) {
  Inputs in = workload.generate(seed);
  if (is_open(workload)) {
    return digest_of(ssr::run_open_scenario(workload.cluster, workload.tenants,
                                            std::move(in.arrivals),
                                            in.options));
  }
  return digest_of(
      ssr::run_scenario(workload.cluster, std::move(in.jobs), in.options));
}

}  // namespace perfbench
