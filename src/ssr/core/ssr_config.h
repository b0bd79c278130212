// Tuning knobs of speculative slot reservation.
#pragma once

#include <cstddef>
#include <limits>

namespace ssr {

struct SsrConfig {
  /// Isolation guarantee P in (0, 1] — the probability that a phase keeps
  /// all reserved slots through the barrier (Eq. 2).  P = 1 reserves with no
  /// deadline (strict isolation, maximum utilization loss); smaller values
  /// impose the Eq. (2)-derived deadline D = t_m (1 - P^{1/N})^{-1/alpha}.
  double isolation_p = 1.0;

  /// Operator's estimate of the workload's Pareto tail index, used by the
  /// deadline computation.  Production traces suggest ~1.6 (Sec. IV-C).
  double pareto_alpha = 1.6;

  /// Learn the tail index online from observed task durations, per job name
  /// (Sec. III-B Case-2: recurring jobs — 40% of production workloads — can
  /// have their parameters learned from previous runs).  When enough samples
  /// exist for a job's name, the learned Hill estimate replaces
  /// `pareto_alpha` in the deadline computation.
  bool learn_tail_index = false;

  /// Minimum completed-task samples per job name before the learned tail
  /// index is trusted.
  std::size_t tail_min_samples = 100;

  /// Fraction of the largest samples the Hill estimator uses.
  double tail_fraction = 0.1;

  /// Pre-reservation threshold R (Algorithm 1, Case m < n): once this
  /// fraction of the current phase's tasks has finished, start grabbing the
  /// extra n - m slots released by other jobs.
  double prereserve_threshold = 0.5;

  /// Master switch for pre-reservation (Case-2.3).
  bool enable_prereservation = true;

  /// Turn reserved-but-idle slots into straggler mitigators (Sec. IV-C).
  bool enable_straggler_mitigation = false;

  /// Only jobs with priority >= this value make reservations.  Defaults to
  /// "every job" — the paper's general mechanism; experiments can restrict
  /// reservations to the latency-sensitive foreground class.
  int min_reserving_priority = std::numeric_limits<int>::min();
};

}  // namespace ssr
