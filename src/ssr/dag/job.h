// Workflow job descriptions.
//
// A job is a DAG of stages (Spark terminology; the paper says "phases").
// Each stage is a set of parallel tasks separated from its parents by a
// barrier: no task of a stage may start until every task of every parent
// stage has finished.  The specs here are pure data; the scheduler consumes
// them through JobGraph, which validates the DAG and precomputes the
// child/parent relations Algorithm 1 needs (the "downstream phase" and its
// degree of parallelism).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ssr/common/distributions.h"
#include "ssr/common/ids.h"
#include "ssr/common/resources.h"
#include "ssr/common/time.h"

namespace ssr {

/// One phase of a job.
struct StageSpec {
  /// Degree of parallelism: number of parallel tasks.
  std::uint32_t num_tasks = 0;

  /// Per-task base durations are drawn i.i.d. from this distribution.  The
  /// straggler mitigator resamples from the same distribution for copies.
  DurationDistPtr duration;

  /// Indices (into JobSpec::stages) of upstream stages.  Must all be smaller
  /// than this stage's own index, i.e. stages are listed topologically.
  std::vector<std::uint32_t> parents;

  /// Optional explicit per-task durations (size == num_tasks).  When set,
  /// these override draws from `duration` for the original attempts; copies
  /// still sample from `duration`.  Used by deterministic tests and by the
  /// Fig. 17 Pareto runtime adjustment.
  std::optional<std::vector<double>> explicit_durations;

  /// Per-task resource demand (Sec. III-C): a task may only run on a slot
  /// whose capacity covers it.  Defaults to {1, 1, 1}, matching homogeneous
  /// Spark slots.
  Resources demand;
};

/// A whole workflow job.
struct JobSpec {
  std::string name;

  /// Owning tenant; empty = untenanted.  VirtualClusterManager sets it at
  /// admission, and the job's trace events carry it.
  std::string tenant;

  /// Scheduling priority; larger wins.  Reservations inherit this value.
  int priority = 0;

  /// Arrival time of the job at the scheduler.
  SimTime submit_time = kTimeZero;

  /// Whether the scheduler may use downstream parallelism a priori
  /// (Case-2 of Algorithm 1).  False models frameworks that only determine
  /// parallelism at runtime (Case-1): the reservation logic then assumes the
  /// downstream phase mirrors the current one.
  bool parallelism_known = true;

  /// Weight for fair scheduling (Spark fair scheduler pools); 1.0 default.
  double fair_weight = 1.0;

  /// Stages in topological order.
  std::vector<StageSpec> stages;
};

/// Validated view over a JobSpec with derived structure.  Construction
/// throws CheckError on malformed specs (empty stages, forward/self edges,
/// zero parallelism, missing duration model).
class JobGraph {
 public:
  JobGraph(JobId id, JobSpec spec);

  JobId id() const { return id_; }
  const JobSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  int priority() const { return spec_.priority; }
  SimTime submit_time() const { return spec_.submit_time; }

  std::uint32_t num_stages() const {
    return static_cast<std::uint32_t>(spec_.stages.size());
  }
  const StageSpec& stage(std::uint32_t index) const {
    return spec_.stages.at(index);
  }
  StageId stage_id(std::uint32_t index) const { return StageId{id_, index}; }

  /// Immediate downstream stages of `index`.
  const std::vector<std::uint32_t>& children(std::uint32_t index) const {
    return children_.at(index);
  }

  /// Stages with no parents (ready at submission).
  const std::vector<std::uint32_t>& roots() const { return roots_; }

  bool is_final_stage(std::uint32_t index) const {
    return children_.at(index).empty();
  }

  /// Total degree of parallelism of the immediate downstream stages — the
  /// "n" of Algorithm 1.  Returns nullopt for final stages, or when the job
  /// hides parallelism (Case-1: !parallelism_known).
  std::optional<std::uint32_t> downstream_parallelism(
      std::uint32_t index) const;

  /// Representative downstream stage a reservation made at `index` serves
  /// (the first child); nullopt for final stages.
  std::optional<std::uint32_t> first_child(std::uint32_t index) const;

  /// Sum of num_tasks over all stages.
  std::uint64_t total_tasks() const { return total_tasks_; }

 private:
  JobId id_;
  JobSpec spec_;
  std::vector<std::vector<std::uint32_t>> children_;
  std::vector<std::uint32_t> roots_;
  std::uint64_t total_tasks_ = 0;
};

/// Fluent builder for job specs.  `stage(n, dist)` appends a stage depending
/// on the previous stage (chain); `stage_with_parents` expresses general
/// DAGs.  Most paper workloads are chains of barriers.
class JobBuilder {
 public:
  explicit JobBuilder(std::string name);

  JobBuilder& priority(int p);
  JobBuilder& submit_at(SimTime t);
  JobBuilder& parallelism_known(bool known);
  JobBuilder& fair_weight(double w);

  /// Append a stage whose parent is the previously appended stage (or none
  /// if this is the first stage).
  JobBuilder& stage(std::uint32_t num_tasks, DurationDistPtr duration);

  /// Append a stage with explicit parent indices.
  JobBuilder& stage_with_parents(std::uint32_t num_tasks,
                                 DurationDistPtr duration,
                                 std::vector<std::uint32_t> parents);

  /// Set explicit per-task durations for the most recently added stage.
  JobBuilder& explicit_durations(std::vector<double> durations);

  /// Set the per-task resource demand of the most recently added stage.
  JobBuilder& demand(Resources demand);

  /// Finalize the spec.  The builder is left empty; build once per builder.
  JobSpec build();

 private:
  JobSpec spec_;
};

}  // namespace ssr
