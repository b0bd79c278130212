// Structured metrics registry with labeled metric groups.
//
// The registry follows the group/registry split of production metric stacks
// (cf. ray's metrics group interfaces): a MetricsRegistry owns every metric
// instance; a MetricGroup is a cheap handle binding a fixed label set (e.g.
// {tenant=interactive} or {policy=ssr}), and resolving the same
// (name, labels) pair always yields the same instance, so collectors in
// different subsystems can contribute to one series without coordinating.
//
// Three metric types cover what the simulator reports:
//   Counter    monotonically increasing event counts (tasks started, jobs
//              admitted, reservations expired);
//   Gauge      last-written values (shares, peak demand, utilization);
//   Histogram  distribution over fixed upper-bound buckets (task durations,
//              JCTs), exported with cumulative Prometheus-style counts.
//
// Export is a single JSON document (schema "ssr-metrics-v1"), written by
// examples/open_server; metrics appear in creation order and every double as
// its shortest round-trip decimal, so two runs of the same binary produce
// byte-identical documents.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ssr {

/// One (key, value) label pair; a label set is an ordered vector of these.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram.  `bounds` are strictly increasing upper bounds; an
/// implicit +inf bucket catches the overflow.  observe(v) lands v in the
/// first bucket whose bound is >= v (Prometheus "le" semantics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1, the
  /// last entry being the +inf overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// Cumulative count of observations <= bounds()[i].
  std::uint64_t cumulative(std::size_t i) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry;

/// A label-scoped view of the registry.  Copyable value handle; all storage
/// stays in the registry, so groups can be created on the fly per tenant or
/// per policy without lifetime concerns (beyond the registry's own).
class MetricGroup {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Resolving an existing histogram re-checks the bounds: asking for the
  /// same series with different buckets is a programming error (CheckError).
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  const MetricLabels& labels() const { return labels_; }

 private:
  friend class MetricsRegistry;
  MetricGroup(MetricsRegistry& registry, MetricLabels labels)
      : registry_(&registry), labels_(std::move(labels)) {}

  MetricsRegistry* registry_;
  MetricLabels labels_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Label-scoped group; group({}) is the unlabeled root group.
  MetricGroup group(MetricLabels labels);

  /// Unlabeled conveniences (equivalent to group({}).x(...)).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  std::size_t num_metrics() const { return entries_.size(); }

  /// Write every metric, in creation order, as one JSON document
  /// (schema "ssr-metrics-v1").
  void write_json(std::ostream& os) const;
  /// Write to `path`; throws CheckError if the file cannot be opened.
  void write_json_file(const std::string& path) const;

 private:
  friend class MetricGroup;

  enum class Kind { Counter, Gauge, Histogram };

  struct Entry {
    std::string name;
    MetricLabels labels;
    Kind kind;
    // Exactly one is non-null, matching `kind`.  unique_ptr keeps references
    // stable as entries_ grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& resolve(const std::string& name, const MetricLabels& labels,
                 Kind kind, const std::vector<double>* bounds);
  static std::string key_of(const std::string& name,
                            const MetricLabels& labels);

  std::vector<std::unique_ptr<Entry>> entries_;  ///< creation order
  std::map<std::string, std::size_t> index_;     ///< key -> entries_ index
};

}  // namespace ssr
