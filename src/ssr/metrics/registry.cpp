#include "ssr/metrics/registry.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "ssr/common/check.h"
#include "ssr/metrics/json.h"

namespace ssr {

// --- Histogram ----------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    SSR_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                  "histogram bounds must be strictly increasing (bounds["
                      << i - 1 << "]=" << bounds_[i - 1] << " >= bounds[" << i
                      << "]=" << bounds_[i] << ")");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  SSR_CHECK_LT(i, counts_.size());
  std::uint64_t total = 0;
  for (std::size_t k = 0; k <= i; ++k) total += counts_[k];
  return total;
}

// --- MetricGroup --------------------------------------------------------------

Counter& MetricGroup::counter(const std::string& name) {
  return *registry_
              ->resolve(name, labels_, MetricsRegistry::Kind::Counter, nullptr)
              .counter;
}

Gauge& MetricGroup::gauge(const std::string& name) {
  return *registry_
              ->resolve(name, labels_, MetricsRegistry::Kind::Gauge, nullptr)
              .gauge;
}

Histogram& MetricGroup::histogram(const std::string& name,
                                  std::vector<double> bounds) {
  return *registry_
              ->resolve(name, labels_, MetricsRegistry::Kind::Histogram,
                        &bounds)
              .histogram;
}

// --- MetricsRegistry ----------------------------------------------------------

MetricGroup MetricsRegistry::group(MetricLabels labels) {
  return MetricGroup(*this, std::move(labels));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return group({}).counter(name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return group({}).gauge(name);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  return group({}).histogram(name, std::move(bounds));
}

std::string MetricsRegistry::key_of(const std::string& name,
                                    const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::resolve(
    const std::string& name, const MetricLabels& labels, Kind kind,
    const std::vector<double>* bounds) {
  const std::string key = key_of(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = *entries_[it->second];
    SSR_CHECK_MSG(entry.kind == kind,
                  "metric '" << name
                             << "' re-requested with a different type");
    if (kind == Kind::Histogram) {
      SSR_CHECK_MSG(entry.histogram->bounds() == *bounds,
                    "histogram '" << name
                                  << "' re-requested with different buckets");
    }
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->kind = kind;
  switch (kind) {
    case Kind::Counter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::Gauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::Histogram:
      entry->histogram = std::make_unique<Histogram>(*bounds);
      break;
  }
  entries_.push_back(std::move(entry));
  index_[key] = entries_.size() - 1;
  return *entries_.back();
}

namespace {

void write_labels(std::ostream& os, const MetricLabels& labels) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  os << "}";
}

/// Shortest decimal text that reads back as exactly `v` (0.5, 1, 512,
/// 1482000.25), where the stream's default six significant digits would
/// round a sum like 1482000.25 to 1.482e+06.
void write_double(std::ostream& os, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  SSR_CHECK(ec == std::errc());
  os.write(buf, end - buf);
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"ssr-metrics-v1\",\n  \"metrics\": [";
  bool first = true;
  for (const auto& entry : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(entry->name) << "\", ";
    os << "\"labels\": ";
    write_labels(os, entry->labels);
    os << ", ";
    switch (entry->kind) {
      case Kind::Counter:
        os << "\"type\": \"counter\", \"value\": " << entry->counter->value();
        break;
      case Kind::Gauge:
        os << "\"type\": \"gauge\", \"value\": ";
        write_double(os, entry->gauge->value());
        break;
      case Kind::Histogram: {
        const Histogram& h = *entry->histogram;
        os << "\"type\": \"histogram\", \"count\": " << h.count()
           << ", \"sum\": ";
        write_double(os, h.sum());
        os << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << "{\"le\": ";
          write_double(os, h.bounds()[i]);
          os << ", \"count\": " << h.cumulative(i) << "}";
        }
        if (!h.bounds().empty()) os << ",";
        os << "{\"le\": \"inf\", \"count\": " << h.count() << "}]";
        break;
      }
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  SSR_CHECK_MSG(out.good(), "cannot open metrics JSON file " << path);
  write_json(out);
}

}  // namespace ssr
