#include "ssr/exp/bench_report.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/metrics/json.h"

namespace ssr {

namespace {

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void BenchReporter::add(BenchRecord record) {
  SSR_CHECK_MSG(!record.name.empty(), "bench record needs a name");
  records_.push_back(std::move(record));
}

void BenchReporter::write(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"ssr-bench-sched-v1\",\n";
  os << "  \"peak_rss_mb\": " << num(peak_rss_mb()) << ",\n";
  os << "  \"records\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    os << "    {\"name\": \"" << json_escape(r.name)
       << "\", \"items_per_second\": " << num(r.items_per_second)
       << ", \"wall_seconds\": " << num(r.wall_seconds) << '}'
       << (i + 1 < records_.size() ? "," : "") << '\n';
  }
  os << "  ]\n";
  os << "}\n";
}

void BenchReporter::write_file(const std::string& path) const {
  std::ofstream out(path);
  SSR_CHECK_MSG(out.good(), "cannot open bench report file " + path);
  write(out);
}

}  // namespace ssr
