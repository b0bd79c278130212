// Host-speed probe.
//
// On a shared host the same pass runs up to twice as long, for seconds to
// minutes at a time, while co-tenants load the core and its caches; a slow
// stretch can cover a whole run.  The probe is a fixed amount of work that
// does not touch the library, so no change to the library moves it, of the
// kinds the engine spends its time on: a pointer chase through a table
// larger than the private caches, and binary-heap and hash-map churn.  Run
// in short slices between a pass's segments, it measures how fast the host
// was while the pass ran, and host-time metrics are scaled to the probe's
// reference speed.
#pragma once

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  HostProbe();

  /// Runs one slice of the fixed work; returns its wall time in seconds.
  double slice();

  /// Slice time the host-time metrics are scaled to: a pass whose slices
  /// averaged twice this is counted at half its wall time.  It only sets
  /// the scale of the host-time metrics, so it must never change: a new
  /// value would rescale every result measured before it.
  static constexpr double kReferenceSliceS = 20e-6;

 private:
  std::vector<std::uint32_t> next_;  ///< one cycle through every entry
  std::uint32_t at_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  std::priority_queue<std::uint64_t> heap_;
  std::unordered_map<std::uint32_t, std::uint64_t> table_;
};

}  // namespace perfbench
