#include "host_probe.h"

#include <chrono>
#include <cstddef>
#include <utility>

namespace perfbench {

namespace {

/// 512 KiB of chase entries: inside one core's private L2, so a slice
/// measures the core and its caches, not what the pass left in them.
constexpr std::size_t kEntries = std::size_t{1} << 17;
constexpr int kChaseSteps = 1000;
constexpr int kChurnOps = 100;
constexpr std::size_t kHeapSize = 1024;
constexpr std::uint64_t kTableKeys = 4096;

std::uint64_t xorshift(std::uint64_t& z) {
  z ^= z << 13;
  z ^= z >> 7;
  z ^= z << 17;
  return z;
}

}  // namespace

HostProbe::HostProbe() : next_(kEntries) {
  // Sattolo's shuffle makes one cycle through every entry, so the chase
  // never settles into a short loop; the fixed seed fixes the table.
  for (std::size_t i = 0; i < kEntries; ++i) {
    next_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t z = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    std::swap(next_[i], next_[xorshift(z) % i]);
  }
  for (std::size_t i = 0; i < kHeapSize; ++i) heap_.push(xorshift(rng_));
  // Every key present from the start: slices never rehash.
  for (std::uint32_t k = 0; k < kTableKeys; ++k) table_[k] = k;
}

double HostProbe::slice() {
  // Untimed: read the table in order, so the timed part starts from the
  // same cache state whatever the pass touched before.
  std::uint32_t warm = 0;
  for (const std::uint32_t entry : next_) warm += entry;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::uint32_t at = at_ ^ (warm & 1);
  for (int i = 0; i < kChaseSteps; ++i) at = next_[at];
  at_ = at;
  // Heap and table stay the same size: one push per pop, bounded keys.
  for (int i = 0; i < kChurnOps; ++i) {
    const std::uint64_t key = xorshift(rng_) ^ at;
    heap_.push(key);
    table_[static_cast<std::uint32_t>(key % kTableKeys)] += heap_.top();
    heap_.pop();
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
