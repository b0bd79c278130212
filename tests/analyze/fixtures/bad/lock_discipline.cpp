// Seeded bug: `count_` is read/written under `mu_` in push() but touched
// with no lock in size_hint() — a race once a second thread exists.
// Expected: ssr-analyze flags [lock-discipline] at the unguarded access.
#include <cstddef>
#include <deque>
#include <mutex>

namespace fixture {

class BadQueue {
 public:
  void push(int v) {
    std::lock_guard<std::mutex> lk(mu_);
    items_.push_back(v);
    count_ = items_.size();
  }

  std::size_t size_hint() const {
    return count_;  // BAD: no lock; torn read candidate
  }

 private:
  mutable std::mutex mu_;
  std::deque<int> items_;
  std::size_t count_ = 0;
};

}  // namespace fixture
