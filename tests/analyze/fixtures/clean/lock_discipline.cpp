// Clean counterpart: every access to mutex-guarded state takes the lock
// (including inside the wait predicate lambda, which runs under the lock);
// `workers_` is written only in the constructor and is immutable after, so
// it needs no lock at all.
// Expected: ssr-analyze reports nothing.
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace fixture {

class CleanQueue {
 public:
  CleanQueue() {
    workers_.emplace_back([] {});
  }

  void push(int v) {
    std::lock_guard<std::mutex> lk(mu_);
    items_.push_back(v);
    count_ = items_.size();
    cv_.notify_one();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return count_;
  }

  int pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !items_.empty(); });
    int v = items_.front();
    items_.pop_front();
    count_ = items_.size();
    return v;
  }

  std::size_t worker_count() const { return workers_.size(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> items_;
  std::size_t count_ = 0;
  std::vector<std::thread> workers_;  // const after construction
};

}  // namespace fixture
