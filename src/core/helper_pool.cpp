#include "core/helper_pool.hpp"

#include <algorithm>
#include <chrono>
#include <latch>
#include <memory>

#include "common/check.hpp"
#include "common/log.hpp"

namespace ompc::core {

HelperPool::HelperPool(int threads, std::string label_prefix)
    : HelperPool(std::max(1, threads), std::max(1, threads), 0,
                 std::move(label_prefix)) {}

HelperPool::HelperPool(int min_threads, int max_threads,
                       std::int64_t idle_shrink_ms, std::string label_prefix,
                       std::atomic<std::int64_t>* spawn_counter)
    : min_(std::max(1, min_threads)),
      max_(std::max(std::max(1, min_threads), max_threads)),
      idle_shrink_ms_(idle_shrink_ms),
      label_(std::move(label_prefix)),
      spawn_counter_(spawn_counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (live_ < min_) spawn_locked();
}

HelperPool::~HelperPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A worker seeing stop_ returns with its handle still in threads_; one
    // racing the flag into its retire path has already moved its handle to
    // reap_. Either way the handle is in exactly one of the two lists.
    for (auto& [slot, t] : threads_) to_join.push_back(std::move(t));
    threads_.clear();
    to_join.insert(to_join.end(), std::make_move_iterator(reap_.begin()),
                   std::make_move_iterator(reap_.end()));
    reap_.clear();
  }
  for (auto& t : to_join) t.join();
}

int HelperPool::num_threads() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

void HelperPool::spawn_locked() {
  const std::int64_t slot = next_slot_++;
  threads_.emplace(
      slot, std::thread([this, slot, label = label_ + std::to_string(slot)] {
        log::set_thread_label(label);
        worker_main(slot);
      }));
  ++live_;
  threads_spawned_.fetch_add(1, std::memory_order_relaxed);
  if (spawn_counter_ != nullptr)
    spawn_counter_->fetch_add(1, std::memory_order_relaxed);
  int peak = peak_threads_.load(std::memory_order_relaxed);
  while (live_ > peak &&
         !peak_threads_.compare_exchange_weak(peak, live_,
                                              std::memory_order_relaxed)) {
  }
}

void HelperPool::reserve(int target) {
  std::vector<std::thread> to_reap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OMPC_CHECK_MSG(!stop_, "reserve on a stopped helper pool");
    const int want = std::min(max_, target);
    while (live_ < want) spawn_locked();
    ++demand_epoch_;
    to_reap.swap(reap_);
  }
  // Join retired threads outside the lock (they have already exited or are
  // unwinding their last stack frames; this just releases the handles).
  for (auto& t : to_reap) t.join();
}

void HelperPool::submit(std::function<void()> job) {
  std::vector<std::thread> to_reap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OMPC_CHECK_MSG(!stop_, "submit on a stopped helper pool");
    queue_.push_back(std::move(job));
    // No growth here: submit-time queue pressure depends on job-completion
    // timing, which would make the spawn count nondeterministic across
    // identical waves (the hotpath gates assert it exactly). Growth is the
    // callers' announced demand — reserve().
    to_reap.swap(reap_);
  }
  cv_.notify_one();
  for (auto& t : to_reap) t.join();
}

void HelperPool::worker_main(std::int64_t slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    bool timed_out = false;
    const std::uint64_t epoch = demand_epoch_;
    ++idle_;
    if (idle_shrink_ms_ > 0) {
      timed_out =
          !cv_.wait_for(lock, std::chrono::milliseconds(idle_shrink_ms_),
                        [this] { return stop_ || !queue_.empty(); });
    } else {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    }
    --idle_;
    if (!queue_.empty()) {
      std::function<void()> job = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      job();
      jobs_run_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      continue;
    }
    if (stop_) return;  // drained
    if (timed_out && live_ > min_ && epoch == demand_epoch_) {
      // Idle shrink: retire this thread. It cannot join itself, so the
      // handle moves to reap_ for the next submit (or the destructor).
      --live_;
      threads_retired_.fetch_add(1, std::memory_order_relaxed);
      if (auto it = threads_.find(slot); it != threads_.end()) {
        reap_.push_back(std::move(it->second));
        threads_.erase(it);
      }
      return;
    }
    // Timed out at the floor or across a reserve() (or a spurious wake):
    // keep waiting.
  }
}

void fan_out(HelperPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Announce the fan-out width (n-1 pool jobs; fn(0) runs inline) so an
  // elastic pool grows to cover it — deterministic per call site.
  pool.reserve(static_cast<int>(n - 1));
  // Shared, not stack-allocated: wait() can return while the last job is
  // still inside count_down()'s notify, which would race a stack latch's
  // destructor; the jobs' copies keep it alive past that window. (fn and
  // errors stay stack refs — their writes happen before count_down, which
  // wait() synchronizes with.)
  auto done =
      std::make_shared<std::latch>(static_cast<std::ptrdiff_t>(n - 1));
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 1; i < n; ++i) {
    pool.submit([&fn, &errors, done, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      done->count_down();
    });
  }
  try {
    fn(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  done->wait();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ompc::core
