#include "minimpi/network.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/log.hpp"

namespace ompc::mpi {

void use_exact_timer_slack() noexcept {
#if defined(__linux__)
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

DeliveryEngine::DeliveryEngine(NetworkModel model,
                               std::function<void(Envelope&&)> deliver)
    : pacer_(model), deliver_(std::move(deliver)) {
  thread_ = std::thread([this] {
    log::set_thread_label("net");
    use_exact_timer_slack();
    engine_main();
  });
}

DeliveryEngine::~DeliveryEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void DeliveryEngine::submit(Envelope&& env) {
  const TimePoint due = pacer_.due_for(env);
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The engine sleeps until the current head's deadline; only a message
    // due before it (or into an empty queue) moves that wakeup.
    earliest = queue_.empty() || due < queue_.top().due;
    queue_.push(Pending{due, next_seq_++, std::move(env)});
    ++submitted_;
  }
  if (earliest) cv_.notify_one();
}

std::int64_t DeliveryEngine::submitted() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

void DeliveryEngine::engine_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      continue;
    }
    const TimePoint due = queue_.top().due;
    if (Clock::now() < due) {
      // Woken early either by a new earlier message or by stop.
      cv_.wait_until(lock, due);
      if (stop_ && queue_.empty()) return;
      continue;
    }
    Envelope env = std::move(const_cast<Pending&>(queue_.top()).env);
    queue_.pop();
    lock.unlock();
    deliver_(std::move(env));
    lock.lock();
  }
}

}  // namespace ompc::mpi
