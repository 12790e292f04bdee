// Nonblocking-operation handles (like MPI_Request).
//
// A Request is a shared handle onto the operation's completion state. Send
// requests complete at submission (eager protocol copies the payload);
// receive requests complete when the matching engine fills the buffer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "minimpi/types.hpp"

namespace ompc::mpi {

namespace detail {

/// Shared completion state. The matching engine fills `status` and flips
/// `done` under `mutex`; waiters block on `cv`, and an event-driven owner
/// registers a one-shot `on_complete` hook instead of polling.
struct RequestState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Rank killed_rank = -1;  ///< >= 0: completed by poison, wait() throws
  Status status;

  // Receive-side destination; unused (empty) for send requests.
  std::byte* buffer = nullptr;
  std::size_t capacity = 0;

  // Matching criteria for pending receives (needed for cancellation-free
  // bookkeeping and debug dumps).
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  ContextId context = 0;

  /// One-shot completion hook (see on_complete); empty when none is set.
  std::function<void()> hook;

  void complete(const Status& st) {
    std::function<void()> fire;
    {
      std::lock_guard<std::mutex> lock(mutex);
      status = st;
      done = true;
      fire.swap(hook);
    }
    cv.notify_all();
    if (fire) fire();
  }

  /// Fault injection: completes the request exceptionally — the owning rank
  /// died, so waiters must unwind rather than block forever.
  void kill(Rank rank) {
    std::function<void()> fire;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (done) return;  // already matched; the data won a race with death
      killed_rank = rank;
      done = true;
      fire.swap(hook);
    }
    cv.notify_all();
    if (fire) fire();
  }

  /// Registers `fn` to run exactly once when the request completes (data or
  /// kill), on the completing thread and outside `mutex`; it replaces any
  /// hook not yet fired. An already-complete request runs `fn` at once, in
  /// the caller. The hook must not block: it runs on delivery threads.
  void on_complete(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!done) {
        hook = std::move(fn);
        return;
      }
    }
    fn();
  }
};

}  // namespace detail

/// Handle to a nonblocking operation. Copyable; all copies refer to the
/// same operation.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the operation completes; returns its Status. Throws
  /// RankKilledError if the operation's rank was killed while it waited.
  Status wait() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->killed_rank >= 0) throw RankKilledError(state_->killed_rank);
    return state_->status;
  }

  /// Nonblocking completion check; fills `out` when complete.
  bool test(Status* out = nullptr) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->done) return false;
    if (state_->killed_rank >= 0) throw RankKilledError(state_->killed_rank);
    if (out != nullptr) *out = state_->status;
    return true;
  }

  /// Runs `fn` once when the operation completes (see
  /// RequestState::on_complete) — at once if it already has.
  void on_complete(std::function<void()> fn) const {
    state_->on_complete(std::move(fn));
  }

  std::shared_ptr<detail::RequestState> state() const { return state_; }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

/// Waits for every request in `reqs` (like MPI_Waitall).
inline void wait_all(std::span<Request> reqs) {
  for (auto& r : reqs) r.wait();
}
inline void wait_all(std::vector<Request>& reqs) {
  wait_all(std::span<Request>(reqs));
}

/// One request that completes once every request in `reqs` has (a
/// nonblocking MPI_Waitall). It fails — wait()/test() throw RankKilledError
/// — when any member was killed, but only after all members completed, so
/// no member is still in flight when the composite reports. Takes each
/// member's completion hook; an empty `reqs` yields a completed request.
inline Request when_all(std::span<const Request> reqs) {
  auto all = std::make_shared<detail::RequestState>();
  if (reqs.empty()) {
    all->complete(Status{});
    return Request(all);
  }
  struct Join {
    std::mutex mutex;
    std::size_t left = 0;
    Rank killed = -1;
  };
  auto join = std::make_shared<Join>();
  join->left = reqs.size();
  for (const Request& r : reqs) {
    // Weak: a member's hook must not keep the member itself alive.
    r.on_complete([all, join,
                   member = std::weak_ptr<detail::RequestState>(r.state())] {
      Rank dead = -1;
      if (const auto m = member.lock()) {
        std::lock_guard<std::mutex> lock(m->mutex);
        dead = m->killed_rank;
      }
      bool last = false;
      Rank killed = -1;
      {
        std::lock_guard<std::mutex> lock(join->mutex);
        if (join->killed < 0) join->killed = dead;
        last = --join->left == 0;
        killed = join->killed;
      }
      if (!last) return;
      if (killed >= 0)
        all->kill(killed);
      else
        all->complete(Status{});
    });
  }
  return Request(all);
}

}  // namespace ompc::mpi
