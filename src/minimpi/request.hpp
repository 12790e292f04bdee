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
#include <stdexcept>
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

  /// Re-armable slot (persistent request): the same state object cycles
  /// through start()/wait() instead of being allocated per operation, and
  /// the dead-rank drop path fails it by source (see
  /// Mailbox::fail_persistent_from) so an armed receive from a corpse never
  /// lingers as a zombie pre-posted slot.
  bool persistent = false;

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

/// A re-armable nonblocking operation (like MPI_Send_init / MPI_Recv_init /
/// a persistent put). Buffer, peer, tag and shape are fixed at creation by
/// Comm::send_init/recv_init/put_init; each start()/wait() cycle re-uses the
/// same completion slot — no mailbox-slot allocation, no window
/// re-resolution. Move-only; destroying a still-armed request disarms it
/// (removes the pre-posted slot) so it can never outlive its buffer.
///
/// Kills are sticky: once a cycle failed with RankKilledError, every later
/// start() throws the same error — recreate the channel after recovery.
class PersistentRequest {
 public:
  PersistentRequest() = default;
  PersistentRequest(std::shared_ptr<detail::RequestState> state,
                    std::function<void()> arm,
                    std::function<void()> disarm = {})
      : state_(std::move(state)),
        arm_(std::move(arm)),
        disarm_(std::move(disarm)) {}

  PersistentRequest(PersistentRequest&& other) noexcept { swap(other); }
  PersistentRequest& operator=(PersistentRequest&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  PersistentRequest(const PersistentRequest&) = delete;
  PersistentRequest& operator=(const PersistentRequest&) = delete;
  ~PersistentRequest() { release(); }

  bool valid() const noexcept { return state_ != nullptr; }
  bool armed() const noexcept { return armed_; }
  /// Completed start()/wait() cycles — the channel's reuse count.
  std::int64_t cycles() const noexcept { return cycles_; }

  /// Arms the operation for one cycle. A completed-but-unwaited cycle is
  /// reclaimed implicitly; starting while the previous cycle is genuinely
  /// in flight is a caller bug (std::logic_error). Throws RankKilledError
  /// when a previous cycle was killed or the peer is already dead.
  void start() {
    if (state_ == nullptr)
      throw std::logic_error("start() on an empty PersistentRequest");
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->killed_rank >= 0) {
        armed_ = false;
        throw RankKilledError(state_->killed_rank);
      }
      if (armed_) {
        if (!state_->done)
          throw std::logic_error(
              "PersistentRequest::start() while the previous cycle is still "
              "in flight (missing wait())");
        ++cycles_;  // implicit reclaim of a completed, unwaited cycle
      }
      armed_ = false;
      state_->done = false;
      state_->status = Status{};
      state_->hook = nullptr;  // a new cycle starts with no hook
    }
    arm_();  // may throw (poisoned mailbox, dead peer): stays disarmed
    armed_ = true;
  }

  /// Blocks for the armed cycle and returns the slot to the idle
  /// (re-armable) state. Throws RankKilledError if a rank died under it.
  Status wait() {
    if (!armed_)
      throw std::logic_error("PersistentRequest::wait() without start()");
    try {
      const Status st = Request(state_).wait();
      armed_ = false;
      ++cycles_;
      return st;
    } catch (...) {
      armed_ = false;  // the slot was killed; nothing left to disarm
      throw;
    }
  }

  /// Nonblocking poll; reclaims the cycle when complete.
  bool test(Status* out = nullptr) {
    if (!armed_)
      throw std::logic_error("PersistentRequest::test() without start()");
    try {
      if (!Request(state_).test(out)) return false;
    } catch (...) {
      armed_ = false;
      throw;
    }
    armed_ = false;
    ++cycles_;
    return true;
  }

  std::shared_ptr<detail::RequestState> state() const { return state_; }

 private:
  void swap(PersistentRequest& o) noexcept {
    state_.swap(o.state_);
    arm_.swap(o.arm_);
    disarm_.swap(o.disarm_);
    std::swap(armed_, o.armed_);
    std::swap(cycles_, o.cycles_);
  }
  void release() noexcept {
    if (armed_ && disarm_) {
      try {
        disarm_();
      } catch (...) {  // disarm during teardown races a kill: best effort
      }
    }
    armed_ = false;
  }

  std::shared_ptr<detail::RequestState> state_;
  std::function<void()> arm_;
  std::function<void()> disarm_;
  bool armed_ = false;
  std::int64_t cycles_ = 0;
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
