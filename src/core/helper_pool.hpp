// Persistent, elastic helper pool for the head node's hot path.
//
// The dispatch engine used to create and join a pool of threads on *every
// wave* (mirroring one LLVM hidden-helper thread per in-flight target
// region), and the Data Manager spawned one std::thread per extra buffer of
// every multi-input task. Per-wave thread churn is exactly the head-side
// overhead the paper's Fig. 7a isolates, so both now submit jobs to pools
// that live for the whole launch: one dispatch pool (its *ceiling* still
// bounds in-flight target regions, preserving the HelperThreads/TwoStep
// semantics) and one transfer pool shared by all concurrent prepare_args
// calls.
//
// Elasticity: the old pools spawned their full ceiling (`16 + 3·W`, or 48
// helper threads) at launch even for a 2-worker test cluster. An elastic
// pool starts at a small floor and grows only when a caller ANNOUNCES
// demand (reserve(n) — the dispatcher passes the wave's task count, fan_out
// its job count). Announced demand is a pure function of the wave
// structure, never of job-completion timing, so identical waves grow the
// pool identically and the hotpath gates ("spawn count is wave-count
// independent", "0 spawns per steady wave") stay exact — a queue-pressure
// rule would flake on scheduler noise. An above-floor thread that sits
// idle for `idle_shrink_ms` retires, so a tenant burst's threads are given
// back once the burst drains. Under-announcing is safe: jobs queue behind
// the live threads (pool jobs never block on other pool jobs).
//
// Jobs must not throw — callers capture exceptions into their own state
// (the wave's first_error, a fetch group's error slots).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ompc::core {

class HelperPool {
 public:
  /// Fixed-size pool: spawns max(1, threads) workers once and keeps them
  /// until destruction (floor == ceiling, no shrink). `label_prefix` names
  /// the threads for log output ("hh0", "xfer3", ...).
  HelperPool(int threads, std::string label_prefix);

  /// Elastic pool: spawns `min_threads` upfront, grows on demand up to
  /// `max_threads` (the in-flight bound), retires above-floor threads idle
  /// for `idle_shrink_ms` (0 = never shrink). `spawn_counter`, when given,
  /// is incremented on every spawn — the owner's stats block sees mid-run
  /// growth without polling.
  HelperPool(int min_threads, int max_threads, std::int64_t idle_shrink_ms,
             std::string label_prefix,
             std::atomic<std::int64_t>* spawn_counter = nullptr);
  ~HelperPool();

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  /// Announces upcoming demand: grows the pool to min(ceiling, target)
  /// live threads. Deterministic — callers pass structural facts (task
  /// count of the wave, fan-out width), so identical work reserves
  /// identically. Never shrinks; also reaps retired-thread handles.
  void reserve(int target);

  /// Enqueues a job on the pool. Jobs run in FIFO order across the live
  /// threads (grown via reserve) and must not throw.
  void submit(std::function<void()> job);

  /// Threads currently alive (floor <= n <= ceiling at rest; transiently
  /// observable mid-grow/mid-retire).
  int num_threads() const noexcept;

  int max_threads() const noexcept { return max_; }
  int min_threads() const noexcept { return min_; }

  /// Jobs executed since construction (test/bench hook).
  std::int64_t jobs_run() const noexcept {
    return jobs_run_.load(std::memory_order_relaxed);
  }

  /// Cumulative spawns (launch floor + demand growth).
  std::int64_t threads_spawned() const noexcept {
    return threads_spawned_.load(std::memory_order_relaxed);
  }

  /// Threads retired by the idle-shrink rule.
  std::int64_t threads_retired() const noexcept {
    return threads_retired_.load(std::memory_order_relaxed);
  }

  /// High-water mark of live threads.
  int peak_threads() const noexcept {
    return peak_threads_.load(std::memory_order_relaxed);
  }

 private:
  void spawn_locked();
  void worker_main(std::int64_t slot);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  int min_ = 1;
  int max_ = 1;
  std::int64_t idle_shrink_ms_ = 0;
  std::string label_;
  int live_ = 0;  ///< spawned minus retired (mutex-guarded)
  int idle_ = 0;  ///< live threads currently waiting for work
  /// Bumped by reserve(): an idle window that saw new announced demand
  /// ends without retiring its thread (mutex-guarded).
  std::uint64_t demand_epoch_ = 0;
  std::int64_t next_slot_ = 0;
  std::atomic<std::int64_t> jobs_run_{0};
  std::atomic<std::int64_t> threads_spawned_{0};
  std::atomic<std::int64_t> threads_retired_{0};
  std::atomic<int> peak_threads_{0};
  std::atomic<std::int64_t>* spawn_counter_ = nullptr;
  /// Live thread handles by slot. A retiring thread moves its own handle to
  /// reap_ (it cannot join itself); the next submit — or the destructor —
  /// joins the reaped handles.
  std::unordered_map<std::int64_t, std::thread> threads_;
  std::vector<std::thread> reap_;
};

/// Runs fn(0) inline and fn(1..n-1) as pool jobs, returning only after
/// every call has settled; the first failure is rethrown on the calling
/// thread (so no job outlives the stack state fn captures). This is the
/// shared fan-out scaffold of prepare_args and refresh_head_many — the
/// latch-lifetime subtlety (wait() can return while the last count_down is
/// still inside notify) lives here once.
void fan_out(HelperPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn);

}  // namespace ompc::core
