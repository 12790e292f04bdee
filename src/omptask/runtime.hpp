// Host task runtime: the miniature of LLVM's OpenMP tasking layer that OMPC
// builds on (README, "Simulation design", substitutions).
//
// - submit() outlines a code fragment as a task with depend() semantics;
//   ready tasks feed a pool of worker threads with work stealing (LLVM's
//   host scheduling strategy, §4.4 of the paper).
// - taskwait() is the implicit barrier at the end of a parallel region.
// - parallel_for() provides the second level of parallelism the paper keeps
//   available inside each cluster node (§3.1): it is caller-participating
//   and safe to call from inside a task.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "omptask/dep.hpp"

namespace ompc::omp {

using TaskId = std::uint64_t;
using TaskFn = std::function<void()>;

class TaskRuntime {
 public:
  /// Spawns `num_threads` workers (>=1).
  explicit TaskRuntime(int num_threads);
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  /// Outlines `fn` as a task ordered by `deps`; returns its id. Thread-safe.
  TaskId submit(TaskFn fn, std::span<const Dep> deps = {});
  TaskId submit(TaskFn fn, std::initializer_list<Dep> deps) {
    return submit(std::move(fn), std::span<const Dep>(deps.begin(), deps.size()));
  }

  /// Blocks until every task submitted so far has finished, then recycles
  /// completed-task storage (epoch boundary, like an implicit barrier).
  void taskwait();

  /// True once the given task has finished executing.
  bool is_finished(TaskId id) const;

  /// Caller-participating parallel loop over [begin, end) in `grain`-sized
  /// chunks. Safe to call from within a task body (it never blocks a worker
  /// on the pool — the caller executes chunks itself while waiting).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  int num_threads() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Tasks executed since construction (test/bench hook).
  std::int64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Successful steals since construction (test/bench hook).
  std::int64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    TaskId id = 0;
    TaskFn fn;
    int remaining_deps = 0;            // guarded by graph_mutex_
    std::vector<TaskId> successors;    // guarded by graph_mutex_
    bool finished = false;             // guarded by graph_mutex_
  };

  struct AddrState {
    TaskId last_writer = 0;
    bool has_writer = false;
    std::vector<TaskId> readers_since_write;
  };

  void worker_main(int self);
  void enqueue_ready(TaskId id, int hint_queue);
  bool try_pop(int self, TaskId& out);
  void run_task(TaskId id);

  // Graph state: task table, dependence map, pending counter.
  mutable std::mutex graph_mutex_;
  std::unordered_map<TaskId, std::unique_ptr<Task>> tasks_;
  std::unordered_map<const void*, AddrState> addr_state_;
  TaskId next_id_ = 1;
  std::int64_t pending_ = 0;  // submitted but not yet finished
  std::condition_variable all_done_cv_;

  // Ready queues: one deque per worker plus a shared inbox for external
  // submitters; workers pop their own queue LIFO and steal FIFO.
  struct ReadyQueue {
    std::mutex mutex;
    std::deque<TaskId> queue;
  };
  std::vector<std::unique_ptr<ReadyQueue>> ready_;  // [workers] + inbox last
  std::mutex sleep_mutex_;
  std::condition_variable work_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> executed_{0};
  std::atomic<std::int64_t> steals_{0};

  std::vector<std::thread> workers_;
};

}  // namespace ompc::omp
