// The OMPC runtime facade — the user-visible programming model.
//
// This is the C++-API equivalent of the paper's pragma surface (Listing 1):
//
//   #pragma omp target enter data map(to: A[:N]) nowait depend(out: *A)
//     -> rt.enter_data(A, N * sizeof *A);
//   #pragma omp target nowait depend(inout: *A)   { foo(A); }
//     -> rt.target({omp::inout(A)}, foo_kernel_id, Args().buf(A));
//   #pragma omp target exit data map(from: A[:N]) nowait depend(inout: *A)
//     -> rt.exit_data(A);
//   (implicit barrier at the end of the parallel region)
//     -> rt.wait_all();
//
// Execution model (paper §3.1/§4.4): the control thread only *records*
// tasks; nothing runs until wait_all(), when the whole graph is scheduled
// with HEFT and dispatched. Under AsyncMode::HelperThreads each in-flight
// target region occupies one blocked helper thread — LLVM's libomptarget
// behaviour and the §7 scalability bottleneck; AsyncMode::TwoStep lifts the
// bound (the paper's proposed fix).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/data_manager.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/heft.hpp"
#include "core/helper_pool.hpp"
#include "core/options.hpp"
#include "core/tenant.hpp"

namespace ompc::core {

/// Timing/counter summary of one cluster run, the measurements Fig. 7(a)
/// reports (startup / schedule / shutdown vs total wall time).
struct RuntimeStats {
  std::int64_t startup_ns = 0;   ///< head boot: event system listening,
                                 ///< runtime and failure detection up
  std::int64_t schedule_ns = 0;  ///< total HEFT time across waves
  std::int64_t shutdown_ns = 0;  ///< shutdown begin -> universe joined
  std::int64_t wall_ns = 0;      ///< whole launch()

  std::int64_t waves = 0;
  std::int64_t target_tasks = 0;
  std::int64_t data_tasks = 0;
  std::int64_t host_tasks = 0;

  std::int64_t events_originated = 0;
  std::int64_t submits = 0;
  std::int64_t retrieves = 0;
  std::int64_t exchanges = 0;
  std::int64_t bytes_moved = 0;
  std::int64_t messages_sent = 0;
  double makespan_estimate_s = 0.0;  ///< HEFT's prediction (last wave)

  // Fault tolerance (§5): checkpoint cost and recovery work.
  std::int64_t checkpoints = 0;       ///< wave-boundary snapshots taken
  std::int64_t checkpoint_bytes = 0;  ///< cumulative logical snapshot volume
  std::int64_t checkpoint_dirty_bytes = 0;  ///< bytes actually snapshotted
                                            ///< (the dirty subset)
  std::int64_t checkpoint_head_bytes = 0;  ///< capture bytes through the
                                           ///< head NIC (payload retrieves +
                                           ///< snapshot-command metadata) —
                                           ///< O(metadata) under Buddy mode
  std::int64_t snapshot_replicas = 0;  ///< buddy replicas shipped
                                       ///< worker->worker at boundaries
  std::int64_t checkpoint_events = 0;  ///< snapshot-plane commands (save,
                                       ///< alloc, put, drop lists) — one
                                       ///< per rank per phase
  std::int64_t checkpoint_ns = 0;     ///< cumulative capture wall time
  std::int64_t recoveries = 0;        ///< rollback + re-execution rounds
  std::int64_t workers_lost = 0;      ///< ranks declared dead and dropped
  std::int64_t buffers_lost = 0;      ///< sole-copy buffers restored
  std::int64_t replayed_tasks = 0;    ///< tasks re-executed after rollback
  std::int64_t recovery_ns = 0;       ///< rollback + replay wall time
  std::int64_t recovery_latency_ns = 0;  ///< failure detection -> replay
                                         ///< complete, summed per episode

  // Head failover + elastic membership (replicated head state, ring
  // election, runtime join/leave). Counters survive a head handoff: the
  // promoted head adopts the replica's stats block instead of zeroing.
  std::int64_t failovers = 0;            ///< head deaths survived by election
  std::int64_t replication_updates = 0;  ///< head-state deltas shipped to the
                                         ///< shadow rank at wave boundaries
  std::int64_t replication_bytes = 0;    ///< cumulative replication payload
  std::int64_t workers_joined = 0;       ///< ranks admitted at runtime
  std::int64_t workers_retired = 0;      ///< ranks drained and released

  // Schedule memoization (paper Fig. 7b: iterative apps re-record an
  // identical DAG every step; rescheduling it is pure head overhead).
  std::int64_t schedule_cache_hits = 0;  ///< waves served from the cache

  // The per-wave ChannelPlan: device blocks kept across cache-hit waves
  // (bench/fig5_halo gates these — a steady-state run must arm and then
  // actually re-use).
  std::int64_t channels_armed = 0;       ///< waves dispatched with the plan
                                         ///< armed (schedule-cache hits with
                                         ///< persistent_channels on)
  std::int64_t persistent_reuses = 0;    ///< device allocations re-used by
                                         ///< an armed plan instead of a
                                         ///< Delete+Alloc round-trip

  // Hot-path counters (bench/micro_hotpath asserts these, not eyeballs).
  std::int64_t threads_spawned = 0;  ///< head-side pool threads created —
                                     ///< floor at launch + demand growth,
                                     ///< 0 per steady wave
  std::int64_t payload_copies = 0;   ///< data-plane payload byte-copies
                                     ///< across the whole cluster

  // Multi-tenancy + elastic pools (aggregates of the per-tenant
  // TenantStats and the pools' own counters; refreshed at wave boundaries
  // and before launch() merges, so they survive head failover with the
  // rest of this POD block).
  std::int64_t tenants = 0;               ///< tenant queues ever opened
  std::int64_t tenant_waves = 0;          ///< waves served through them
  std::int64_t admission_rejections = 0;  ///< AdmissionError throws
  std::int64_t pool_threads_peak = 0;     ///< dispatch+transfer high water
  std::int64_t pool_threads_retired = 0;  ///< idle-shrink retirements
};

/// Builder for a target region's positional arguments: device buffers
/// (referenced by their host pointer) and serialized firstprivate scalars.
class Args {
 public:
  Args& buf(const void* host) {
    buffers_.push_back(host);
    return *this;
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Args& scalar(const T& v) {
    scalars_.put(v);
    return *this;
  }

  const std::vector<const void*>& buffers() const noexcept { return buffers_; }
  Bytes take_scalars() { return scalars_.take(); }

 private:
  std::vector<const void*> buffers_;
  ArchiveWriter scalars_;
};

class MembershipBus;

class Runtime {
 public:
  /// Constructed by launch() on the head rank; user code receives it in
  /// the head_main callback. All methods are head-control-thread-only.
  /// `bus` (optional) wires head-state replication and failover: with it,
  /// the runtime mirrors its recording state to a shadow worker at every
  /// wave boundary and, when the head rank dies, adopts the elected
  /// successor's event system and resumes from the replicated state.
  Runtime(const ClusterOptions& opts, EventSystem& events,
          MembershipBus* bus = nullptr);
  ~Runtime();

  // --- recording API ----------------------------------------------------

  /// `target enter data nowait map(to:)` (copy=false: map(alloc:)).
  void enter_data(void* host, std::size_t size, bool copy = true);

  /// `target exit data nowait map(from:)` (copy=false: map(release:)).
  void exit_data(void* host, bool copy = true);

  /// `target nowait depend(...)`: records a kernel launch. Every buffer in
  /// `args` must appear in `deps` (§4.3's documented restriction: the DM
  /// infers placement and write-intent from the dependence list).
  /// `cost_s` is the scheduler's compute estimate (0 = options default).
  int target(omp::DepList deps, offload::KernelId kernel, Args args,
             double cost_s = 0.0);

  /// A classical `task` — always executed on the head node (§4.4).
  int host_task(std::function<void()> fn, omp::DepList deps = {});

  /// The implicit barrier: schedules the recorded graph (HEFT), executes
  /// it across the cluster and returns when every task has completed.
  ///
  /// Fault tolerance (§5): when the failure detector declares a worker dead
  /// mid-wave and checkpointing is on (options().checkpoint_period > 0),
  /// this rolls all buffers back to the last wave-boundary checkpoint,
  /// re-ranks the survivors, re-schedules the lost waves with HEFT and
  /// re-executes them — then returns normally. With checkpointing off it
  /// throws RecoveryError instead of hanging.
  void wait_all();

  // --- multi-tenancy ----------------------------------------------------
  //
  // N independent DAG streams share the cluster: each tenant records waves
  // through a TenantSession (any thread), submits them into a bounded
  // per-tenant queue, and the head control thread pumps serve_tenants(),
  // which picks ready waves across tenants with weighted deficit
  // round-robin and runs each through the same engine as wait_all() — so
  // checkpointing, rollback and head failover apply to tenant waves
  // unchanged, and the wave log stays tenant-scoped (ClusterGraph::tenant
  // rides in the serialized entries).

  /// Registers a tenant queue and returns its id. `weight` scales the
  /// tenant's WDRR share (2.0 = twice the service of a weight-1.0 tenant
  /// under contention). Thread-safe.
  TenantId create_tenant(double weight = 1.0);

  /// Queues one recorded wave for `tenant`. Thread-safe; throws
  /// AdmissionError when the tenant's queue holds max_pending_waves
  /// entries (the wave is not consumed — retry or submit_wait) or when
  /// serving has stopped.
  void submit(ClusterGraph&& wave, TenantId tenant);

  /// Blocking submit: waits for queue space instead of throwing. Still
  /// throws AdmissionError if serving stops while waiting.
  void submit_wait(ClusterGraph&& wave, TenantId tenant);

  /// Head-control-thread pump: serves queued waves across tenants (WDRR)
  /// until every TenantSession has closed and all queues have drained.
  /// Create the sessions BEFORE calling this — an instant with no open
  /// session and no queued wave reads as "all tenants done". Recovery
  /// errors propagate after waking all blocked submitters/waiters.
  void serve_tenants();

  /// Blocks until every wave `tenant` submitted so far has completed (or
  /// rethrows the serve loop's failure).
  void wait_tenant(TenantId tenant);

  /// Snapshot of a tenant's counters (thread-safe copy).
  TenantStats tenant_stats(TenantId tenant) const;

  /// Folds pool/tenant aggregates into the POD stats block (head control
  /// thread; launch() calls it before merging, wave boundaries keep the
  /// replicated copy fresh).
  void refresh_derived_stats();

  // --- fault handling ---------------------------------------------------

  /// Failure-detector entry point (heartbeat ring / failure monitor
  /// threads): declares `dead` failed, aborts in-flight events touching it
  /// and arms recovery for the current/next wave. Thread-safe; idempotent.
  void report_worker_failure(mpi::Rank dead);

  /// Distinct worker failures accepted so far (thread-safe). The failure
  /// monitor uses this to widen detection once the ring has holes: a
  /// corpse's ring successor may itself be dead, leaving nobody to flag it.
  int failures_reported() const noexcept {
    return failures_reported_.load(std::memory_order_acquire);
  }

  // --- elastic membership (head control thread) -------------------------

  /// Requests that one spare rank (booted but idle; ClusterOptions::
  /// spare_workers) join the worker set. Takes effect at the next wave
  /// boundary: the joiner receives an ownership slice of the registered
  /// buffers (migrated worker->worker over the data plane), the schedule
  /// cache is invalidated so the next HEFT pass can place tasks on it, and
  /// a MembershipUpdate is broadcast. Returns the joining rank, or -1 when
  /// no spare is available.
  mpi::Rank request_join();

  /// Requests that worker `rank` leave the cluster. At the next boundary
  /// its buffers are refreshed to the head, its device heap is trimmed down
  /// to the checkpoint shadows it hosts, and the rank returns to the spare
  /// pool (schedulable again by a later request_join). Returns false when
  /// `rank` is not a live worker or is the last one.
  bool request_leave(mpi::Rank rank);

  // --- introspection ----------------------------------------------------

  /// Rank currently acting as head (changes after a failover).
  mpi::Rank head_rank() const noexcept { return head_rank_; }

  int num_workers() const noexcept { return opts_.num_workers; }
  /// Workers still alive (shrinks when recovery drops a corpse).
  int num_live_workers() const noexcept {
    return static_cast<int>(live_workers_.size());
  }
  const ClusterOptions& options() const noexcept { return opts_; }
  /// The event system currently driven — the promoted rank's after a
  /// failover (launch() shuts the cluster down through it).
  EventSystem& events() noexcept { return *events_; }
  DataManager& data_manager() noexcept { return dm_; }
  CheckpointStore& checkpoints() noexcept { return ckpt_; }
  RuntimeStats& stats() noexcept { return stats_; }

  /// The worker assignment chosen for the most recent wave (test hook).
  const ScheduleResult& last_schedule() const noexcept { return last_; }

 private:
  friend class TenantSession;

  void execute_task(const ClusterTask& t, int proc);
  void dispatch(const ClusterGraph& graph, const ScheduleResult& sched);
  /// The shared wave engine: build edges, checkpoint/log/replicate when
  /// fault tolerance is on, run with the §5 recovery loop, advance the
  /// wave index. Both the legacy wait_all() path and the tenant serve
  /// loop execute waves through here, which is what makes recovery and
  /// failover tenant-agnostic.
  void execute_wave(ClusterGraph&& wave);
  /// Schedules `graph` onto the surviving workers and dispatches it.
  void run_wave(const ClusterGraph& graph);
  /// Runs `current` (nullable) with the §5 recovery loop around it: on a
  /// worker death, rolls back to the checkpoint and replays the logged
  /// waves (all of them when `current` is null — the between-waves repair
  /// path) before retrying. `replaying` starts a replay round immediately
  /// (set when the checkpoint capture itself hit the failure).
  void run_with_recovery(const ClusterGraph* current, bool replaying);
  /// Rolls the cluster back to the last checkpoint after `dead` failed (or
  /// throws RecoveryError when recovery is impossible).
  void rollback(mpi::Rank dead);
  /// Cache key for the current wave: the graph's structural hash combined
  /// with everything else schedule() reads (policy, survivors, cost model).
  std::uint64_t schedule_cache_key(const ClusterGraph& graph) const;
  /// rollback() in a retry loop: absorbs workers that die during the
  /// rollback itself. Throws only RecoveryError.
  void recover_from(mpi::Rank dead);
  ClusterGraph fresh_graph() const;

  // --- head failover internals ------------------------------------------

  /// Ships the head recording state to the shadow rank (the first live
  /// worker): a Full resync when the shadow changed or `boundary` committed
  /// a checkpoint (the wave log was cut), an Append of the new wave blobs
  /// otherwise. Best-effort: a dying shadow is skipped this round and
  /// resynced to its successor at the next boundary.
  void replicate_head_state(bool boundary_reset);

  /// The head rank died: await the ring election on the membership bus,
  /// adopt the winner's event system and replica, re-home the DM and
  /// checkpoint store, trim survivor heaps, and roll back to the last
  /// committed wave. Throws RecoveryError when no replica holder survives
  /// or no checkpoint exists to resume from.
  void failover();

  /// Rebuilds all recording state from the elected winner's replica blob.
  void adopt_replica();

  /// After a restore that fell back to the prior checkpoint generation:
  /// splices the previous period's waves ahead of the current log so
  /// replay starts from the prior boundary.
  void absorb_degraded_restore();

  /// Post-failover heap reset: every survivor frees all device blocks
  /// except its checkpoint shadows (TrimHeap), so replay re-allocates from
  /// a clean slate that matches the adopted host-resident registry.
  void trim_worker_heaps();

  /// Broadcasts a MembershipUpdate {head, worker_count} to live workers.
  void broadcast_membership();

  /// Applies pending join/leave requests at a wave boundary.
  void process_membership_requests();

  const ClusterOptions opts_;
  EventSystem* events_;
  DataManager dm_;
  /// Persistent dispatch pool: created once per launch, reused by every
  /// wave and recovery replay. Its size is the in-flight target-region
  /// bound (one blocked job per region, like an LLVM hidden-helper
  /// thread), so HelperThreads/TwoStep semantics are unchanged — only the
  /// per-wave create/join churn is gone.
  std::unique_ptr<HelperPool> helpers_;
  ClusterGraph graph_;
  ScheduleResult last_;
  RuntimeStats stats_;

  /// Memoized schedules keyed by schedule_cache_key(): steady-state
  /// identical-graph waves skip HEFT entirely. Cleared on recovery (the
  /// live-worker set is also part of the key, so a stale entry could never
  /// match — clearing just bounds memory and makes invalidation explicit).
  std::unordered_map<std::uint64_t, ScheduleResult> schedule_cache_;

  // Fault-tolerance state (head control thread, except reported_dead_
  // which detector threads append to under fault_mutex_).
  CheckpointStore ckpt_;
  std::vector<ClusterGraph> wave_log_;     ///< waves since last checkpoint
  std::vector<mpi::Rank> live_workers_;    ///< proc index -> minimpi rank
  std::int64_t wave_index_ = 0;
  std::mutex fault_mutex_;
  std::vector<mpi::Rank> reported_dead_;   ///< detected, not yet purged
  std::atomic<bool> failure_pending_{false};
  std::atomic<int> failures_reported_{0};
  /// Start of the current recovery episode (first detection), 0 when none;
  /// run_with_recovery closes the episode when replay completes.
  std::atomic<std::int64_t> failure_detected_ns_{0};

  // Head failover + elastic membership state (head control thread only).
  mpi::Rank head_rank_ = 0;        ///< rank whose event system we drive
  std::uint64_t head_epoch_ = 0;   ///< bumps on every handoff adoption
  MembershipBus* bus_ = nullptr;
  mpi::Rank shadow_rank_ = -1;     ///< current replication target
  std::uint64_t replica_generation_ = 0;
  std::size_t replicated_waves_ = 0;  ///< wave_blobs_ prefix already shipped
  /// Serialized mirrors of wave_log_ (same indices): what replication ships
  /// and what failover replays for waves the replica missed. prev_* mirror
  /// the generation retained by the checkpoint store for degraded restores.
  std::vector<Bytes> wave_blobs_;
  std::vector<ClusterGraph> prev_wave_log_;
  std::vector<Bytes> prev_wave_blobs_;
  /// Global wave number of each wave_blobs_/prev_wave_blobs_ entry (same
  /// indices). Failover merges the replica's log with the local tail BY
  /// WAVE NUMBER: a position splice loses the current wave whenever the
  /// head dies after a boundary reset but before that wave's replication
  /// round commits (both lists then have the same length but are one
  /// boundary apart).
  std::vector<std::int64_t> wave_seqs_;
  std::vector<std::int64_t> prev_wave_seqs_;
  std::vector<mpi::Rank> spare_pool_;      ///< booted, idle, joinable ranks
  std::vector<mpi::Rank> pending_joins_;   ///< applied at the next boundary
  std::vector<mpi::Rank> pending_leaves_;

  // --- multi-tenancy state ----------------------------------------------

  struct PendingWave {
    ClusterGraph graph;
    std::int64_t submit_ns = 0;
  };
  struct TenantState {
    std::deque<PendingWave> queue;
    TenantStats stats;
    double deficit = 0.0;  ///< WDRR credit carried while waiting
    int executing = 0;     ///< popped waves not yet completed (0 or 1)
  };

  TenantState& tenant_state_locked(TenantId tenant);
  void enqueue_locked(TenantState& ts, ClusterGraph&& wave, TenantId tenant);
  /// One WDRR pick: resumes at the token holder, replenishing deficits as
  /// the token advances, until some tenant can afford its head wave.
  /// Returns false when every queue is empty.
  bool pick_wave_locked(TenantId* tenant, PendingWave* wave);
  /// Completion bookkeeping for a served wave (latency sample, queue-wait,
  /// executing--), then wakes submitters and waiters.
  void finish_tenant_wave(TenantId tenant, std::int64_t submit_ns,
                          std::int64_t start_ns);
  /// Attribution hooks called from the wave engine (head control thread).
  void note_cache_hit(TenantId tenant);
  void note_replay(TenantId tenant, std::int64_t tasks);
  /// Charges a closed recovery episode's latency to every tenant whose
  /// waves it replayed (episode_tenants_), then clears the set.
  void close_tenant_episode(std::int64_t latency_ns);

  /// Guards tenants_ and the serve flags; tenants_cv_ signals submissions,
  /// completions, session closes and serve-loop termination.
  mutable std::mutex tenants_mutex_;
  std::condition_variable tenants_cv_;
  /// Ordered map: WDRR visits tenants in id order, deterministically.
  std::map<TenantId, TenantState> tenants_;
  TenantId next_tenant_ = 1;
  TenantId wdrr_token_ = -1;  ///< tenant whose deficit the token rests on
  std::atomic<int> open_sessions_{0};
  bool serving_stopped_ = false;     ///< serve loop exited (or never ran)
  std::exception_ptr serve_error_;   ///< rethrown to blocked waiters
  /// Tenants with waves replayed in the open recovery episode (head
  /// control thread only, like the episode clock it mirrors).
  std::vector<TenantId> episode_tenants_;
};

/// Per-tenant recording surface: the same enter/exit/target/host_task API
/// as Runtime, but thread-confined to the tenant's own thread and detached
/// from the legacy single-graph state. A session validates dependences
/// against the buffers *it* entered (tenants own disjoint buffer sets —
/// host pointers are the namespace, so sharing one buffer across tenants
/// is a recording error, not a data race), and DM registration is deferred
/// to the wave's execution on the head control thread.
///
/// Lifecycle: create all sessions, spawn one submitter thread each, then
/// pump Runtime::serve_tenants() from the head control thread. close()
/// (or destruction) marks the stream finished; the serve loop exits once
/// every session has closed and the queues have drained.
class TenantSession {
 public:
  /// Opens a session for `tenant` (from Runtime::create_tenant).
  TenantSession(Runtime& rt, TenantId tenant);
  ~TenantSession();

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /// `target enter data nowait map(to:)` — recorded; the DM learns of the
  /// buffer when the wave executes.
  void enter_data(void* host, std::size_t size, bool copy = true);
  void exit_data(void* host, bool copy = true);
  int target(omp::DepList deps, offload::KernelId kernel, Args args,
             double cost_s = 0.0);
  int host_task(std::function<void()> fn, omp::DepList deps = {});

  /// Tasks recorded since the last submit.
  bool has_recorded() const noexcept { return !graph_.empty(); }

  /// Submits the recorded wave (throws AdmissionError when the tenant's
  /// queue is full — the wave stays recorded for a retry).
  void submit();
  /// Blocking variant: waits for queue space (backpressure).
  void submit_wait();

  /// Waits until every submitted wave has completed.
  void wait();

  /// Marks the stream finished (idempotent; the destructor calls it).
  /// Unsubmitted recorded tasks are discarded.
  void close();

  TenantId tenant() const noexcept { return tenant_; }

 private:
  ClusterGraph fresh() const;
  void submit_impl(bool blocking);

  Runtime* rt_;
  TenantId tenant_;
  bool closed_ = false;
  /// Buffers this session entered (host ptr -> bytes): the session-local
  /// registry that stands in for the DM at recording time.
  std::unordered_map<const void*, std::size_t> sizes_;
  /// Buffers exit_data recorded in the wave being built: still resolvable
  /// (the exit wave's own dependences name them) until the wave submits,
  /// erased from sizes_ then.
  std::vector<const void*> exited_;
  ClusterGraph graph_;
};

/// Runs `head_main` on the head rank of a freshly simulated cluster:
/// workers boot their event systems, the head records and executes waves,
/// then the cluster is shut down. Returns the head's runtime statistics.
RuntimeStats launch(const ClusterOptions& opts,
                    const std::function<void(Runtime&)>& head_main);

}  // namespace ompc::core
