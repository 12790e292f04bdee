#include "core/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "core/heartbeat.hpp"
#include "core/membership.hpp"

namespace ompc::core {

Runtime::Runtime(const ClusterOptions& opts, EventSystem& events,
                 MembershipBus* bus)
    : opts_(opts),
      events_(&events),
      dm_(events, opts),
      graph_(fresh_graph()),
      ckpt_(&events, opts.checkpoint_locality),
      bus_(bus) {
  // Scheduler processors map onto this live-worker table; recovery shrinks
  // it, which is how survivors are re-ranked after a failure. Spare ranks
  // boot like workers but stay out of it until request_join().
  live_workers_.reserve(static_cast<std::size_t>(opts.num_workers));
  for (int w = 0; w < opts.num_workers; ++w) live_workers_.push_back(w + 1);
  for (int s = 0; s < opts.spare_workers; ++s)
    spare_pool_.push_back(opts.num_workers + 1 + s);

  // HelperThreads: the LLVM bound — in-flight regions <= head threads.
  // TwoStep: the §7 fix decouples in-flight regions from head cores; its
  // pool scales with the *cluster* (enough to saturate every worker's
  // executor and transfer pipeline) instead of the head's thread count.
  // Elastic: the bound is the pool's *ceiling*; only a small floor spawns
  // at launch, demand grows it, idle growth retires (ROADMAP "elastic pool
  // sizing" — a 2-worker test cluster no longer pays for 48 threads).
  const int helpers = std::max(1, opts_.async_mode == AsyncMode::HelperThreads
                                      ? opts_.helper_threads
                                      : opts_.cluster_pool_threads());
  helpers_ = std::make_unique<HelperPool>(opts_.pool_floor(helpers), helpers,
                                          opts_.pool_idle_shrink_ms, "hh");
  stats_.threads_spawned = helpers_->threads_spawned();
}

Runtime::~Runtime() = default;

ClusterGraph Runtime::fresh_graph() const {
  // Edge weights resolve dependence addresses to buffer sizes through the
  // data manager's registry.
  return ClusterGraph(
      [this](const void* addr) { return dm_.buffer_size(addr); });
}

void Runtime::enter_data(void* host, std::size_t size, bool copy) {
  dm_.register_buffer(host, size);
  ClusterTask t;
  t.type = TaskType::DataEnter;
  t.buffer = host;
  t.buffer_bytes = size;
  t.copy = copy;
  // Listing 1: enter data carries depend(out: *A) — it is the first writer.
  t.deps = {omp::out(host)};
  graph_.add_task(std::move(t));
  ++stats_.data_tasks;
}

void Runtime::exit_data(void* host, bool copy) {
  OMPC_CHECK_MSG(dm_.is_registered(host),
                 "exit_data for buffer " << host << " that was never entered");
  ClusterTask t;
  t.type = TaskType::DataExit;
  t.buffer = host;
  t.copy = copy;
  // inout: runs after the last writer and all readers of the buffer.
  t.deps = {omp::inout(host)};
  graph_.add_task(std::move(t));
  ++stats_.data_tasks;
}

int Runtime::target(omp::DepList deps, offload::KernelId kernel, Args args,
                    double cost_s) {
  // §4.3's restriction: every buffer a target uses must appear in its
  // dependence list — that is the only way the DM can infer placement and
  // write intent. Enforced here instead of failing mysteriously later.
  for (const void* b : args.buffers()) {
    const bool listed = std::any_of(deps.begin(), deps.end(),
                                    [&](const omp::Dep& d) { return d.addr == b; });
    OMPC_CHECK_MSG(listed, "target buffer argument " << b
                                                     << " missing from depend list");
    OMPC_CHECK_MSG(dm_.is_registered(b),
                   "target buffer argument " << b << " was never entered");
  }
  ClusterTask t;
  t.type = TaskType::Target;
  t.kernel = kernel;
  t.buffer_args = args.buffers();
  t.scalars = args.take_scalars();
  t.deps = std::move(deps);
  t.cost_s = cost_s;
  const int id = graph_.add_task(std::move(t));
  ++stats_.target_tasks;
  return id;
}

int Runtime::host_task(std::function<void()> fn, omp::DepList deps) {
  ClusterTask t;
  t.type = TaskType::Host;
  // Interned so the closure survives head replication: the handle travels
  // in the serialized wave log and a promoted head resurrects the function
  // from the process-wide registry.
  t.host_fn_handle = HostFnRegistry::instance().intern(fn);
  t.host_fn = std::move(fn);
  t.deps = std::move(deps);
  const int id = graph_.add_task(std::move(t));
  ++stats_.host_tasks;
  return id;
}

void Runtime::execute_task(const ClusterTask& t, int proc) {
  const auto rank_of_proc = [this](int p) {
    return live_workers_[static_cast<std::size_t>(p)];
  };
  switch (t.type) {
    case TaskType::DataEnter:
      // Session-recorded enters defer registration to execution time (the
      // submitting thread must not mutate the registry while another
      // tenant's wave is in flight); legacy and replayed enters find the
      // buffer already registered and skip. The task carries its mapping
      // size precisely for this moment.
      if (!dm_.is_registered(t.buffer))
        dm_.register_buffer(const_cast<void*>(t.buffer), t.buffer_bytes);
      dm_.enter_to_worker(rank_of_proc(proc), t.buffer, t.copy);
      return;
    case TaskType::DataExit:
      dm_.exit_to_head(const_cast<void*>(t.buffer), t.copy);
      return;
    case TaskType::Host:
      t.host_fn();
      // A host task's out/inout deps were written in place on the head;
      // without this the incremental checkpointer would reuse a stale
      // entry for them and recovery would roll the write back silently.
      dm_.after_host_write(t.deps);
      return;
    case TaskType::Target: {
      const mpi::Rank worker = rank_of_proc(proc);
      // §4.3 target-region rule: make inputs valid on the assigned worker
      // (allocating/forwarding as needed), run, then invalidate replicas
      // of written buffers.
      const std::vector<offload::TargetPtr> addrs =
          dm_.prepare_args(worker, t.buffer_args);
      ExecuteHeader h;
      h.kernel = t.kernel;
      h.buffers = addrs;
      h.scalars = t.scalars;
      events_->run(worker, EventKind::Execute, h.serialize());
      dm_.after_write(worker, t.deps);
      return;
    }
  }
}

void Runtime::dispatch(const ClusterGraph& graph, const ScheduleResult& sched) {
  const std::size_t n = graph.size();
  if (n == 0) return;

  // Grow the elastic pool to the wave's worst-case concurrency (every task
  // in flight at once), capped by the ceiling that bounds in-flight target
  // regions. A structural announcement, so identical waves spawn
  // identically — and a steady-state wave spawns nothing at all.
  helpers_->reserve(static_cast<int>(n));

  // Dependence-driven execution on the persistent helper pool: each ready
  // task becomes one job, and a job stays blocked inside execute_task() for
  // the whole life of its in-flight target region — so the pool size bounds
  // in-flight regions exactly as §7 describes, without creating or joining
  // a single thread per wave. The control thread only seeds the sources and
  // waits; completed jobs schedule their newly-ready successors themselves.
  struct WaveState {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> indegree;
    std::size_t done = 0;      ///< tasks executed successfully
    std::size_t inflight = 0;  ///< jobs queued or executing
    std::exception_ptr first_error;
  } ws;
  ws.indegree.resize(n, 0);
  for (const ClusterTask& t : graph.tasks())
    ws.indegree[static_cast<std::size_t>(t.id)] =
        static_cast<int>(t.preds.size());

  // All captured state outlives the jobs: dispatch() returns only once
  // inflight == 0, i.e. every submitted job has run (or skipped).
  std::function<void(int)> submit_task = [&](int id) {
    helpers_->submit([this, &graph, &sched, &ws, &submit_task, id] {
      const ClusterTask& t = graph.task(id);
      bool skipped;
      {
        std::lock_guard<std::mutex> lock(ws.mutex);
        skipped = ws.first_error != nullptr;  // wave is unwinding
      }
      std::exception_ptr error;
      if (!skipped) {
        try {
          execute_task(t, sched.processor[static_cast<std::size_t>(id)]);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(ws.mutex);
      --ws.inflight;
      if (error && !ws.first_error) ws.first_error = error;
      if (!skipped && !error) {
        ++ws.done;
        for (int s : t.succs) {
          if (--ws.indegree[static_cast<std::size_t>(s)] == 0) {
            ++ws.inflight;
            submit_task(s);
          }
        }
      }
      // The waiter's predicate can only turn true once nothing is in
      // flight. Notified under the lock: ws lives on the waiter's stack.
      if (ws.inflight == 0) ws.cv.notify_all();
    });
  };

  {
    std::lock_guard<std::mutex> lock(ws.mutex);
    for (const ClusterTask& t : graph.tasks()) {
      if (t.preds.empty()) {
        ++ws.inflight;
        submit_task(t.id);
      }
    }
  }
  std::unique_lock<std::mutex> lock(ws.mutex);
  ws.cv.wait(lock, [&ws, n] {
    return ws.inflight == 0 && (ws.done == n || ws.first_error != nullptr);
  });
  if (ws.first_error) std::rethrow_exception(ws.first_error);
  OMPC_CHECK_MSG(ws.done == n, "dispatch finished with unexecuted tasks");
}

std::uint64_t Runtime::schedule_cache_key(const ClusterGraph& graph) const {
  // Everything schedule() reads beyond the graph itself goes into the key;
  // the live-worker set in particular, so a schedule computed before a
  // failure can never be replayed onto a shrunk cluster.
  std::uint64_t h = graph.structural_hash();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(opts_.scheduler));
  mix(static_cast<std::uint64_t>(opts_.network.latency_ns));
  std::uint64_t bw_bits = 0;
  std::memcpy(&bw_bits, &opts_.network.bandwidth_Bps, sizeof bw_bits);
  mix(bw_bits);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &opts_.default_task_cost_s, sizeof cost_bits);
  mix(cost_bits);
  mix(opts_.seed);
  mix(live_workers_.size());
  for (const mpi::Rank r : live_workers_) mix(static_cast<std::uint64_t>(r));
  return h;
}

void Runtime::run_wave(const ClusterGraph& graph) {
  // Fig. 7b workloads (awave/RTM, stepwise Task Bench) re-record an
  // identical DAG every time step; rescheduling it is pure head overhead.
  // Serve repeats from the cache and run HEFT only on structurally new
  // graphs. Recovery clears the cache (and re-keys it via live_workers_).
  const std::uint64_t key = schedule_cache_key(graph);
  if (const auto it = schedule_cache_.find(key);
      it != schedule_cache_.end() &&
      it->second.processor.size() == graph.size()) {
    // (The size check makes a 64-bit key collision a miss, not an
    // out-of-bounds dispatch.)
    ++stats_.schedule_cache_hits;
    note_cache_hit(graph.tenant());
    stats_.makespan_estimate_s = it->second.makespan_estimate_s;
    // Steady state: the wave shape is known (same structural hash, same
    // live-worker set — both in the cache key), so arm the ChannelPlan:
    // write invalidations keep device blocks for next wave's re-fill.
    if (opts_.persistent_channels) {
      dm_.arm_channels();
      ++stats_.channels_armed;
    }
    last_ = it->second;
    dispatch(graph, it->second);
    return;
  }
  // A structurally new wave is not the cached shape: write invalidations
  // free stale blocks again until the cache hits (the plan is keyed to the
  // shape).
  dm_.disarm_channels();
  const ScheduleResult sched =
      schedule(opts_.scheduler, graph, num_live_workers(),
               CostModel::from_network(opts_.network),
               opts_.default_task_cost_s, opts_.seed);
  stats_.schedule_ns += sched.schedule_ns;
  stats_.makespan_estimate_s = sched.makespan_estimate_s;
  if (schedule_cache_.size() >= 128) schedule_cache_.clear();  // bound it
  schedule_cache_.insert_or_assign(key, sched);
  last_ = sched;
  dispatch(graph, sched);
}

void Runtime::report_worker_failure(mpi::Rank dead) {
  EventSystem* ev = nullptr;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (std::find(reported_dead_.begin(), reported_dead_.end(), dead) !=
        reported_dead_.end())
      return;
    if (std::find(live_workers_.begin(), live_workers_.end(), dead) ==
        live_workers_.end())
      return;  // not a worker we still track (e.g. a duplicate report)
    reported_dead_.push_back(dead);
    // Invariant (maintained under fault_mutex_ here and in rollback):
    // failure_pending_ is set iff reported_dead_ is non-empty, so an armed
    // recovery always finds a corpse to process.
    failure_pending_.store(true, std::memory_order_release);
    // Snapshot the event plane under the lock: failover() swaps events_
    // (under this mutex) while detector threads are still reporting.
    ev = events_;
  }
  OMPC_LOG_WARN("failure detector: worker rank " << dead
                                                 << " declared dead");
  // Recovery-latency episode start (detection -> replay complete): only the
  // first detection of an episode arms the clock.
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  failures_reported_.fetch_add(1, std::memory_order_acq_rel);
  // Abort in-flight events touching the corpse (helper threads unwind with
  // WorkerDiedError) and tell live workers, so a later head knows it.
  ev->fail_rank(dead);
  ev->announce_rank_dead(dead);
}

void Runtime::rollback(mpi::Rank dead) {
  const Stopwatch timer;
  // A corpse discovered by an event throw (no detector report yet) must
  // still open the latency episode.
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  // Cached schedules were computed for the pre-failure worker set; the
  // re-ranked survivors must be scheduled fresh. The ChannelPlan goes with
  // them: replay runs with the plan disarmed, so recovery stays
  // bitwise-identical to an unfailed run.
  schedule_cache_.clear();
  dm_.disarm_channels();

  // Re-rank: drop every reported corpse from the processor table. Detector
  // threads read live_workers_ under fault_mutex_ (report_worker_failure),
  // so the erase must hold it too.
  std::vector<mpi::Rank> corpses;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    corpses.swap(reported_dead_);
    if (std::find(corpses.begin(), corpses.end(), dead) == corpses.end() &&
        std::find(live_workers_.begin(), live_workers_.end(), dead) !=
            live_workers_.end())
      corpses.push_back(dead);  // failure seen by an event before a report
    for (mpi::Rank r : corpses) {
      live_workers_.erase(
          std::remove(live_workers_.begin(), live_workers_.end(), r),
          live_workers_.end());
    }
  }
  // fail_rank outside fault_mutex_ (it takes the event system's own lock);
  // idempotent, and covers the unreported-corpse path.
  for (mpi::Rank r : corpses) events_->fail_rank(r);
  stats_.workers_lost += static_cast<std::int64_t>(corpses.size());
  // Arm the monitor's cascading-failure fallback even when the corpse was
  // discovered by an event throw rather than a heartbeat report (the
  // report path would have early-returned after this removal).
  failures_reported_.fetch_add(static_cast<int>(corpses.size()),
                               std::memory_order_acq_rel);

  OMPC_CHECK_MSG(!corpses.empty(),
                 "recovery triggered without a detected failure");
  if (live_workers_.empty())
    throw RecoveryError("cannot recover: every worker has died");
  if (opts_.checkpoint_period <= 0 || !ckpt_.has_checkpoint())
    throw RecoveryError(
        "worker died but checkpointing is disabled "
        "(ClusterOptions::checkpoint_period == 0); no recovery possible");

  // Wait until no origin event is in flight: completions from live workers
  // must land before we mutate the cluster-wide buffer state underneath
  // them (a Submit racing a Delete would be a use-after-free on the
  // worker's device heap).
  events_->quiesce();

  const std::int64_t lost_before = dm_.stats().buffers_lost.load();
  for (mpi::Rank r : corpses) dm_.purge_rank(r);
  stats_.buffers_lost += dm_.stats().buffers_lost.load() - lost_before;

  // Roll every buffer back to the wave-boundary snapshot: worker replicas
  // are dropped, checkpointed contents land on the head, from which replay
  // re-distributes them to the survivors.
  dm_.reset_all_to_host();
  ckpt_.restore(dm_);
  absorb_degraded_restore();

  {
    // A failure reported *during* this rollback stays pending and triggers
    // another round; only a clean slate disarms recovery.
    std::lock_guard<std::mutex> lock(fault_mutex_);
    failure_pending_.store(!reported_dead_.empty(), std::memory_order_release);
  }
  ++stats_.recoveries;
  stats_.recovery_ns += timer.elapsed_ns();
  OMPC_LOG_WARN("recovery: rolled back to wave " << ckpt_.wave() << ", "
                                                 << num_live_workers()
                                                 << " workers survive");
}

void Runtime::recover_from(mpi::Rank dead) {
  // Rollback can itself trip over yet another worker dying (its Delete
  // events and checkpoint restores touch live workers); absorb those and
  // keep rolling back. Only RecoveryError escapes.
  for (;;) {
    try {
      // The corpse may be the head itself (dispatch fails fast on the dead
      // head's event system): that is a failover, not a rollback — adopt
      // the elected successor's replica, then return so the caller replays
      // from the adopted log.
      if (events_->is_rank_gone(head_rank_)) {
        failover();
        return;
      }
      rollback(dead);
      return;
    } catch (const WorkerDiedError& again) {
      dead = again.rank();
    }
  }
}

void Runtime::run_with_recovery(const ClusterGraph* current, bool replaying) {
  // `current` being the last wave_log_ entry (the wave being executed for
  // the first time) must not be double-run by the replay sweep; a null
  // current replays the WHOLE log — the between-waves repair path, where
  // rollback regressed buffers that completed waves had already written.
  bool current_is_logged =
      current != nullptr && !wave_log_.empty() && current == &wave_log_.back();
  for (;;) {
    try {
      // A failure reported while the head was idle between waves arms
      // failure_pending_ without any event throwing; surface it here so the
      // wave never starts against a schedule containing the corpse.
      if (failure_pending_.load(std::memory_order_acquire))
        throw WorkerDiedError(-1);
      if (replaying) {
        // Re-execute the waves lost since the checkpoint. Host tasks in
        // replayed waves run again — §5's re-execution semantics.
        const std::size_t upto =
            wave_log_.size() - (current_is_logged ? 1 : 0);
        for (std::size_t i = 0; i < upto; ++i) {
          run_wave(wave_log_[i]);
          stats_.replayed_tasks +=
              static_cast<std::int64_t>(wave_log_[i].size());
          note_replay(wave_log_[i].tenant(),
                      static_cast<std::int64_t>(wave_log_[i].size()));
        }
      }
      if (current != nullptr) {
        run_wave(*current);
        if (replaying) {
          stats_.replayed_tasks += static_cast<std::int64_t>(current->size());
          note_replay(current->tenant(),
                      static_cast<std::int64_t>(current->size()));
        }
      }
      // Replay complete: close the recovery-latency episode. Guarded on
      // `replaying` so a detection landing after the wave finished is left
      // armed for the recovery that will process it, and on
      // failure_pending_ so a failure detected mid-replay extends the
      // episode (its own wait time must not be dropped) instead of
      // restarting the clock at its later rollback.
      if (replaying &&
          !failure_pending_.load(std::memory_order_acquire)) {
        if (const std::int64_t t0 = failure_detected_ns_.exchange(
                0, std::memory_order_acq_rel);
            t0 != 0) {
          const std::int64_t latency = now_ns() - t0;
          stats_.recovery_latency_ns += latency;
          // The episode's latency is charged to every tenant whose waves
          // it replayed — concurrent streams keep honest per-tenant
          // recovery accounting instead of sharing one global counter.
          close_tenant_episode(latency);
        }
      }
      return;
    } catch (const mpi::RankKilledError& e) {
      // A raw transport-level death that escaped the event layer's
      // translation (rare: a request completed exceptionally on a path
      // with no origin event). Same recovery as WorkerDiedError.
      const std::uint64_t epoch_before = head_epoch_;
      recover_from(e.rank());
      replaying = true;
      if (current != nullptr &&
          (current_is_logged || head_epoch_ != epoch_before)) {
        current = wave_log_.empty() ? nullptr : &wave_log_.back();
        current_is_logged = current != nullptr;
      }
    } catch (const WorkerDiedError& e) {
      const std::uint64_t epoch_before = head_epoch_;
      recover_from(e.rank());  // RecoveryError escapes when impossible
      replaying = true;
      // Recovery can rebuild or grow the wave log underneath `current`:
      // a failover re-creates it from the replica blobs, and a degraded
      // restore prepends the prior generation's waves (both reallocate the
      // vector). Re-home the pointer at the log's new tail — the same
      // wave, just at its new address.
      if (current != nullptr &&
          (current_is_logged || head_epoch_ != epoch_before)) {
        current = wave_log_.empty() ? nullptr : &wave_log_.back();
        current_is_logged = current != nullptr;
      }
    }
  }
}

void Runtime::wait_all() {
  // Membership changes commit at wave boundaries — the cluster is quiescent
  // here, so buffer migration cannot race in-flight tasks.
  process_membership_requests();
  if (graph_.empty()) {
    // A failure can land in the instants after the last wave completed; the
    // cluster state must be repaired (or the condition surfaced as
    // RecoveryError) before shutdown deletes buffers on a corpse. Repair =
    // rollback + replay of every logged wave, so buffer contents the
    // completed waves produced are regenerated, not silently regressed.
    if (failure_pending_.load(std::memory_order_acquire))
      run_with_recovery(nullptr, false);
    return;
  }
  ClusterGraph wave = std::move(graph_);
  graph_ = fresh_graph();
  execute_wave(std::move(wave));
}

void Runtime::execute_wave(ClusterGraph&& wave) {
  wave.build_edges();

  const bool ft = opts_.checkpoint_period > 0;
  bool replaying = false;
  bool boundary_reset = false;
  if (ft) {
    if (wave_index_ % opts_.checkpoint_period == 0) {
      try {
        ckpt_.capture(dm_, wave_index_, live_workers_);
        // The committed capture makes these waves unreachable by normal
        // recovery; they move to the previous-generation slot (not gone:
        // a degraded restore replays from the PRIOR boundary, and the
        // checkpoint store keeps that generation's snapshots until the
        // next capture commits).
        prev_wave_log_ = std::move(wave_log_);
        prev_wave_blobs_ = std::move(wave_blobs_);
        prev_wave_seqs_ = std::move(wave_seqs_);
        wave_log_.clear();
        wave_blobs_.clear();
        wave_seqs_.clear();
        replicated_waves_ = 0;
        boundary_reset = true;
      } catch (const WorkerDiedError& e) {
        // A worker died mid-capture. The previous snapshot is intact
        // (capture commits atomically, worker-local shadows included);
        // roll back to it and keep the wave log — those waves still need
        // replaying. The next boundary will retake the checkpoint.
        recover_from(e.rank());
        replaying = true;
      }
      const CheckpointStats& cs = ckpt_.stats();
      stats_.checkpoints = cs.captures;
      stats_.checkpoint_bytes = cs.bytes_captured;
      stats_.checkpoint_dirty_bytes = cs.dirty_bytes;
      stats_.checkpoint_head_bytes = cs.head_bytes;
      stats_.snapshot_replicas = cs.snapshot_replicas;
      stats_.checkpoint_events = cs.events;
      stats_.checkpoint_ns = cs.capture_ns;
    }
    // Log the wave for replay (moved, not copied — it is executed from the
    // log); kept until the next checkpoint makes the waves since the
    // previous one unreachable by recovery. The serialized blob carries the
    // wave's tenant, so the log — and any replica adopted after a head
    // death — stays tenant-scoped.
    wave_log_.push_back(std::move(wave));
    wave_blobs_.push_back(serialize_graph(wave_log_.back()));
    wave_seqs_.push_back(wave_index_);
    // Pool/tenant aggregates ride in the replicated stats block; fold the
    // latest counters in before the state ships.
    refresh_derived_stats();
    // Mirror the head state to the shadow rank BEFORE executing: if the
    // head dies mid-wave, the promoted successor holds this very wave and
    // replays it — that is the bitwise-identical failover guarantee.
    replicate_head_state(boundary_reset);
    run_with_recovery(&wave_log_.back(), replaying);
  } else {
    run_with_recovery(&wave, replaying);
  }

  ++wave_index_;
  ++stats_.waves;
}

// --- multi-tenancy (tenant queues, WDRR fair-share, admission) ------------

TenantId Runtime::create_tenant(double weight) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  const TenantId id = next_tenant_++;
  TenantState& ts = tenants_[id];
  ts.stats.weight = weight > 0.0 ? weight : 1.0;
  // A new tenant changes the wave interleaving the scheduler will produce,
  // so the armed wave shape is no longer the steady state.
  dm_.disarm_channels();
  return id;
}

Runtime::TenantState& Runtime::tenant_state_locked(TenantId tenant) {
  // find-or-create: kDefaultTenant (and ids minted elsewhere after a head
  // failover) get a queue lazily with the default weight.
  return tenants_[tenant];
}

void Runtime::enqueue_locked(TenantState& ts, ClusterGraph&& wave,
                             TenantId tenant) {
  wave.set_tenant(tenant);
  ++ts.stats.submitted_waves;
  ts.stats.tasks += static_cast<std::int64_t>(wave.size());
  ts.queue.push_back(PendingWave{std::move(wave), now_ns()});
  tenants_cv_.notify_all();
}

void Runtime::submit(ClusterGraph&& wave, TenantId tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  if (serving_stopped_ && serve_error_) {
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant, "serve loop failed; submission refused");
  }
  const std::int64_t cap = opts_.max_pending_waves;
  if (cap > 0 && static_cast<std::int64_t>(ts.queue.size()) >= cap) {
    // Backpressure: the wave is NOT consumed — the caller's rvalue is
    // intact (nothing was moved from it yet), so a retry or submit_wait
    // can resend the same recording.
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant,
                         "tenant queue full (" + std::to_string(cap) +
                             " pending waves); retry or use submit_wait");
  }
  enqueue_locked(ts, std::move(wave), tenant);
}

void Runtime::submit_wait(ClusterGraph&& wave, TenantId tenant) {
  std::unique_lock<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  const std::int64_t cap = opts_.max_pending_waves;
  tenants_cv_.wait(lock, [&] {
    return (serving_stopped_ && serve_error_) || cap <= 0 ||
           static_cast<std::int64_t>(ts.queue.size()) < cap;
  });
  if (serving_stopped_ && serve_error_) {
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant, "serve loop failed while waiting for space");
  }
  enqueue_locked(ts, std::move(wave), tenant);
}

bool Runtime::pick_wave_locked(TenantId* tenant, PendingWave* wave) {
  // Weighted deficit round-robin at wave granularity (non-preemptive: a
  // picked wave runs to completion). The token RESTS on a tenant: it keeps
  // spending its deficit on consecutive waves until it can no longer afford
  // the next one — that is what makes service weight-proportional instead
  // of alternating. Deficit replenishes only when the token ARRIVES at a
  // tenant with work; empty queues forfeit their credit (classic DRR).
  constexpr double kQuantumTasks = 4.0;

  bool any = false;
  for (const auto& [id, ts] : tenants_) {
    (void)id;
    if (!ts.queue.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return false;

  auto next = [this](std::map<TenantId, TenantState>::iterator it) {
    ++it;
    return it == tenants_.end() ? tenants_.begin() : it;
  };
  const auto cost_of = [](const PendingWave& w) {
    return std::max<double>(1.0, static_cast<double>(w.graph.size()));
  };

  auto it = tenants_.find(wdrr_token_);
  bool fresh_arrival = false;
  if (it == tenants_.end()) {
    it = tenants_.begin();
    fresh_arrival = true;
  }
  // Bounded walk: each full cycle adds >= one quantum to some non-empty
  // queue, so a pick happens within a few cycles; the guard is belt and
  // braces against a pathological weight.
  for (int hops = 0; hops < static_cast<int>(tenants_.size()) * 64 + 64;
       ++hops) {
    TenantState& ts = it->second;
    if (ts.queue.empty()) {
      ts.deficit = 0.0;  // forfeits unused credit (bounds burstiness)
      it = next(it);
      fresh_arrival = true;
      continue;
    }
    if (fresh_arrival)
      ts.deficit += kQuantumTasks * std::max(ts.stats.weight, 1e-6);
    const double cost = cost_of(ts.queue.front());
    if (cost <= ts.deficit) {
      ts.deficit -= cost;
      *tenant = it->first;
      *wave = std::move(ts.queue.front());
      ts.queue.pop_front();
      ++ts.executing;
      if (ts.queue.empty()) ts.deficit = 0.0;
      wdrr_token_ = it->first;
      tenants_cv_.notify_all();  // queue space freed for submit_wait
      return true;
    }
    it = next(it);
    fresh_arrival = true;
  }
  // Unreachable with sane weights; treat as empty rather than spin.
  return false;
}

void Runtime::serve_tenants() {
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    serving_stopped_ = false;
    serve_error_ = nullptr;
  }
  try {
    for (;;) {
      // Membership changes commit between tenant waves, same as between
      // wait_all() waves — the cluster is quiescent here.
      process_membership_requests();

      TenantId tenant = kDefaultTenant;
      PendingWave wave;
      bool picked = false;
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(tenants_mutex_);
        tenants_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
          if (open_sessions_.load(std::memory_order_acquire) == 0)
            return true;
          for (const auto& [id, ts] : tenants_) {
            (void)id;
            if (!ts.queue.empty()) return true;
          }
          return false;
        });
        picked = pick_wave_locked(&tenant, &wave);
        if (!picked) {
          bool drained = true;
          for (const auto& [id, ts] : tenants_) {
            (void)id;
            if (!ts.queue.empty() || ts.executing > 0) drained = false;
          }
          finished =
              drained && open_sessions_.load(std::memory_order_acquire) == 0;
        }
      }
      if (finished) break;
      if (!picked) {
        // Idle instant: a failure reported between waves still needs the
        // between-waves repair path so buffers are not left on a corpse.
        if (failure_pending_.load(std::memory_order_acquire))
          run_with_recovery(nullptr, false);
        continue;
      }

      // Task-mix accounting happens here (the session recorded off the
      // head thread, so the recording API's counters never saw the tasks).
      for (const ClusterTask& t : wave.graph.tasks()) {
        switch (t.type) {
          case TaskType::Target: ++stats_.target_tasks; break;
          case TaskType::Host: ++stats_.host_tasks; break;
          default: ++stats_.data_tasks; break;
        }
      }
      ++stats_.tenant_waves;

      const std::int64_t start_ns = now_ns();
      const std::int64_t submit_ns = wave.submit_ns;
      execute_wave(std::move(wave.graph));
      finish_tenant_wave(tenant, submit_ns, start_ns);
    }
    // Final repair sweep, mirroring wait_all()'s empty-graph path.
    if (failure_pending_.load(std::memory_order_acquire))
      run_with_recovery(nullptr, false);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(tenants_mutex_);
      serving_stopped_ = true;
      serve_error_ = std::current_exception();
    }
    tenants_cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    serving_stopped_ = true;
  }
  tenants_cv_.notify_all();
}

void Runtime::finish_tenant_wave(TenantId tenant, std::int64_t submit_ns,
                                 std::int64_t start_ns) {
  const std::int64_t end_ns = now_ns();
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  --ts.executing;
  ++ts.stats.completed_waves;
  ts.stats.queue_wait_ns += start_ns - submit_ns;
  ts.stats.wave_latency_ns.push_back(end_ns - submit_ns);
  tenants_cv_.notify_all();
}

void Runtime::wait_tenant(TenantId tenant) {
  std::unique_lock<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  tenants_cv_.wait(lock, [&] {
    return (ts.queue.empty() && ts.executing == 0) || serving_stopped_;
  });
  if (ts.queue.empty() && ts.executing == 0) return;
  if (serve_error_) std::rethrow_exception(serve_error_);
  throw AdmissionError(tenant, "serving stopped before the queue drained");
}

TenantStats Runtime::tenant_stats(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

void Runtime::note_cache_hit(TenantId tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  if (auto it = tenants_.find(tenant); it != tenants_.end())
    ++it->second.stats.schedule_cache_hits;
}

void Runtime::note_replay(TenantId tenant, std::int64_t tasks) {
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    if (auto it = tenants_.find(tenant); it != tenants_.end())
      it->second.stats.replayed_tasks += tasks;
  }
  // episode_tenants_ is head-control-thread state (like the episode clock);
  // no lock needed for it.
  if (std::find(episode_tenants_.begin(), episode_tenants_.end(), tenant) ==
      episode_tenants_.end())
    episode_tenants_.push_back(tenant);
}

void Runtime::close_tenant_episode(std::int64_t latency_ns) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  for (TenantId tenant : episode_tenants_) {
    if (auto it = tenants_.find(tenant); it != tenants_.end()) {
      ++it->second.stats.recoveries;
      it->second.stats.recovery_latency_ns += latency_ns;
    }
  }
  episode_tenants_.clear();
}

void Runtime::refresh_derived_stats() {
  stats_.threads_spawned = helpers_->threads_spawned();
  const HelperPool& xfer = dm_.transfer_pool();
  stats_.pool_threads_peak = helpers_->peak_threads() + xfer.peak_threads();
  stats_.pool_threads_retired =
      helpers_->threads_retired() + xfer.threads_retired();
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  stats_.tenants = static_cast<std::int64_t>(tenants_.size());
  std::int64_t rejections = 0;
  for (const auto& [id, ts] : tenants_) {
    (void)id;
    rejections += ts.stats.rejected_waves;
  }
  stats_.admission_rejections = rejections;
}

// --- TenantSession --------------------------------------------------------

TenantSession::TenantSession(Runtime& rt, TenantId tenant)
    : rt_(&rt), tenant_(tenant), graph_(fresh()) {
  rt_->open_sessions_.fetch_add(1, std::memory_order_acq_rel);
}

TenantSession::~TenantSession() { close(); }

ClusterGraph TenantSession::fresh() const {
  // The resolver is installed at submit time (a snapshot of sizes_); until
  // then the graph only records, so any lookup would be a logic error.
  return ClusterGraph([](const void*) -> std::size_t {
    OMPC_CHECK_MSG(false, "buffer-size lookup before session submit");
    return 0;
  });
}

void TenantSession::enter_data(void* host, std::size_t size, bool copy) {
  OMPC_CHECK_MSG(!closed_, "enter_data on a closed tenant session");
  OMPC_CHECK_MSG(sizes_.emplace(host, size).second,
                 "buffer " << host << " entered twice in tenant session "
                           << tenant_);
  ClusterTask t;
  t.type = TaskType::DataEnter;
  t.buffer = host;
  t.buffer_bytes = size;
  t.copy = copy;
  t.deps = {omp::out(host)};
  graph_.add_task(std::move(t));
}

void TenantSession::exit_data(void* host, bool copy) {
  OMPC_CHECK_MSG(!closed_, "exit_data on a closed tenant session");
  OMPC_CHECK_MSG(sizes_.count(host) != 0,
                 "exit_data for buffer " << host
                                         << " never entered in this session");
  OMPC_CHECK_MSG(std::find(exited_.begin(), exited_.end(), host) ==
                     exited_.end(),
                 "exit_data for buffer " << host << " recorded twice");
  // Deferred removal: the exit wave's own dependences resolve this buffer,
  // so it leaves sizes_ only when the wave submits.
  exited_.push_back(host);
  ClusterTask t;
  t.type = TaskType::DataExit;
  t.buffer = host;
  t.copy = copy;
  t.deps = {omp::inout(host)};
  graph_.add_task(std::move(t));
}

int TenantSession::target(omp::DepList deps, offload::KernelId kernel,
                          Args args, double cost_s) {
  OMPC_CHECK_MSG(!closed_, "target on a closed tenant session");
  for (const void* b : args.buffers()) {
    const bool listed =
        std::any_of(deps.begin(), deps.end(),
                    [&](const omp::Dep& d) { return d.addr == b; });
    OMPC_CHECK_MSG(listed, "target buffer argument "
                               << b << " missing from depend list");
    OMPC_CHECK_MSG(sizes_.count(b) != 0,
                   "target buffer argument "
                       << b << " was never entered in this session");
  }
  ClusterTask t;
  t.type = TaskType::Target;
  t.kernel = kernel;
  t.buffer_args = args.buffers();
  t.scalars = args.take_scalars();
  t.deps = std::move(deps);
  t.cost_s = cost_s;
  return graph_.add_task(std::move(t));
}

int TenantSession::host_task(std::function<void()> fn, omp::DepList deps) {
  OMPC_CHECK_MSG(!closed_, "host_task on a closed tenant session");
  ClusterTask t;
  t.type = TaskType::Host;
  t.host_fn_handle = HostFnRegistry::instance().intern(fn);
  t.host_fn = std::move(fn);
  t.deps = std::move(deps);
  return graph_.add_task(std::move(t));
}

void TenantSession::submit_impl(bool blocking) {
  OMPC_CHECK_MSG(!closed_, "submit on a closed tenant session");
  if (graph_.empty()) return;
  // The head thread hashes/builds the wave while this thread keeps
  // recording the next one: the resolver must not read live session state.
  // A snapshot closure makes the wave self-contained.
  auto sizes = std::make_shared<const std::unordered_map<const void*,
                                                         std::size_t>>(sizes_);
  graph_.set_buffer_size_fn([sizes](const void* addr) -> std::size_t {
    auto it = sizes->find(addr);
    OMPC_CHECK_MSG(it != sizes->end(),
                   "dependence on buffer " << addr
                                           << " not entered in this session");
    return it->second;
  });
  ClusterGraph wave = std::move(graph_);
  graph_ = fresh();
  try {
    if (blocking) {
      rt_->submit_wait(std::move(wave), tenant_);
    } else {
      rt_->submit(std::move(wave), tenant_);
    }
  } catch (...) {
    // Admission refused the wave un-consumed: keep it recorded so the
    // caller can retry (or fall back to submit_wait).
    graph_ = std::move(wave);
    throw;
  }
  // The wave (and its snapshot) is in flight: recorded exits now leave the
  // session registry, so the buffers can be re-entered in a later wave.
  for (const void* host : exited_) sizes_.erase(host);
  exited_.clear();
}

void TenantSession::submit() { submit_impl(false); }
void TenantSession::submit_wait() { submit_impl(true); }

void TenantSession::wait() {
  OMPC_CHECK_MSG(!closed_, "wait on a closed tenant session");
  rt_->wait_tenant(tenant_);
}

void TenantSession::close() {
  if (closed_) return;
  closed_ = true;
  rt_->open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  // Wake the serve loop so "all sessions closed + queues drained" is
  // re-evaluated immediately.
  std::lock_guard<std::mutex> lock(rt_->tenants_mutex_);
  rt_->tenants_cv_.notify_all();
}

// --- head failover (replicated state, election adoption) -----------------

void Runtime::replicate_head_state(bool boundary_reset) {
  if (bus_ == nullptr || !opts_.head_replication || live_workers_.empty())
    return;
  // The shadow is the first live worker: deterministic, and recovery's
  // re-ranking naturally promotes the next one when it dies.
  const mpi::Rank shadow = live_workers_.front();
  ReplicaStore::Update kind;
  if (shadow != shadow_rank_) {
    kind = ReplicaStore::Update::Full;  // new shadow: resync everything
  } else if (boundary_reset) {
    kind = ReplicaStore::Update::Reset;  // checkpoint retaken: new period
  } else {
    kind = ReplicaStore::Update::Append;  // steady state: just the new wave
  }

  // Metadata travels in full every time — it is O(buffers + workers), tiny
  // next to the wave payloads, and replacing it wholesale keeps the replica
  // trivially consistent. Stats ride along so counters survive a handoff.
  ArchiveWriter meta;
  meta.put_raw(&stats_, sizeof stats_);
  meta.put_vector(live_workers_);
  meta.put_vector(spare_pool_);
  const Bytes dm_blob = dm_.serialize_registry();
  meta.put_blob(std::span<const std::byte>(dm_blob.data(), dm_blob.size()));
  const Bytes ck_blob = ckpt_.serialize_state();
  meta.put_blob(std::span<const std::byte>(ck_blob.data(), ck_blob.size()));
  const Bytes meta_blob = meta.take();

  ArchiveWriter w;
  w.put_blob(std::span<const std::byte>(meta_blob.data(), meta_blob.size()));
  if (kind == ReplicaStore::Update::Full) {
    w.put(static_cast<std::uint64_t>(prev_wave_blobs_.size()));
    for (const Bytes& b : prev_wave_blobs_)
      w.put_blob(std::span<const std::byte>(b.data(), b.size()));
  }
  const std::size_t from =
      kind == ReplicaStore::Update::Append ? replicated_waves_ : 0;
  w.put(static_cast<std::uint64_t>(wave_blobs_.size() - from));
  for (std::size_t i = from; i < wave_blobs_.size(); ++i)
    w.put_blob(std::span<const std::byte>(wave_blobs_[i].data(),
                                          wave_blobs_[i].size()));
  // Shared, not borrowed: if THIS rank dies while waiting for the shadow's
  // completion, the unwind must not free bytes the in-flight envelope still
  // references — the shadow would parse garbage at the exact moment its
  // replica matters most.
  const auto payload = std::make_shared<const Bytes>(w.take());

  HeadStateHeader h;
  h.size = payload->size();
  h.generation = ++replica_generation_;
  h.reset = static_cast<std::uint8_t>(kind);
  ArchiveWriter hw;
  hw.put(h);
  try {
    events_->run(shadow, EventKind::HeadState, hw.take(),
                 mpi::Payload::share(payload, payload->data(),
                                     payload->size()));
    shadow_rank_ = shadow;
    replicated_waves_ = wave_blobs_.size();
    ++stats_.replication_updates;
    stats_.replication_bytes += static_cast<std::int64_t>(payload->size());
  } catch (const WorkerDiedError&) {
    // Shadow died under the update. Skip this round; the detector will
    // shrink the live set and the next boundary resyncs (Full) to the new
    // front. Generations stay strictly increasing across the gap, so the
    // election invariant (freshest replica is unique) holds.
  }
}

void Runtime::failover() {
  const Stopwatch timer;
  // The head's death opens the recovery-latency episode if nothing else
  // did (mirrors rollback()).
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  const mpi::Rank old_head = head_rank_;
  if (bus_ == nullptr || !opts_.head_replication)
    throw RecoveryError(
        "head rank died and head replication is disabled "
        "(ClusterOptions::head_replication); no failover possible");
  OMPC_LOG_WARN("head rank " << old_head
                             << " died; awaiting ring election");

  // The agents' election needs detection (timeout) + candidacy window;
  // bound the wait well above both so a slow CI machine cannot miss a
  // legitimate winner, yet a cluster with no surviving replica holder
  // still fails crisply.
  const std::int64_t timeout_ms =
      std::max<std::int64_t>(2000, 20 * opts_.heartbeat_timeout_ms);
  const std::optional<mpi::Rank> winner =
      bus_->await_new_head(head_epoch_, timeout_ms);
  if (!winner)
    throw RecoveryError(
        "head rank " + std::to_string(old_head) +
        " died and no surviving replica holder won the election; "
        "head state is unrecoverable");

  const MembershipBus::Node node = bus_->node(*winner);
  OMPC_CHECK_MSG(node.events != nullptr && node.replica != nullptr,
                 "elected head rank " << *winner
                                      << " has no registered event system");
  {
    // Swap the event plane under fault_mutex_: detector threads snapshot
    // events_ under the same lock in report_worker_failure().
    std::lock_guard<std::mutex> lock(fault_mutex_);
    head_rank_ = *winner;
    head_epoch_ = bus_->epoch();
    events_ = node.events;
  }
  dm_.rebind(events_);
  ckpt_.rebind(events_);
  adopt_replica();
  schedule_cache_.clear();
  // The dead head's ChannelPlan dies with it: replay runs with the plan
  // disarmed. Every worker posts the promoted head's receives for the new
  // head's rank, so the dead head's orphaned payloads can never match one.
  dm_.disarm_channels();

  // The old head is a corpse to the new event plane too: abort anything
  // still referencing it and tell the workers.
  events_->fail_rank(old_head);
  events_->announce_rank_dead(old_head);
  // Future detector reports (the promoted rank's agent receives them now)
  // flow into this runtime.
  bus_->set_failure_handler(
      [this](mpi::Rank dead) { report_worker_failure(dead); });
  // Workers that died while no head was listening: sweep liveness once so
  // the rollback below (or the next wave's recovery round) processes them.
  std::vector<mpi::Rank> gone;
  for (const mpi::Rank r : live_workers_)
    if (events_->is_rank_gone(r)) gone.push_back(r);
  for (const mpi::Rank r : gone) report_worker_failure(r);

  // Heap reconciliation: the dead head's bookkeeping for in-flight blocks
  // is unrecoverable, so every survivor drops all device blocks except its
  // checkpoint shadows; replay re-allocates from the adopted registry.
  trim_worker_heaps();

  if (!ckpt_.has_checkpoint())
    throw RecoveryError(
        "elected head adopted a replica with no committed checkpoint; "
        "cannot resume");
  events_->quiesce();
  dm_.reset_all_to_host();
  ckpt_.restore(dm_);
  absorb_degraded_restore();
  broadcast_membership();

  ++stats_.recoveries;
  stats_.recovery_ns += timer.elapsed_ns();
  OMPC_LOG_WARN("failover: rank " << head_rank_ << " is the new head ("
                                  << num_live_workers()
                                  << " workers, resuming from wave "
                                  << ckpt_.wave() << ")");
}

void Runtime::adopt_replica() {
  const ReplicaStore::Snapshot snap =
      bus_->node(head_rank_).replica->snapshot();
  OMPC_CHECK_MSG(snap.generation > 0 && !snap.metadata.empty(),
                 "elected head holds an empty replica");

  ArchiveReader r(
      std::span<const std::byte>(snap.metadata.data(), snap.metadata.size()));
  RuntimeStats adopted{};
  r.get_raw(&adopted, sizeof adopted);
  std::vector<mpi::Rank> live = r.get_vector<mpi::Rank>();
  std::vector<mpi::Rank> spares = r.get_vector<mpi::Rank>();
  const Bytes dm_blob = r.get_blob();
  const Bytes ck_blob = r.get_blob();

  // Counters survive the handoff: adopt the replicated block, then count
  // the handoff itself.
  adopted.failovers = stats_.failovers;  // local view is authoritative here
  stats_ = adopted;
  ++stats_.failovers;

  // The winner stops being a worker the moment it becomes the head.
  live.erase(std::remove(live.begin(), live.end(), head_rank_), live.end());
  spares.erase(std::remove(spares.begin(), spares.end(), head_rank_),
               spares.end());
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    live_workers_ = std::move(live);
  }
  spare_pool_ = std::move(spares);
  if (live_workers_.empty())
    throw RecoveryError("cannot fail over: no worker survives the head");

  dm_.adopt_registry(
      std::span<const std::byte>(dm_blob.data(), dm_blob.size()));
  ckpt_.adopt_state(
      std::span<const std::byte>(ck_blob.data(), ck_blob.size()));

  // Wave logs: the replica's blobs plus the local tail — this control
  // thread is the surviving *client*, and waves it recorded that never
  // reached the shadow (a replication round lost with the head) are
  // resubmitted from its own cache, exactly like a client re-issuing
  // unacknowledged requests. The merge aligns BY WAVE NUMBER, not by list
  // position: the replica's first wave is the one recorded right after the
  // adopted checkpoint's boundary (`ckpt_.wave()`), while the local lists
  // may have been reset at a later boundary the replica never learned of —
  // same lengths, one boundary apart, and a position splice would silently
  // drop the wave the client is still waiting on.
  const std::int64_t base = std::max<std::int64_t>(ckpt_.wave(), 0);
  std::vector<Bytes> blobs = snap.waves;
  std::int64_t next_seq = base + static_cast<std::int64_t>(blobs.size());
  std::int64_t newest_local = -1;
  const auto take_local = [&](std::int64_t seq) -> Bytes* {
    for (std::size_t i = 0; i < wave_seqs_.size(); ++i)
      if (wave_seqs_[i] == seq) return &wave_blobs_[i];
    for (std::size_t i = 0; i < prev_wave_seqs_.size(); ++i)
      if (prev_wave_seqs_[i] == seq) return &prev_wave_blobs_[i];
    return nullptr;
  };
  for (const std::int64_t s : wave_seqs_) newest_local = std::max(newest_local, s);
  for (const std::int64_t s : prev_wave_seqs_) newest_local = std::max(newest_local, s);
  while (Bytes* b = take_local(next_seq)) {
    blobs.push_back(std::move(*b));
    ++next_seq;
  }
  if (newest_local >= next_seq)
    throw RecoveryError(
        "head failover cannot reconstruct wave " + std::to_string(next_seq) +
        ": the replica ends before it and the client cache holds only waves "
        "up to " + std::to_string(newest_local) + " with a gap between");
  // The previous-period log belongs to the ADOPTED checkpoint's prior
  // generation; local prev entries newer than that were promoted into the
  // current log above.
  std::vector<Bytes> prev_blobs = snap.prev_waves;

  const auto buffer_size = [this](const void* addr) -> std::size_t {
    // A buffer a replayed wave exits may not be in the adopted registry
    // yet (restore re-registers it); its edge weight defaults harmlessly.
    return dm_.is_registered(addr) ? dm_.buffer_size(addr) : 0;
  };
  wave_log_.clear();
  for (const Bytes& b : blobs)
    wave_log_.push_back(deserialize_graph(
        std::span<const std::byte>(b.data(), b.size()), buffer_size));
  wave_blobs_ = std::move(blobs);
  prev_wave_log_.clear();
  for (const Bytes& b : prev_blobs)
    prev_wave_log_.push_back(deserialize_graph(
        std::span<const std::byte>(b.data(), b.size()), buffer_size));
  prev_wave_blobs_ = std::move(prev_blobs);

  wave_seqs_.clear();
  for (std::int64_t s = base; s < next_seq; ++s) wave_seqs_.push_back(s);
  prev_wave_seqs_.clear();
  for (std::int64_t s = base - static_cast<std::int64_t>(prev_wave_blobs_.size());
       s < base; ++s)
    prev_wave_seqs_.push_back(s);

  // Replication continues from the adopted generation (monotonic across
  // handoffs — the election invariant depends on it) to a fresh shadow.
  replica_generation_ = snap.generation;
  shadow_rank_ = -1;
  replicated_waves_ = 0;
}

void Runtime::absorb_degraded_restore() {
  if (!ckpt_.last_restore_degraded()) return;
  // The restore fell back to the PRIOR checkpoint generation: the waves of
  // the previous period must replay too. Splice them ahead of the current
  // period's log (callers re-home any pointer into the vector).
  wave_log_.insert(wave_log_.begin(),
                   std::make_move_iterator(prev_wave_log_.begin()),
                   std::make_move_iterator(prev_wave_log_.end()));
  wave_blobs_.insert(wave_blobs_.begin(),
                     std::make_move_iterator(prev_wave_blobs_.begin()),
                     std::make_move_iterator(prev_wave_blobs_.end()));
  wave_seqs_.insert(wave_seqs_.begin(), prev_wave_seqs_.begin(),
                    prev_wave_seqs_.end());
  prev_wave_log_.clear();
  prev_wave_blobs_.clear();
  prev_wave_seqs_.clear();
  // The spliced log is one period again; force a Full resync so the shadow
  // sees the same shape.
  shadow_rank_ = -1;
  OMPC_LOG_WARN("recovery: degraded restore — replaying "
                << wave_log_.size() << " waves from the prior boundary");
}

void Runtime::trim_worker_heaps() {
  std::vector<OriginEventPtr> acks;
  std::vector<mpi::Rank> targets = live_workers_;
  targets.push_back(head_rank_);  // the promoted rank's own worker heap
  for (const mpi::Rank r : targets) {
    if (events_->is_rank_gone(r)) continue;
    const std::vector<offload::TargetPtr> keep = ckpt_.shadows_on(r);
    ArchiveWriter w;
    w.put(TrimHeapHeader{static_cast<std::uint64_t>(keep.size())});
    for (const offload::TargetPtr p : keep) w.put(p);
    try {
      acks.push_back(events_->start(r, EventKind::TrimHeap, w.take()));
    } catch (const WorkerDiedError&) {
      // Died under the trim command; the liveness sweep picks it up.
    }
  }
  for (const OriginEventPtr& ev : acks) {
    try {
      ev->wait();
    } catch (const WorkerDiedError&) {
    }
  }
}

void Runtime::broadcast_membership() {
  ArchiveWriter w;
  MembershipUpdateHeader h;
  h.head = head_rank_;
  h.worker_count = live_workers_.size();
  w.put(h);
  for (const mpi::Rank r : live_workers_) w.put(r);
  const Bytes header = w.take();
  std::vector<OriginEventPtr> acks;
  for (const mpi::Rank r : live_workers_) {
    if (events_->is_rank_gone(r)) continue;
    try {
      acks.push_back(
          events_->start(r, EventKind::MembershipUpdate, Bytes(header)));
    } catch (const WorkerDiedError&) {
    }
  }
  for (const OriginEventPtr& ev : acks) {
    try {
      ev->wait();
    } catch (const WorkerDiedError&) {
    }
  }
}

// --- elastic membership (runtime join/leave) ------------------------------

mpi::Rank Runtime::request_join() {
  if (spare_pool_.empty()) return -1;
  const mpi::Rank r = spare_pool_.front();
  spare_pool_.erase(spare_pool_.begin());
  pending_joins_.push_back(r);
  return r;
}

bool Runtime::request_leave(mpi::Rank rank) {
  if (std::find(live_workers_.begin(), live_workers_.end(), rank) ==
      live_workers_.end())
    return false;
  if (live_workers_.size() <= 1) return false;  // never drain the last one
  if (std::find(pending_leaves_.begin(), pending_leaves_.end(), rank) !=
      pending_leaves_.end())
    return false;
  pending_leaves_.push_back(rank);
  return true;
}

void Runtime::process_membership_requests() {
  if (pending_joins_.empty() && pending_leaves_.empty()) return;
  bool changed = false;
  try {
    while (!pending_leaves_.empty()) {
      const mpi::Rank r = pending_leaves_.front();
      if (std::find(live_workers_.begin(), live_workers_.end(), r) ==
              live_workers_.end() ||
          live_workers_.size() <= 1) {
        pending_leaves_.erase(pending_leaves_.begin());
        continue;  // died (or shrank to last) since the request
      }
      // Drain: the leaver may hold the sole valid copy of any buffer, so
      // pull everything head-side first, then forget its replicas (no
      // Delete events — the trim below frees wholesale) and shrink its
      // heap down to the checkpoint shadows it still hosts: those stay
      // fetchable, so snapshots buddy'd on a retired rank survive a later
      // owner death.
      std::vector<const void*> hosts;
      dm_.for_each_buffer(
          [&hosts](void* h, std::size_t) { hosts.push_back(h); });
      dm_.refresh_head_many(hosts);
      dm_.purge_rank(r);
      const std::vector<offload::TargetPtr> keep = ckpt_.shadows_on(r);
      ArchiveWriter w;
      w.put(TrimHeapHeader{static_cast<std::uint64_t>(keep.size())});
      for (const offload::TargetPtr p : keep) w.put(p);
      events_->run(r, EventKind::TrimHeap, w.take());
      {
        std::lock_guard<std::mutex> lock(fault_mutex_);
        live_workers_.erase(
            std::remove(live_workers_.begin(), live_workers_.end(), r),
            live_workers_.end());
      }
      spare_pool_.push_back(r);  // re-joinable later
      pending_leaves_.erase(pending_leaves_.begin());
      ++stats_.workers_retired;
      changed = true;
      OMPC_LOG_INFO("membership: worker rank "
                    << r << " retired (" << live_workers_.size()
                    << " remain)");
    }
    while (!pending_joins_.empty()) {
      const mpi::Rank r = pending_joins_.front();
      pending_joins_.erase(pending_joins_.begin());
      if (events_->is_rank_gone(r)) continue;  // died while pending
      {
        std::lock_guard<std::mutex> lock(fault_mutex_);
        live_workers_.insert(
            std::upper_bound(live_workers_.begin(), live_workers_.end(), r),
            r);
      }
      changed = true;
      ++stats_.workers_joined;
      // The joiner's ownership slice: every |live|-th buffer migrates to
      // it worker->worker over the data plane, so its replicas are real
      // (they survive a later owner death via the normal ownership map,
      // and give HEFT locality to schedule against).
      const std::size_t moved =
          dm_.migrate_buffers(r, live_workers_.size());
      OMPC_LOG_INFO("membership: worker rank "
                    << r << " joined (" << live_workers_.size()
                    << " live, " << moved << " buffers migrated)");
    }
  } catch (const WorkerDiedError& e) {
    // A rank died under the membership change. Leave the remaining
    // requests queued (they re-apply at the next boundary, after
    // recovery); the failure itself goes through the normal machinery.
    if (e.rank() >= 0) report_worker_failure(e.rank());
  }
  if (changed) {
    // Schedules were computed for the old worker table — and so was the
    // ChannelPlan (its kept blocks name ranks): both invalidate together.
    schedule_cache_.clear();
    dm_.disarm_channels();
    broadcast_membership();
    // Membership is head state: resync the replica eagerly so a failover
    // in the very next wave sees the new table.
    shadow_rank_ = -1;
  }
}

RuntimeStats launch(const ClusterOptions& opts,
                    const std::function<void(Runtime&)>& head_main) {
  const Stopwatch wall;
  RuntimeStats stats;

  // Data-plane copy accounting is process-wide (workers share the process
  // in this simulated cluster); report this launch's delta.
  const std::int64_t payload_copies_before = mpi::payload_copies();

  const bool hb_on = opts.heartbeat_period_ms > 0;

  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.network = opts.network;
  // control + data communicators (+ a dedicated heartbeat ring comm).
  uopts.comms = 1 + opts.vci + (hb_on ? 1 : 0);
  uopts.kills = opts.kills;  // fault injection (§5 testing)
  uopts.conduit = opts.conduit;
  // The control communicator (context 0) must own a hardware channel no
  // data context aliases onto, or notification latency serializes behind
  // multi-megabyte payload transfers (contexts stripe channel = ctx % n).
  uopts.network.channels = std::max(uopts.network.channels, opts.vci + 1);

  const int hb_comm_index = 1 + opts.vci;
  HeartbeatRing::Options hb_opts;
  hb_opts.period_ms = opts.heartbeat_period_ms;
  hb_opts.timeout_ms = opts.heartbeat_timeout_ms;
  hb_opts.adaptive = opts.heartbeat_adaptive;
  hb_opts.min_timeout_ms = opts.heartbeat_min_timeout_ms;
  hb_opts.dev_factor = opts.heartbeat_dev_factor;

  // Election/replication rendezvous between the per-rank agents and the
  // surviving control thread (shared-memory stand-in for connection
  // re-establishment; see membership.hpp).
  MembershipBus bus;

  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      // --- head node ---
      const Stopwatch startup;
      EventSystem events(ctx, opts, nullptr, nullptr);

      Runtime rt(opts, events, &bus);
      // Teardown latch: whatever happens below (including error unwinds),
      // a promoted worker's main thread must eventually be released to
      // destroy the event system this control thread borrowed.
      struct ControlReleaser {
        MembershipBus& bus;
        ~ControlReleaser() { bus.release_control(); }
      } releaser{bus};

      // §5 failure detection: the head sits in the heartbeat ring (catching
      // its own predecessor's death) and runs a monitor thread collecting
      // the reports other ring members send when *their* predecessor dies.
      // Both paths funnel into report_worker_failure(), which arms the
      // recovery machinery in wait_all().
      std::unique_ptr<HeartbeatRing> ring;
      std::thread monitor;
      std::atomic<bool> monitor_stop{false};
      std::mutex monitor_mutex;
      std::condition_variable monitor_cv;
      if (hb_on) {
        mpi::Comm hb = ctx.comm(hb_comm_index);
        ring = std::make_unique<HeartbeatRing>(
            hb, hb_opts, [&rt, hb](mpi::Rank dead) {
              // A dead head stops hearing pings too — that silence is the
              // head's OWN death, not the predecessor's. The failover
              // machinery owns detection from here.
              if (!hb.universe().is_dead(0)) rt.report_worker_failure(dead);
            });
        monitor = std::thread([&, hb] {
          log::set_thread_label("fmon");
          while (!monitor_stop.load(std::memory_order_acquire)) {
            // After the head dies the promoted rank's membership agent is
            // the failure monitor; this thread must stop touching the
            // runtime (it would race the control thread's adoption).
            if (hb.universe().is_dead(0)) break;
            try {
              while (
                  auto st = hb.iprobe(mpi::kAnySource, kFailureReportTag)) {
                std::uint64_t dead = 0;
                hb.recv(&dead, sizeof dead, st->source, kFailureReportTag);
                rt.report_worker_failure(static_cast<mpi::Rank>(dead));
              }
            } catch (const mpi::RankKilledError&) {
              break;  // own mailbox poisoned: the head just died
            }
            // Once the ring has a hole, a further corpse whose successor is
            // already dead has no ring member left to flag it. Until the
            // ring is re-linked around failures (ROADMAP), fall back to
            // universe-level liveness for the cascading case only — the
            // ring stays the sole detector of the first failure.
            if (rt.failures_reported() > 0) {
              for (mpi::Rank r = 1; r <= opts.total_workers(); ++r) {
                if (hb.universe().is_dead(r)) rt.report_worker_failure(r);
              }
            }
            // Drain with a short bounded wait, not a full heartbeat period:
            // a report now reaches recovery within ~1 ms of arriving
            // instead of adding up to heartbeat_period_ms of detection
            // latency on top of the ring timeout. The cv (paired with the
            // shutdown path, which notifies under monitor_mutex) lets stop
            // take effect immediately instead of after the timeout.
            std::unique_lock<std::mutex> lock(monitor_mutex);
            monitor_cv.wait_for(lock, std::chrono::milliseconds(1),
                                [&monitor_stop] {
                                  return monitor_stop.load(
                                      std::memory_order_acquire);
                                });
          }
        });
      }
      stats.startup_ns = startup.elapsed_ns();

      // Any head-side failure must still shut the workers down, or they
      // would wait for events forever and the join below would hang.
      std::exception_ptr error;
      try {
        head_main(rt);
        rt.wait_all();  // implicit barrier at the end of the parallel region
      } catch (...) {
        error = std::current_exception();
      }

      const Stopwatch shutdown;
      // The last boundary's snapshot drops are acked while the workers and
      // the failure detectors still run; after the shutdown nobody could.
      rt.checkpoints().settle_drops();
      if (!error) {
        // A worker can die in this very window (after the last wave,
        // before/while cleanup deletes its buffers) — which is why the
        // ring and monitor are still running here: detection fails the
        // blocked Delete events so this cannot hang. Capture the error so
        // the live workers still get their Shutdown below.
        try {
          rt.data_manager().cleanup_all();
        } catch (...) {
          error = std::current_exception();
        }
      }
      // Detection must stop before cluster teardown: ring members going
      // silent one by one as they shut down must not read as failures.
      // (shutdown_cluster itself tolerates a rank dying mid-handshake by
      // polling liveness instead of blocking on the ack.)
      if (ring) ring->stop();
      if (monitor.joinable()) {
        {
          std::lock_guard<std::mutex> lock(monitor_mutex);
          monitor_stop.store(true, std::memory_order_release);
        }
        monitor_cv.notify_all();
        monitor.join();
      }
      // Through the runtime's CURRENT event system: after a failover this
      // is the promoted rank's, and the dead head's own system already
      // stopped itself when its mailbox was poisoned. When the head died
      // and nobody could be promoted (replica lost with it, or replication
      // off), there is no live control plane left to deliver Shutdown —
      // model the job scheduler reclaiming the allocation instead: poison
      // the survivors, which stops their event systems like any kill.
      if (!ctx.universe().is_dead(rt.head_rank())) {
        rt.events().shutdown_cluster();
      } else {
        for (mpi::Rank r = 1; r < static_cast<mpi::Rank>(opts.ranks()); ++r)
          if (!ctx.universe().is_dead(r)) ctx.universe().kill_rank(r, 0);
      }
      stats.shutdown_ns = shutdown.elapsed_ns();
      if (error) std::rethrow_exception(error);

      // Merge head-side counters.
      rt.refresh_derived_stats();
      RuntimeStats& rs = rt.stats();
      stats.schedule_ns = rs.schedule_ns;
      stats.waves = rs.waves;
      stats.target_tasks = rs.target_tasks;
      stats.data_tasks = rs.data_tasks;
      stats.host_tasks = rs.host_tasks;
      stats.makespan_estimate_s = rs.makespan_estimate_s;
      // Checkpoint counters come straight from the store: drops issued at
      // late boundaries and restores update it after the last wait_all
      // refresh.
      const CheckpointStats& cks = rt.checkpoints().stats();
      stats.checkpoints = cks.captures;
      stats.checkpoint_bytes = cks.bytes_captured;
      stats.checkpoint_dirty_bytes = cks.dirty_bytes;
      stats.checkpoint_head_bytes = cks.head_bytes;
      stats.snapshot_replicas = cks.snapshot_replicas;
      stats.checkpoint_events = cks.events;
      stats.checkpoint_ns = cks.capture_ns;
      stats.schedule_cache_hits = rs.schedule_cache_hits;
      stats.channels_armed = rs.channels_armed;
      stats.recovery_latency_ns = rs.recovery_latency_ns;
      stats.recoveries = rs.recoveries;
      stats.workers_lost = rs.workers_lost;
      stats.buffers_lost = rs.buffers_lost;
      stats.replayed_tasks = rs.replayed_tasks;
      stats.recovery_ns = rs.recovery_ns;
      stats.failovers = rs.failovers;
      stats.replication_updates = rs.replication_updates;
      stats.replication_bytes = rs.replication_bytes;
      stats.workers_joined = rs.workers_joined;
      stats.workers_retired = rs.workers_retired;
      stats.tenants = rs.tenants;
      stats.tenant_waves = rs.tenant_waves;
      stats.admission_rejections = rs.admission_rejections;
      stats.pool_threads_peak = rs.pool_threads_peak;
      stats.pool_threads_retired = rs.pool_threads_retired;
      stats.events_originated = rt.events().stats().originated.load();
      const DataManagerStats& ds = rt.data_manager().stats();
      stats.submits = ds.submits.load();
      stats.retrieves = ds.retrieves.load();
      stats.exchanges = ds.exchanges.load();
      stats.bytes_moved = ds.bytes_moved.load();
      stats.persistent_reuses = ds.persistent_reuses.load();
      stats.threads_spawned = rs.threads_spawned + ds.threads_spawned.load();
    } else {
      // --- worker node ---
      // Universe-aware heap: every device block doubles as an RMA window,
      // making this worker a put/get target for the one-sided data plane.
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime exec_pool(opts.worker_threads);
      // The replica store makes this rank a head-failover candidate: it
      // accumulates HeadState updates (verbatim blobs) and its generation
      // is the rank's ballot in the ring election.
      ReplicaStore replica;
      EventSystem events(ctx, opts, &memory, &exec_pool, &replica);
      bus.register_node(ctx.rank(), &events, &replica);
      // Membership agent: heartbeat ring + failure-report routing to the
      // *current* head + the head-death election (membership.hpp).
      std::unique_ptr<MembershipAgent> agent;
      if (hb_on) {
        MembershipAgent::Options aopts;
        aopts.hb = hb_opts;
        aopts.initial_head = 0;
        agent = std::make_unique<MembershipAgent>(ctx.comm(hb_comm_index),
                                                 aopts, &bus, &replica);
      }
      events.wait_until_stopped();
      if (agent) agent->stop();
      // A promoted worker's event system is being driven by the surviving
      // control thread; destroying it underneath that thread would be a
      // use-after-free. Wait for the control thread to finish completely.
      if (bus.epoch() > 0 && bus.current_head() == ctx.rank())
        bus.await_control_release();
    }
  });

  stats.messages_sent = universe.messages_sent();
  stats.payload_copies = mpi::payload_copies() - payload_copies_before;
  stats.wall_ns = wall.elapsed_ns();
  return stats;
}

}  // namespace ompc::core
