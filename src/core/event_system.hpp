// The MPI-based distributed event system (paper §4.2, Figure 3).
//
// Per rank:
//  - the control communicator is *listened* (minimpi's active-message
//    delivery): a new-event notification is handled on the thread that
//    delivers it, which enqueues the destination half of the event, and a
//    completion notification completes the origin waiter right there. No
//    thread blocks in probe/recv for control traffic, so a round trip is
//    two thread hand-offs: origin -> handler -> origin;
//  - a pool of *event handlers* executes queued events as state machines.
//    An event whose I/O is still pending is parked: it goes back on the
//    handler queue only when something it waits on changes — its request
//    completes (a one-shot minimpi completion hook; a rank death completes
//    every request that waits on the corpse), or, for TrimHeap, another
//    event leaves a handler. No handler sleeps or polls on pending I/O;
//  - origin threads (the head's helper threads) create events, each with a
//    unique tag; every data message of an event travels on a data
//    communicator chosen round-robin by that tag (the VCI striping of
//    §4.2's last paragraph) so events are isolated channels.
//
// Every transfer is a one-shot minimpi operation: a Submit payload is one
// send matched by one receive on its event tag, an RmaPut item is one
// one-sided put. What repeats across steady-state waves is the placement
// of device blocks (the Data Manager's ChannelPlan), not any request.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/options.hpp"
#include "core/proto.hpp"
#include "minimpi/mpi.hpp"
#include "omptask/runtime.hpp"

namespace ompc::core {

class ReplicaStore;

/// Rank-local "device memory": the worker-side heap that Alloc/Delete
/// events manage. Head code never dereferences these addresses (distinct
/// address spaces by discipline, README "Simulation design").
///
/// Blocks are shared-ownership so outbound payloads (Retrieve, RmaPut)
/// can send device memory zero-copy: share() pins the block for the life of
/// the in-flight message, surviving a concurrent Delete event and even this
/// rank dying with the payload still on the simulated wire.
///
/// Constructed with a universe, the heap doubles as the rank's one-sided
/// exposure: every block is registered as an RMA window under its own
/// address at alloc() and unregistered at free(), so remote ranks can put
/// into any live block by (rank, address) with no per-transfer handshake —
/// the target side of the RmaPut data plane. The universe-less form keeps
/// the heap usable standalone (unit tests).
class WorkerMemory {
 public:
  WorkerMemory() = default;
  WorkerMemory(mpi::Universe* universe, mpi::Rank rank)
      : universe_(universe), rank_(rank) {}
  /// Unregisters any window still live (leftover snapshot shadows, a rank
  /// unwinding from fault injection) — a put in flight toward them resolves
  /// to nothing and is dropped at delivery, matching the rank's death.
  ~WorkerMemory();

  offload::TargetPtr alloc(std::size_t size);
  void free(offload::TargetPtr ptr);

  /// free() that tolerates an unknown pointer (returns false instead of
  /// failing). After a head failover the adopted checkpoint state lags the
  /// real heap by up to one boundary, so a SnapshotDrop may name a shadow
  /// this rank already released — a legitimate no-op, not a double free.
  bool try_free(offload::TargetPtr ptr);

  /// Zero-copy read view of the allocation starting at `ptr` (must be a
  /// block base), pinned for the payload's lifetime.
  mpi::Payload share(offload::TargetPtr ptr, std::size_t size) const;

  /// Frees every block whose address is not in `keep` (TrimHeap): heap
  /// reconciliation after a head failover, when the dead head's bookkeeping
  /// for all non-checkpoint blocks is unrecoverable. Windows go with the
  /// blocks; in-flight payloads sharing a freed block stay pinned.
  void retain_only(const std::vector<offload::TargetPtr>& keep);

  std::size_t live() const;

 private:
  void register_window(offload::TargetPtr ptr);

  struct Block {
    std::shared_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };
  mpi::Universe* universe_ = nullptr;  ///< null: no window registration
  mpi::Rank rank_ = -1;
  mutable std::mutex mutex_;
  std::unordered_map<offload::TargetPtr, Block> live_;
};

/// Origin half of an event (the E_O of Figure 3). wait() blocks the origin
/// thread until the destination's completion notification arrives.
class OriginEvent {
 public:
  /// `peer` is the third rank involved, if any (the target of an RmaPut
  /// forward); a failure of either dest or peer fails the event.
  OriginEvent(mpi::Tag tag, EventKind kind, mpi::Rank dest,
              mpi::Rank peer = mpi::kAnySource)
      : tag_(tag), kind_(kind), dest_(dest), peer_(peer) {}

  mpi::Tag tag() const noexcept { return tag_; }
  EventKind kind() const noexcept { return kind_; }
  mpi::Rank dest() const noexcept { return dest_; }
  mpi::Rank peer() const noexcept { return peer_; }

  /// Blocks until completion; returns the destination's result blob.
  /// Throws WorkerDiedError if the destination (or its put peer) died
  /// before completing the event.
  const Bytes& wait();

  bool done() const;

 private:
  friend class EventSystem;

  void complete(Bytes result);

  /// Completes exceptionally: `dead` (dest or peer) died. wait() throws.
  void fail(mpi::Rank dead);

  const mpi::Tag tag_;
  const EventKind kind_;
  const mpi::Rank dest_;
  const mpi::Rank peer_;

  // Inbound payload request (Retrieve posts its irecv before notifying).
  mpi::Request data_request_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  mpi::Rank failed_rank_ = mpi::kAnySource;  ///< >= 0: completed by failure
  Bytes result_;
};

using OriginEventPtr = std::shared_ptr<OriginEvent>;

struct EventSystemStats {
  std::atomic<std::int64_t> originated{0};
  std::atomic<std::int64_t> handled{0};
  /// Times an event with pending I/O was parked (Fig. 3 step 5b).
  std::atomic<std::int64_t> parked{0};
  /// Times a wake source put a parked event back on the handler queue.
  std::atomic<std::int64_t> resumed{0};
  /// Parked events dropped by a local stop instead of being resumed; once
  /// the handlers have exited, parked == resumed + released.
  std::atomic<std::int64_t> released{0};
  std::atomic<std::int64_t> kernels_run{0};
};

class EventSystem {
 public:
  /// `memory`/`exec_pool` may be null on the head (it executes nothing).
  /// `replica`, when non-null, receives HeadState payloads (worker ranks
  /// eligible to shadow the head's recording state).
  EventSystem(mpi::RankContext& ctx, const ClusterOptions& opts,
              WorkerMemory* memory, omp::TaskRuntime* exec_pool,
              ReplicaStore* replica = nullptr);
  ~EventSystem();

  EventSystem(const EventSystem&) = delete;
  EventSystem& operator=(const EventSystem&) = delete;

  // --- origin API (head helper threads) --------------------------------

  /// Creates an event, ships its notification (and eager payload, for
  /// Submit) and returns the waitable origin half. `peer` marks the target
  /// of a worker->worker RmaPut (failure of either rank fails the event).
  /// Throws WorkerDiedError when dest/peer is already known dead.
  /// A borrowed payload is safe here: the destination completes the event
  /// only after delivery, and the origin blocks in wait() until then.
  OriginEventPtr start(mpi::Rank dest, EventKind kind, Bytes header,
                       mpi::Payload payload = {},
                       mpi::Rank peer = mpi::kAnySource);

  /// Retrieve: posts the inbound irecv into `dst_host` *before* notifying
  /// the worker, so the payload can never race the receive. `kind` may be
  /// SnapshotFetch (wire-identical pull of a checkpoint shadow) instead of
  /// the default Retrieve.
  OriginEventPtr start_retrieve(mpi::Rank dest, offload::TargetPtr src,
                                void* dst_host, std::size_t size,
                                EventKind kind = EventKind::Retrieve);

  /// start + wait.
  Bytes run(mpi::Rank dest, EventKind kind, Bytes header,
            mpi::Payload payload = {});

  /// Fresh event tag. The counter is per origin rank and never repeats,
  /// and every receive of a tag is posted for its exact origin, so a
  /// promoted head cannot match the dead head's orphaned payloads even when
  /// the two counters meet on the same value.
  mpi::Tag allocate_tag();

  // --- fault handling (paper §5) ---------------------------------------

  /// Declares `dead` failed: every origin event whose destination or
  /// put peer is `dead` completes exceptionally (wait() throws
  /// WorkerDiedError) and future start()s to it throw immediately.
  /// Thread-safe; called by the failure detector on the head.
  void fail_rank(mpi::Rank dead);

  /// Head only: tells every live worker that `dead` died, so a worker
  /// promoted to head later knows the dead set.
  void announce_rank_dead(mpi::Rank dead);

  /// Whether `r` has been declared dead (local knowledge).
  bool is_rank_dead(mpi::Rank r) const;

  /// Combined liveness: declared dead by a detector OR already poisoned in
  /// the simulated universe (a corpse no detector has flagged yet). The
  /// checkpoint store uses this to resolve which snapshot holder survives.
  bool is_rank_gone(mpi::Rank r) const;

  /// The simulated universe this rank runs in (fault injection at a chosen
  /// protocol point, e.g. between two waves).
  mpi::Universe& universe() const noexcept { return control_.universe(); }

  /// Blocks until no origin event is outstanding — the quiescent point the
  /// recovery path needs before it mutates cluster-wide data state.
  void quiesce();

  // --- lifecycle --------------------------------------------------------

  /// Head only: shuts down every live worker's event system (acknowledged),
  /// then stops the local one. Dead ranks are skipped.
  void shutdown_cluster();

  /// Blocks the worker main thread until a Shutdown event arrives.
  void wait_until_stopped();

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  const EventSystemStats& stats() const { return stats_; }
  mpi::Rank rank() const noexcept { return rank_; }

 private:
  /// Destination half of an event (the E_D of Figure 3).
  struct RemoteEvent {
    EventAnnounce announce;
    std::uint64_t id = 0;  ///< rank-local, fixed at enqueue; keys the lot
    bool resumed = false;  ///< woken from the parking lot, not yet counted
    int phase = 0;
    /// Pending irecv (Submit, HeadState), or the composite of an RmaPut's
    /// item puts (mpi::when_all).
    mpi::Request io;
    std::shared_ptr<Bytes> blob;  ///< HeadState payload landing buffer
  };

  /// The handler queue and the parking lot of events waiting on I/O. Owned
  /// by shared_ptr so completion hooks can hold it weakly: a request that
  /// completes after this EventSystem is gone (a late put ack, a killed
  /// rank's receive) finds no queue and does nothing.
  struct EventQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<RemoteEvent> ready;
    /// Events parked on a pending request, by RemoteEvent::id.
    std::unordered_map<std::uint64_t, RemoteEvent> parked;
    /// TrimHeap events waiting to be the only active event.
    std::vector<RemoteEvent> idle_waiters;
    std::uint64_t next_id = 0;
    /// Wake epoch of the idle waiters: handler exits from progress().
    std::uint64_t exits = 0;

    /// Completion hook body: moves event `id` back to `ready` if it is
    /// still parked (a stale or repeated wake finds nothing).
    void resume(std::uint64_t id);
    /// Takes the idle waiters (and with `all`, every parked event) out of
    /// the lot. Caller holds `mutex`.
    std::vector<RemoteEvent> unpark_locked(bool all);
    /// Moves every idle waiter back to `ready`; true when any moved.
    /// Caller holds `mutex`.
    bool wake_idle_locked();
  };

  /// Control-communicator listener, run on the delivering thread: enqueues
  /// announced events, completes origin events, and handles Shutdown and
  /// RankDead itself. Must not block.
  void on_control(mpi::Envelope&& env);

  /// Handler loop: pops a ready event and advances it with progress(). An
  /// event left with pending I/O is parked by settle() and returns to the
  /// ready queue only when woken: by its request's completion hook or, for
  /// TrimHeap, by another event leaving a handler. No handler sleeps or
  /// polls.
  void handler_main();

  /// After a handler leaves progress(): wakes the TrimHeap idle waiters
  /// (the active-event count just changed), then parks `pending`, if set,
  /// until its request completes. An idle wake that fired since
  /// `seen_exits` requeues it at once instead; stopped, it is released.
  void settle(RemoteEvent* pending, std::uint64_t seen_exits);

  /// This rank died (the control listener's poison handler): declare self
  /// dead and fail every outstanding origin event, so origin waiters
  /// unblock — their completions can never arrive once the mailbox is
  /// poisoned.
  void fail_local();

  /// Advances the event; true when finished (completion already sent).
  bool progress(RemoteEvent& ev);
  void send_completion(mpi::Rank to, mpi::Tag tag, Bytes result);

  /// The data comm of event `tag`; `stripe` offsets the choice, so the
  /// items of one list event spread over the comms.
  mpi::Comm data_comm_for(mpi::Tag tag, std::size_t stripe = 0) const;

  void enqueue_remote(RemoteEvent&& ev);
  void stop_local();

  const mpi::Rank rank_;
  mpi::Comm control_;
  std::vector<mpi::Comm> data_comms_;

  WorkerMemory* memory_;
  omp::TaskRuntime* exec_pool_;
  ReplicaStore* replica_;

  // Origin registry: events awaiting completion, keyed by tag. Also guards
  // the dead-rank set; origin_cv_ signals the registry shrinking (quiesce).
  mutable std::mutex origin_mutex_;
  std::condition_variable origin_cv_;
  std::unordered_map<mpi::Tag, OriginEventPtr> origin_events_;
  std::unordered_set<mpi::Rank> dead_ranks_;
  std::atomic<mpi::Tag> next_tag_{kFirstEventTag};

  // Local destination-event queue and parking lot. active_events_ counts
  // events currently inside progress() — TrimHeap defers until it is the
  // only one.
  const std::shared_ptr<EventQueue> queue_ = std::make_shared<EventQueue>();
  std::atomic<int> active_events_{0};

  std::atomic<bool> stop_{false};
  std::mutex stopped_mutex_;
  std::condition_variable stopped_cv_;

  EventSystemStats stats_;

  std::vector<std::thread> handlers_;
};

}  // namespace ompc::core
