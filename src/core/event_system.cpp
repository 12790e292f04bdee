#include "core/event_system.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/check.hpp"
#include "core/fault.hpp"
#include "core/membership.hpp"
#include "common/log.hpp"
#include "common/time.hpp"

namespace ompc::core {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::Alloc: return "Alloc";
    case EventKind::Delete: return "Delete";
    case EventKind::Submit: return "Submit";
    case EventKind::Retrieve: return "Retrieve";
    case EventKind::Execute: return "Execute";
    case EventKind::Shutdown: return "Shutdown";
    case EventKind::RankDead: return "RankDead";
    case EventKind::SnapshotSave: return "SnapshotSave";
    case EventKind::SnapshotDrop: return "SnapshotDrop";
    case EventKind::SnapshotFetch: return "SnapshotFetch";
    case EventKind::RmaPut: return "RmaPut";
    case EventKind::HeadState: return "HeadState";
    case EventKind::TrimHeap: return "TrimHeap";
    case EventKind::MembershipUpdate: return "MembershipUpdate";
  }
  return "?";
}

// --- WorkerMemory --------------------------------------------------------

WorkerMemory::~WorkerMemory() {
  if (universe_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tp, blk] : live_) {
    (void)blk;
    universe_->windows().destroy(rank_, tp);
  }
}

offload::TargetPtr WorkerMemory::alloc(std::size_t size) {
  const std::size_t n = size == 0 ? 1 : size;
  std::shared_ptr<std::byte[]> mem(new std::byte[n]);
  const auto tp = reinterpret_cast<offload::TargetPtr>(mem.get());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.emplace(tp, Block{std::move(mem), n});
  }
  // Eager window registration: every live block is a put/get target under
  // its own address, so a producer can write a consumer's block without
  // any per-transfer registration handshake.
  if (universe_ != nullptr) register_window(tp);
  return tp;
}

void WorkerMemory::free(offload::TargetPtr ptr) {
  OMPC_CHECK_MSG(try_free(ptr), "worker double free of device ptr " << ptr);
}

bool WorkerMemory::try_free(offload::TargetPtr ptr) {
  // The block must stay alive until the window is gone: destroy() excludes
  // in-flight landing copies (WindowRegistry fills under its lock), so a
  // put racing the free either lands before the teardown or is dropped at
  // delivery (and still acked) — never written into freed memory. Hence
  // the entry is moved out of the map first and its bytes released only
  // after destroy() returns; in-flight payloads that share the block keep
  // it alive longer still.
  Block doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(ptr);
    if (it == live_.end()) return false;
    doomed = std::move(it->second);
    live_.erase(it);
  }
  if (universe_ != nullptr) universe_->windows().destroy(rank_, ptr);
  return true;
}

void WorkerMemory::register_window(offload::TargetPtr ptr) {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(ptr);
    OMPC_CHECK_MSG(it != live_.end(), "window for unknown device ptr " << ptr);
    n = it->second.size;
  }
  universe_->windows().create(rank_, ptr, reinterpret_cast<void*>(ptr), n);
}

mpi::Payload WorkerMemory::share(offload::TargetPtr ptr,
                                 std::size_t size) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(ptr);
  OMPC_CHECK_MSG(it != live_.end(), "share of unknown device ptr " << ptr);
  OMPC_CHECK_MSG(size <= it->second.size,
                 "share of " << size << " B exceeds allocation of "
                             << it->second.size << " B");
  return mpi::Payload::share(
      std::shared_ptr<const void>(it->second.mem, it->second.mem.get()),
      reinterpret_cast<const void*>(ptr), size);
}

void WorkerMemory::retain_only(const std::vector<offload::TargetPtr>& keep) {
  const std::unordered_set<offload::TargetPtr> ks(keep.begin(), keep.end());
  std::vector<offload::TargetPtr> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [tp, blk] : live_) {
      (void)blk;
      if (ks.count(tp) == 0) victims.push_back(tp);
    }
  }
  for (const offload::TargetPtr tp : victims) free(tp);
}

std::size_t WorkerMemory::live() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

// --- OriginEvent ---------------------------------------------------------

const Bytes& OriginEvent::wait() {
  // Inbound payload (Retrieve) completes before the completion notification
  // is meaningful; wait for it first. fail() force-completes it, so this
  // cannot block past a failure.
  if (data_request_.valid()) {
    try {
      data_request_.wait();
    } catch (const mpi::RankKilledError& e) {
      throw WorkerDiedError(e.rank());
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  if (failed_rank_ >= 0) throw WorkerDiedError(failed_rank_);
  return result_;
}

bool OriginEvent::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void OriginEvent::complete(Bytes result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) return;  // completion raced a failure; failure already won
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

void OriginEvent::fail(mpi::Rank dead) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) return;  // the completion beat the failure: data is valid
    failed_rank_ = dead;
    done_ = true;
  }
  // Unblock a waiter parked on the inbound payload (Retrieve): the payload
  // will never arrive from a dead worker.
  if (data_request_.valid()) data_request_.state()->kill(dead);
  cv_.notify_all();
}

// --- EventSystem ---------------------------------------------------------

EventSystem::EventSystem(mpi::RankContext& ctx, const ClusterOptions& opts,
                         WorkerMemory* memory, omp::TaskRuntime* exec_pool,
                         ReplicaStore* replica)
    : rank_(ctx.rank()),
      control_(ctx.comm(0)),
      memory_(memory),
      exec_pool_(exec_pool),
      replica_(replica) {
  OMPC_CHECK_MSG(ctx.universe().options().comms >= 1 + opts.vci,
                 "universe must pre-create 1 control + vci data comms");
  data_comms_.reserve(static_cast<std::size_t>(opts.vci));
  for (int i = 0; i < opts.vci; ++i)
    data_comms_.push_back(ctx.comm(1 + i));

  handlers_.reserve(static_cast<std::size_t>(opts.handler_threads));
  for (int i = 0; i < opts.handler_threads; ++i) {
    handlers_.emplace_back([this, i] {
      log::set_thread_label("r" + std::to_string(rank_) + "/eh" +
                            std::to_string(i));
      handler_main();
    });
  }
  // Last: notifications that arrived before this point are handed over
  // now, in arrival order, and every later one runs where it is delivered.
  control_.listen([this](mpi::Envelope&& env) { on_control(std::move(env)); },
                  [this] {
                    // This rank was killed: fail every outstanding origin
                    // event (their completions can never arrive through a
                    // poisoned mailbox) and release the rank's main thread
                    // so the universe can join it.
                    fail_local();
                    stop_local();
                  });
}

EventSystem::~EventSystem() {
  // Normal paths stop via shutdown_cluster() / the Shutdown event; an owner
  // unwinding on an error stops here. unlisten() then waits out any
  // notification still being handled on a delivery thread.
  if (!stopped()) stop_local();
  control_.unlisten();
  for (auto& h : handlers_) h.join();
}

mpi::Comm EventSystem::data_comm_for(mpi::Tag tag, std::size_t stripe) const {
  return data_comms_[(static_cast<std::size_t>(tag) + stripe) %
                     data_comms_.size()];
}

mpi::Tag EventSystem::allocate_tag() {
  const mpi::Tag t = next_tag_.fetch_add(1, std::memory_order_relaxed);
  OMPC_CHECK_MSG(t <= mpi::kMaxUserTag,
                 "event tag space exhausted on rank " << rank_);
  return t;
}

OriginEventPtr EventSystem::start(mpi::Rank dest, EventKind kind, Bytes header,
                                  mpi::Payload payload, mpi::Rank peer) {
  const mpi::Tag tag = allocate_tag();
  auto ev = std::make_shared<OriginEvent>(tag, kind, dest, peer);
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (dead_ranks_.count(dest) != 0) throw WorkerDiedError(dest);
    if (peer >= 0 && dead_ranks_.count(peer) != 0) throw WorkerDiedError(peer);
    // Fail fast on a corpse the heartbeat has not flagged yet — the
    // simulated analogue of MPI erroring on a send to a crashed peer.
    // Without this, an event started in the window between death and ring
    // detection (or after detection was shut down) would block forever.
    if (control_.universe().is_dead(dest)) throw WorkerDiedError(dest);
    if (peer >= 0 && control_.universe().is_dead(peer))
      throw WorkerDiedError(peer);
    // Self check last: a killed rank's sends vanish silently, so an event
    // started from a corpse would block forever. This matters during head
    // failover — the control thread survives kill_rank(head) and must fail
    // fast on the old head's event system rather than hang in wait().
    if (control_.universe().is_dead(rank_)) throw WorkerDiedError(rank_);
    origin_events_.emplace(tag, ev);
  }
  stats_.originated.fetch_add(1, std::memory_order_relaxed);

  // Eager payload first (Submit): it travels on the event's data comm with
  // the event tag; the destination's irecv will match it whenever it lands.
  if (!payload.empty())
    data_comm_for(tag).isend_payload(std::move(payload), dest, tag);

  EventAnnounce a;
  a.kind = kind;
  a.tag = tag;
  a.origin = rank_;
  a.header = std::move(header);
  control_.isend_bytes(a.serialize(), dest, kTagNewEvent);
  return ev;
}

OriginEventPtr EventSystem::start_retrieve(mpi::Rank dest,
                                           offload::TargetPtr src,
                                           void* dst_host, std::size_t size,
                                           EventKind kind) {
  // Self check before posting anything: a poisoned mailbox kills posted
  // receives, and a corpse's notification would vanish anyway.
  if (control_.universe().is_dead(rank_)) throw WorkerDiedError(rank_);
  const mpi::Tag tag = allocate_tag();
  auto ev = std::make_shared<OriginEvent>(tag, kind, dest);
  // Post the landing buffer before the worker can possibly send.
  ev->data_request_ = data_comm_for(tag).irecv(dst_host, size, dest, tag);
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (dead_ranks_.count(dest) != 0 || control_.universe().is_dead(dest)) {
      // Unpost the landing buffer before unwinding, or a stale payload
      // could later land in memory the caller has moved on from.
      control_.cancel(ev->data_request_);
      throw WorkerDiedError(dest);
    }
    origin_events_.emplace(tag, ev);
  }
  stats_.originated.fetch_add(1, std::memory_order_relaxed);

  ArchiveWriter w;
  w.put(RetrieveHeader{src, size});
  EventAnnounce a;
  a.kind = kind;
  a.tag = tag;
  a.origin = rank_;
  a.header = w.take();
  control_.isend_bytes(a.serialize(), dest, kTagNewEvent);
  return ev;
}

Bytes EventSystem::run(mpi::Rank dest, EventKind kind, Bytes header,
                       mpi::Payload payload) {
  return start(dest, kind, std::move(header), std::move(payload))->wait();
}

void EventSystem::fail_local() {
  std::vector<OriginEventPtr> victims;
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    dead_ranks_.insert(rank_);
    victims.reserve(origin_events_.size());
    for (auto& [tag, ev] : origin_events_) {
      (void)tag;
      victims.push_back(std::move(ev));
    }
    origin_events_.clear();
  }
  origin_cv_.notify_all();
  // No cancel here: the poison that killed this rank already killed its
  // posted receives; fail() force-completes any landing-buffer request.
  for (auto& ev : victims) ev->fail(rank_);
}

void EventSystem::fail_rank(mpi::Rank dead) {
  std::vector<OriginEventPtr> victims;
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (!dead_ranks_.insert(dead).second) return;  // already declared
    for (auto it = origin_events_.begin(); it != origin_events_.end();) {
      if (it->second->dest() == dead || it->second->peer() == dead) {
        victims.push_back(std::move(it->second));
        it = origin_events_.erase(it);
      } else {
        ++it;
      }
    }
  }
  origin_cv_.notify_all();
  for (auto& ev : victims) {
    // Unpost a pending Retrieve landing buffer first: an in-flight payload
    // (sent before the death) arriving after recovery restored that host
    // buffer must not overwrite the rolled-back contents.
    control_.cancel(ev->data_request_);
    ev->fail(dead);
  }
}

void EventSystem::announce_rank_dead(mpi::Rank dead) {
  // Raw control sends, like the shutdown self-poke: RankDead carries no
  // completion (tag 0), so no origin event is registered.
  ArchiveWriter w;
  w.put(RankDeadHeader{dead});
  EventAnnounce a;
  a.kind = EventKind::RankDead;
  a.tag = 0;
  a.origin = rank_;
  a.header = w.take();
  const Bytes msg = a.serialize();
  const int n = control_.size();
  for (mpi::Rank r = 0; r < n; ++r) {
    if (r == rank_ || is_rank_dead(r)) continue;
    control_.isend_bytes(Bytes(msg), r, kTagNewEvent);
  }
}

bool EventSystem::is_rank_dead(mpi::Rank r) const {
  std::lock_guard<std::mutex> lock(origin_mutex_);
  return dead_ranks_.count(r) != 0;
}

bool EventSystem::is_rank_gone(mpi::Rank r) const {
  return is_rank_dead(r) || control_.universe().is_dead(r);
}

void EventSystem::quiesce() {
  std::unique_lock<std::mutex> lock(origin_mutex_);
  const bool drained = origin_cv_.wait_for(
      lock, std::chrono::seconds(30), [this] { return origin_events_.empty(); });
  OMPC_CHECK_MSG(drained, "quiesce timed out with "
                              << origin_events_.size()
                              << " origin events outstanding");
}

void EventSystem::shutdown_cluster() {
  // Stop each live worker (acknowledged via the normal completion path),
  // then the local event system.
  std::vector<OriginEventPtr> acks;
  const int n = control_.size();
  for (mpi::Rank w = 0; w < n; ++w) {
    if (w == rank_ || is_rank_dead(w) || control_.universe().is_dead(w))
      continue;
    acks.push_back(start(w, EventKind::Shutdown, {}));
  }
  // Poll rather than block: a rank can die mid-handshake, after every
  // failure detector has already been stopped — its ack will never come,
  // and nobody is left to fail the event. Liveness comes straight from the
  // universe here (an abandoned shutdown ack needs no recovery).
  for (auto& ev : acks) {
    while (!ev->done()) {
      if (control_.universe().is_dead(ev->dest())) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  stop_local();
}

void EventSystem::wait_until_stopped() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_cv_.wait(lock, [this] { return stop_.load(); });
}

void EventSystem::stop_local() {
  stop_.store(true, std::memory_order_release);
  // Release the parked events: nothing will resume them now. A transient
  // receive is unposted so a late payload cannot land in a block the rank
  // frees on its way out; a late put ack finds its hook's queue gone.
  std::vector<RemoteEvent> released;
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    released = queue_->unpark_locked(true);
  }
  queue_->cv.notify_all();
  for (auto& ev : released) control_.cancel(ev.io);
  stats_.released.fetch_add(static_cast<std::int64_t>(released.size()),
                            std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stopped_mutex_);
  }
  stopped_cv_.notify_all();
}

void EventSystem::enqueue_remote(RemoteEvent&& ev) {
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    ev.id = queue_->next_id++;
    queue_->ready.push_back(std::move(ev));
  }
  queue_->cv.notify_one();
}

void EventSystem::EventQueue::resume(std::uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = parked.find(id);
    if (it == parked.end()) return;
    it->second.resumed = true;
    ready.push_back(std::move(it->second));
    parked.erase(it);
  }
  cv.notify_one();
}

std::vector<EventSystem::RemoteEvent> EventSystem::EventQueue::unpark_locked(
    bool all) {
  std::vector<RemoteEvent> out = std::move(idle_waiters);
  idle_waiters.clear();
  if (all) {
    for (auto& [id, ev] : parked) {
      (void)id;
      out.push_back(std::move(ev));
    }
    parked.clear();
  }
  return out;
}

bool EventSystem::EventQueue::wake_idle_locked() {
  std::vector<RemoteEvent> woken = unpark_locked(false);
  for (auto& ev : woken) {
    ev.resumed = true;
    ready.push_back(std::move(ev));
  }
  return !woken.empty();
}

void EventSystem::on_control(mpi::Envelope&& env) {
  const std::span<const std::byte> msg = env.payload.view();
  if (env.tag == kTagNewEvent) {
    EventAnnounce a = EventAnnounce::deserialize(msg);
    if (a.kind == EventKind::Shutdown) {
      // Ack remote shutdowns so the head's wait completes.
      send_completion(a.origin, a.tag, {});
      stop_local();
      return;
    }
    if (a.kind == EventKind::RankDead) {
      ArchiveReader r(a.header);
      const auto h = r.get<RankDeadHeader>();
      // Kept for a later promotion to head. Parked events need no wake:
      // the kill already completed every request that waits on the corpse,
      // and its hook resumed them.
      std::lock_guard<std::mutex> lock(origin_mutex_);
      dead_ranks_.insert(h.rank);
      return;
    }
    // A stopped rank takes no new work (its handlers are draining out).
    if (stopped()) return;
    RemoteEvent ev;
    ev.announce = std::move(a);
    enqueue_remote(std::move(ev));
  } else if (env.tag == kTagComplete) {
    EventCompletion c = EventCompletion::deserialize(msg);
    OriginEventPtr ev;
    {
      std::lock_guard<std::mutex> lock(origin_mutex_);
      auto it = origin_events_.find(c.tag);
      if (it == origin_events_.end()) {
        // A completion can outlive its event: fail_rank() already failed
        // it (a worker still acks an RmaPut whose peer died). Late
        // completions are dropped, not protocol errors.
        OMPC_LOG_WARN("dropping late completion for event tag " << c.tag);
        return;
      }
      ev = std::move(it->second);
      origin_events_.erase(it);
    }
    origin_cv_.notify_all();
    ev->complete(std::move(c.result));
  } else {
    OMPC_CHECK_MSG(false, "unexpected control tag " << env.tag);
  }
}

void EventSystem::handler_main() {
  EventQueue& q = *queue_;
  for (;;) {
    RemoteEvent ev;
    std::uint64_t seen_exits = 0;
    {
      std::unique_lock<std::mutex> lock(q.mutex);
      q.cv.wait(lock, [&] { return stop_.load() || !q.ready.empty(); });
      if (q.ready.empty()) return;  // stop and drained
      ev = std::move(q.ready.front());
      q.ready.pop_front();
      seen_exits = q.exits;
      // Counted active in the same critical section that pops it, so
      // TrimHeap's gate (which reads both under this lock) can never see
      // the event in neither place. Held only while inside progress(), so
      // a parked event does not starve that gate.
      active_events_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (ev.resumed) {
      stats_.resumed.fetch_add(1, std::memory_order_relaxed);
      ev.resumed = false;
    }
    bool finished = true;
    bool died = false;
    try {
      finished = progress(ev);
    } catch (const mpi::RankKilledError&) {
      // This rank died while executing the event; abandon it and keep
      // draining so the queue empties and the handler can exit at stop.
      died = true;
    }
    active_events_.fetch_sub(1, std::memory_order_acq_rel);
    if (finished && !died)
      stats_.handled.fetch_add(1, std::memory_order_relaxed);
    // Pending I/O (step 5b, Fig. 3): park until a wake source fires.
    settle(finished ? nullptr : &ev, seen_exits);
  }
}

void EventSystem::settle(RemoteEvent* pending, std::uint64_t seen_exits) {
  EventQueue& q = *queue_;
  // What the pending event waits on; none means TrimHeap's idle gate.
  const mpi::Request waiting =
      pending != nullptr ? pending->io : mpi::Request{};
  std::optional<RemoteEvent> released;
  const std::uint64_t id = pending != nullptr ? pending->id : 0;
  bool woke = false;
  bool hooked = false;
  {
    std::lock_guard<std::mutex> lock(q.mutex);
    // A TrimHeap wake that fired while the event was inside progress()
    // found nothing parked to move: resume at once instead of parking past
    // it. (An event on a request needs no such check: its hook is
    // registered below, and fires at once if the request is already done.)
    const bool missed = !waiting.valid() && q.exits != seen_exits;
    ++q.exits;
    woke = q.wake_idle_locked();
    if (pending != nullptr) {
      stats_.parked.fetch_add(1, std::memory_order_relaxed);
      if (stop_.load(std::memory_order_acquire)) {
        released.emplace(std::move(*pending));
      } else if (missed) {
        pending->resumed = true;
        q.ready.push_back(std::move(*pending));
        woke = true;
      } else if (waiting.valid()) {
        q.parked.emplace(id, std::move(*pending));
        hooked = true;
      } else {
        q.idle_waiters.push_back(std::move(*pending));
      }
    }
  }
  if (woke) q.cv.notify_all();
  if (released) {
    control_.cancel(released->io);
    stats_.released.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Registered after parking, outside the lock: a request that completed
  // in between fires the hook right here. Re-parking the same event on the
  // same request replaces the hook, and the id never changes, so a hook
  // that loses that race still wakes the right event.
  if (hooked) {
    waiting.on_complete([lot = std::weak_ptr<EventQueue>(queue_), id] {
      if (const auto live = lot.lock()) live->resume(id);
    });
  }
}

void EventSystem::send_completion(mpi::Rank to, mpi::Tag tag, Bytes result) {
  EventCompletion c;
  c.tag = tag;
  c.result = std::move(result);
  control_.isend_bytes(c.serialize(), to, kTagComplete);
}

bool EventSystem::progress(RemoteEvent& ev) {
  const EventAnnounce& a = ev.announce;
  ArchiveReader header(a.header);
  switch (a.kind) {
    case EventKind::Alloc: {
      const auto sizes = decode_list<std::uint64_t>(a.header);
      OMPC_CHECK(memory_ != nullptr);
      std::vector<offload::TargetPtr> blocks;
      blocks.reserve(sizes.size());
      for (const std::uint64_t size : sizes)
        blocks.push_back(memory_->alloc(size));
      send_completion(a.origin, a.tag, encode_list(blocks));
      return true;
    }
    case EventKind::Delete: {
      const auto h = header.get<DeleteHeader>();
      OMPC_CHECK(memory_ != nullptr);
      memory_->free(h.ptr);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Submit: {
      // The payload was sent ahead of the announce on the event's own tag,
      // so the receive always matches (it may already sit unexpected).
      if (ev.phase == 0) {
        const auto h = header.get<SubmitHeader>();
        ev.io = data_comm_for(a.tag).irecv(reinterpret_cast<void*>(h.dst),
                                           h.size, a.origin, a.tag);
        ev.phase = 1;
      }
      if (!ev.io.test()) return false;
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Retrieve:
    case EventKind::SnapshotFetch: {
      const auto h = header.get<RetrieveHeader>();
      OMPC_CHECK(memory_ != nullptr);
      // Zero-copy: the payload shares the device block (pinned even across
      // a later Delete); the head's posted irecv is the only copy.
      data_comm_for(a.tag).isend_payload(memory_->share(h.src, h.size),
                                         a.origin, a.tag);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::SnapshotSave: {
      const auto regions = decode_list<SnapshotRegion>(a.header);
      OMPC_CHECK(memory_ != nullptr);
      // Allocate each shadow (auto-registered as a window) and fill it with
      // a rank-local self-put: the same one-sided path the cross-rank
      // transfers use, delivered inline since src == dst.
      std::vector<offload::TargetPtr> shadows;
      shadows.reserve(regions.size());
      for (const SnapshotRegion& r : regions) {
        const offload::TargetPtr shadow = memory_->alloc(r.size);
        data_comm_for(a.tag)
            .put(rank_, shadow, 0, memory_->share(r.src, r.size),
                 kTagSnapshotPut)
            .wait();
        shadows.push_back(shadow);
      }
      send_completion(a.origin, a.tag, encode_list(shadows));
      return true;
    }
    case EventKind::SnapshotDrop: {
      OMPC_CHECK(memory_ != nullptr);
      for (const offload::TargetPtr ptr :
           decode_list<offload::TargetPtr>(a.header)) {
        // Tolerant: a head promoted from a one-boundary-stale replica may
        // drop shadows this rank released under the old head (orphan
        // sweeps after the generation the replica never saw). Ack the
        // no-op.
        if (!memory_->try_free(ptr))
          OMPC_LOG_DEBUG("snapshot drop of unknown shadow "
                         << ptr << " (stale post-failover state) ignored");
      }
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::RmaPut: {
      const RmaPutHeader h = RmaPutHeader::deserialize(a.header);
      OMPC_CHECK(memory_ != nullptr);
      if (ev.phase == 0) {
        // One put per item, all in flight at once; the event parks on
        // their composite, which completes when every item has landed (or
        // failed), so no handler blocks on remote I/O. Each payload shares
        // our device block (zero-copy source), and the items stripe over
        // the data comms, keeping the VCI parallelism of one event per item.
        std::vector<mpi::Request> all;
        all.reserve(h.items.size());
        for (std::size_t i = 0; i < h.items.size(); ++i) {
          const RmaPutItem& item = h.items[i];
          all.push_back(data_comm_for(a.tag, i).put(
              h.peer, item.win, item.offset,
              memory_->share(item.src, item.size), a.tag));
        }
        ev.io = mpi::when_all(all);
        ev.phase = 1;
      }
      try {
        if (!ev.io.test()) return false;
      } catch (const mpi::RankKilledError& e) {
        // The peer died mid-put (our own death rethrows to handler_main).
        // Ack anyway so this event drains; the head has already failed the
        // origin half, which drops this completion as late.
        if (e.rank() == rank_) throw;
      }
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::HeadState: {
      // Replication update. Like Submit, the payload is posted before the
      // announce, so the irecv always matches — no dead-origin abort needed.
      const auto h = header.get<HeadStateHeader>();
      if (ev.phase == 0) {
        ev.blob = std::make_shared<Bytes>(h.size);
        ev.io = data_comm_for(a.tag).irecv(ev.blob->data(), h.size, a.origin,
                                           a.tag);
        ev.phase = 1;
      }
      if (!ev.io.test()) return false;
      if (replica_ != nullptr) {
        replica_->apply(static_cast<ReplicaStore::Update>(h.reset),
                        h.generation, *ev.blob);
      }
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::TrimHeap: {
      // Heap reconciliation after failover frees blocks in bulk, so it must
      // not run concurrently with an event that may touch one (an Execute
      // dispatched by the dead head and still in flight). Defer until this
      // is the only active event and the queue is drained.
      {
        std::lock_guard<std::mutex> lock(queue_->mutex);
        if (!queue_->ready.empty() ||
            active_events_.load(std::memory_order_acquire) != 1)
          return false;
      }
      const auto h = header.get<TrimHeapHeader>();
      std::vector<offload::TargetPtr> keep;
      keep.reserve(h.keep_count);
      for (std::uint64_t i = 0; i < h.keep_count; ++i)
        keep.push_back(header.get<offload::TargetPtr>());
      OMPC_CHECK(memory_ != nullptr);
      memory_->retain_only(keep);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::MembershipUpdate: {
      // Informational on workers today (the head owns placement); carried
      // as an event so membership changes are acknowledged and ordered
      // with the data plane.
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Execute: {
      ExecuteHeader h = ExecuteHeader::deserialize(a.header);
      std::vector<void*> ptrs;
      ptrs.reserve(h.buffers.size());
      for (offload::TargetPtr p : h.buffers)
        ptrs.push_back(reinterpret_cast<void*>(p));
      offload::KernelContext ctx(ptrs, h.scalars, exec_pool_, rank_);
      offload::KernelRegistry::instance().run(h.kernel, ctx);
      stats_.kernels_run.fetch_add(1, std::memory_order_relaxed);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Shutdown:
    case EventKind::RankDead:
      OMPC_CHECK_MSG(false, to_string(a.kind)
                                << " is handled where it is delivered");
  }
  return true;
}

}  // namespace ompc::core
