#include "core/membership.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "common/serialize.hpp"

namespace ompc::core {

// --- ReplicaStore --------------------------------------------------------

void ReplicaStore::apply(Update kind, std::uint64_t generation,
                         const Bytes& payload) {
  ArchiveReader r(std::span<const std::byte>(payload.data(), payload.size()));
  Bytes metadata = r.get_blob();
  std::vector<Bytes> prev;
  if (kind == Update::Full) {
    const auto np = r.get<std::uint64_t>();
    prev.reserve(np);
    for (std::uint64_t i = 0; i < np; ++i) prev.push_back(r.get_blob());
  }
  const auto nw = r.get<std::uint64_t>();
  std::vector<Bytes> waves;
  waves.reserve(nw);
  for (std::uint64_t i = 0; i < nw; ++i) waves.push_back(r.get_blob());

  std::lock_guard<std::mutex> lock(mutex_);
  switch (kind) {
    case Update::Append:
      break;
    case Update::Reset:
      state_.prev_waves = std::move(state_.waves);
      state_.waves.clear();
      break;
    case Update::Full:
      state_.prev_waves = std::move(prev);
      state_.waves.clear();
      break;
  }
  for (Bytes& w : waves) state_.waves.push_back(std::move(w));
  state_.metadata = std::move(metadata);
  state_.generation = generation;
}

ReplicaStore::Snapshot ReplicaStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::uint64_t ReplicaStore::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.generation;
}

// --- MembershipBus -------------------------------------------------------

void MembershipBus::register_node(mpi::Rank r, EventSystem* events,
                                  ReplicaStore* replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_[r] = Node{events, replica};
}

MembershipBus::Node MembershipBus::node(mpi::Rank r) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = nodes_.find(r);
  OMPC_CHECK_MSG(it != nodes_.end(), "no membership node for rank " << r);
  return it->second;
}

void MembershipBus::announce_new_head(mpi::Rank r) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    head_ = r;
    ++epoch_;
  }
  cv_.notify_all();
}

std::uint64_t MembershipBus::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

mpi::Rank MembershipBus::current_head() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

std::optional<mpi::Rank> MembershipBus::await_new_head(
    std::uint64_t seen_epoch, std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool ok =
      cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                   [this, seen_epoch] { return epoch_ > seen_epoch; });
  if (!ok) return std::nullopt;
  return head_;
}

void MembershipBus::set_failure_handler(std::function<void(mpi::Rank)> fn) {
  std::vector<mpi::Rank> backlog;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failure_handler_ = std::move(fn);
    backlog.swap(buffered_failures_);
  }
  // Reports that raced the adoption are replayed into the new handler.
  for (const mpi::Rank d : backlog) report_failure(d);
}

void MembershipBus::report_failure(mpi::Rank dead) {
  std::function<void(mpi::Rank)> fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failure_handler_) {
      buffered_failures_.push_back(dead);
      return;
    }
    fn = failure_handler_;
  }
  fn(dead);
}

void MembershipBus::release_control() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    control_released_ = true;
  }
  cv_.notify_all();
}

void MembershipBus::await_control_release() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return control_released_; });
}

// --- MembershipAgent -----------------------------------------------------

MembershipAgent::MembershipAgent(mpi::Comm comm, Options opts,
                                 MembershipBus* bus, ReplicaStore* replica)
    : comm_(comm),
      opts_(opts),
      bus_(bus),
      replica_(replica),
      current_head_(opts.initial_head) {
  if (opts_.election_window_ms <= 0)
    opts_.election_window_ms = std::max<std::int64_t>(2 * opts_.hb.period_ms, 10);
  ring_ = std::make_unique<HeartbeatRing>(
      comm_, opts_.hb, [this](mpi::Rank dead) { on_ring_failure(dead); });
  thread_ = std::thread([this] {
    log::set_thread_label("ma" + std::to_string(comm_.rank()));
    agent_main();
  });
}

MembershipAgent::~MembershipAgent() { stop(); }

void MembershipAgent::stop() {
  bool expected = false;
  if (stop_.compare_exchange_strong(expected, true)) {
    if (ring_) ring_->stop();
    thread_.join();
  }
}

void MembershipAgent::send_word2(mpi::Rank to, mpi::Tag tag, std::uint64_t a,
                                 std::uint64_t b) {
  const std::uint64_t msg[2] = {a, b};
  comm_.send(msg, sizeof msg, to, tag);
}

void MembershipAgent::report_to_head(mpi::Rank dead) {
  const mpi::Rank head = current_head_.load(std::memory_order_acquire);
  if (head == comm_.rank()) {
    bus_->report_failure(dead);
    return;
  }
  const std::uint64_t r = static_cast<std::uint64_t>(dead);
  comm_.send(&r, sizeof r, head, kFailureReportTag);
}

void MembershipAgent::on_ring_failure(mpi::Rank dead) {
  // Runs on the heartbeat thread. The agent loop acts on the flags.
  if (dead == current_head_.load(std::memory_order_acquire)) {
    head_suspect_.store(true, std::memory_order_release);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    known_dead_.insert(dead);
  }
  report_to_head(dead);
}

void MembershipAgent::drain() {
  // Handoff result: adopt the new head and re-send every failure this rank
  // detected — reports aimed at the dead head vanished from the wire.
  while (const auto st = comm_.iprobe(mpi::kAnySource, kHeadHandoffTag)) {
    std::uint64_t msg[2] = {0, 0};
    comm_.recv(msg, sizeof msg, st->source, kHeadHandoffTag);
    const auto new_head = static_cast<mpi::Rank>(msg[0]);
    current_head_.store(new_head, std::memory_order_release);
    head_suspect_.store(false, std::memory_order_release);
    electing_ = false;
    candidacies_.clear();
    std::vector<mpi::Rank> dead;
    {
      std::lock_guard<std::mutex> lock(dead_mutex_);
      dead.assign(known_dead_.begin(), known_dead_.end());
    }
    for (const mpi::Rank d : dead)
      if (d != new_head) report_to_head(d);
  }
  // Candidacies: another rank noticing head death first also starts our
  // election clock.
  while (const auto st = comm_.iprobe(mpi::kAnySource, kElectionTag)) {
    std::uint64_t msg[2] = {0, 0};
    comm_.recv(msg, sizeof msg, st->source, kElectionTag);
    if (!electing_) begin_election();
    candidacies_[static_cast<mpi::Rank>(msg[0])] = msg[1];
  }
  // Failure reports land here when this rank is the acting head.
  while (const auto st = comm_.iprobe(mpi::kAnySource, kFailureReportTag)) {
    std::uint64_t dead = 0;
    comm_.recv(&dead, sizeof dead, st->source, kFailureReportTag);
    {
      std::lock_guard<std::mutex> lock(dead_mutex_);
      known_dead_.insert(static_cast<mpi::Rank>(dead));
    }
    if (current_head_.load(std::memory_order_acquire) == comm_.rank())
      bus_->report_failure(static_cast<mpi::Rank>(dead));
  }
}

void MembershipAgent::begin_election() {
  electing_ = true;
  window_end_ns_ = now_ns() + opts_.election_window_ms * 1'000'000;
  const std::uint64_t gen = replica_->generation();
  if (gen == 0) return;  // nothing to offer: listen only
  candidacies_[comm_.rank()] = gen;
  const int n = comm_.size();
  for (mpi::Rank r = 0; r < n; ++r) {
    if (r == comm_.rank()) continue;
    send_word2(r, kElectionTag, static_cast<std::uint64_t>(comm_.rank()), gen);
  }
}

void MembershipAgent::finish_election() {
  // Dead candidates (a double failure mid-election) are struck before the
  // vote is counted, so the election converges on a live winner.
  for (auto it = candidacies_.begin(); it != candidacies_.end();) {
    if (comm_.universe().is_dead(it->first)) {
      it = candidacies_.erase(it);
    } else {
      ++it;
    }
  }
  if (candidacies_.empty()) {
    // No live replica holder has spoken (yet): keep listening. The control
    // thread's await_new_head() timeout bounds this, not the agent.
    window_end_ns_ = now_ns() + opts_.election_window_ms * 1'000'000;
    return;
  }
  mpi::Rank winner = -1;
  std::uint64_t best = 0;
  for (const auto& [r, gen] : candidacies_) {
    // Strictly-greater: on the (impossible-by-construction) tie the lowest
    // rank wins, since the map iterates in rank order.
    if (gen > best) {
      best = gen;
      winner = r;
    }
  }
  if (winner != comm_.rank()) {
    // Wait for the winner's handoff; if it died meanwhile its candidacy is
    // struck next round and the election re-runs.
    window_end_ns_ = now_ns() + opts_.election_window_ms * 1'000'000;
    return;
  }
  OMPC_LOG_WARN("election: rank " << comm_.rank() << " promotes itself head"
                                  << " (replica generation " << best << ")");
  const int n = comm_.size();
  for (mpi::Rank r = 0; r < n; ++r) {
    if (r == comm_.rank()) continue;
    send_word2(r, kHeadHandoffTag, static_cast<std::uint64_t>(comm_.rank()),
               best);
  }
  current_head_.store(comm_.rank(), std::memory_order_release);
  head_suspect_.store(false, std::memory_order_release);
  electing_ = false;
  candidacies_.clear();
  bus_->announce_new_head(comm_.rank());
  // Corpses this rank knew about before promotion now report to itself.
  std::vector<mpi::Rank> dead;
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    dead.assign(known_dead_.begin(), known_dead_.end());
  }
  for (const mpi::Rank d : dead) bus_->report_failure(d);
}

void MembershipAgent::agent_main() {
  try {
    agent_loop();
  } catch (const mpi::RankKilledError&) {
    // This rank was killed under the agent (a receive in drain() found the
    // mailbox poisoned). The agent dies with the rank, as the heartbeat
    // ring does: the survivors' election and detectors take it from here.
  }
}

void MembershipAgent::agent_loop() {
  const std::int64_t poll_ns =
      std::max<std::int64_t>(1, opts_.hb.period_ms / 2) * 1'000'000;
  while (!stop_.load(std::memory_order_acquire)) {
    drain();
    const mpi::Rank head = current_head_.load(std::memory_order_acquire);
    if (!electing_ && head != comm_.rank()) {
      // Two detectors: the ring (predecessor link) and — standing in for a
      // real transport's connection-loss notification — a liveness poll of
      // the current head, which catches head death when this rank is not
      // the head's ring successor.
      if (head_suspect_.load(std::memory_order_acquire) ||
          comm_.universe().is_dead(head)) {
        begin_election();
      }
    }
    if (electing_ && now_ns() >= window_end_ns_) finish_election();
    if (current_head_.load(std::memory_order_acquire) == comm_.rank()) {
      // Acting head: once the ring has a hole, cascade failures (a corpse
      // whose ring successor is also dead) have no reporter left — fall
      // back to universe liveness, mirroring the launch-time monitor.
      bool any_dead;
      {
        std::lock_guard<std::mutex> lock(dead_mutex_);
        any_dead = !known_dead_.empty();
      }
      if (any_dead) {
        const int n = comm_.size();
        for (mpi::Rank r = 1; r < n; ++r) {
          if (r == comm_.rank() || !comm_.universe().is_dead(r)) continue;
          bool fresh;
          {
            std::lock_guard<std::mutex> lock(dead_mutex_);
            fresh = known_dead_.insert(r).second;
          }
          if (fresh) bus_->report_failure(r);
        }
      }
    }
    precise_sleep_ns(poll_ns);
  }
}

}  // namespace ompc::core
