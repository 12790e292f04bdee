// Head failover and elastic membership (§5 extension).
//
// The paper's fault-tolerance design (and PR 1/5 here) survives any worker
// death but keeps the head as a single point of failure. This module turns
// recovery into membership management:
//
//  - ReplicaStore: a worker-side mailbox for the head's replicated
//    recording state (wave-log deltas + ownership/checkpoint metadata),
//    filled by HeadState events at wave boundaries. Blobs are stored
//    verbatim — deserialization cost is paid only on promotion.
//  - MembershipAgent: one per worker rank. Owns the heartbeat ring,
//    routes failure reports to the *current* head (re-sending them after a
//    handoff so reports aimed at a corpse are not lost), detects head
//    death, and runs the ring election: every replica holder broadcasts
//    its generation, and the freshest one promotes itself (generations are
//    unique — exactly one rank holds the latest update — so the maximum
//    cannot tie; rank order is a defensive tie-break only).
//  - MembershipBus: the process-level rendezvous between the election
//    (worker threads) and the surviving control thread, which adopts the
//    winner's event system and resumes from the replica. In a real MPI
//    cluster this would be the connection re-establishment layer; in the
//    simulated universe it is a registry + condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/heartbeat.hpp"
#include "minimpi/mpi.hpp"

namespace ompc::core {

class EventSystem;

/// Heartbeat-communicator tags of the election protocol (kFailureReportTag
/// = 8 lives in heartbeat.hpp). All messages are two u64 words.
inline constexpr mpi::Tag kElectionTag = 9;    ///< candidacy {rank, generation}
inline constexpr mpi::Tag kHeadHandoffTag = 10;  ///< result {new head, generation}

/// Worker-side store of the head's replicated recording state. apply() is
/// called from the event-handler thread; snapshot() from the control thread
/// at promotion time.
class ReplicaStore {
 public:
  /// How an update changes the accumulated wave list (mirrors the head's
  /// wave_log_ lifecycle; see HeadStateHeader::reset).
  enum class Update : std::uint8_t {
    Append = 0,  ///< append the update's waves
    Reset = 1,   ///< checkpoint retaken: current waves become the previous
                 ///< generation, then append
    Full = 2,    ///< resync (shadow changed): replace both wave lists
  };

  struct Snapshot {
    std::uint64_t generation = 0;
    Bytes metadata;                ///< serialized DM/checkpoint/stats state
    std::vector<Bytes> prev_waves; ///< serialized graphs, previous period
    std::vector<Bytes> waves;      ///< serialized graphs since last capture
  };

  /// Ingests one HeadState payload (see Runtime::replicate_head_state for
  /// the wire layout). Thread-safe.
  void apply(Update kind, std::uint64_t generation, const Bytes& payload);

  Snapshot snapshot() const;
  std::uint64_t generation() const;

 private:
  mutable std::mutex mutex_;
  Snapshot state_;
};

/// Process-level coordination between the per-rank election agents and the
/// surviving control thread during a head failover.
class MembershipBus {
 public:
  struct Node {
    EventSystem* events = nullptr;
    ReplicaStore* replica = nullptr;
  };

  void register_node(mpi::Rank r, EventSystem* events, ReplicaStore* replica);
  Node node(mpi::Rank r) const;

  /// Called by the election winner's agent. Bumps the epoch and wakes
  /// await_new_head().
  void announce_new_head(mpi::Rank r);
  std::uint64_t epoch() const;
  mpi::Rank current_head() const;

  /// Blocks until a head newer than `seen_epoch` is announced; nullopt on
  /// timeout (no surviving replica holder — failover impossible).
  std::optional<mpi::Rank> await_new_head(std::uint64_t seen_epoch,
                                          std::int64_t timeout_ms);

  /// Post-failover failure routing: the promoted rank's agent feeds
  /// detector reports here; the control thread installs a handler once it
  /// has adopted the new head. Reports arriving before that are buffered.
  void set_failure_handler(std::function<void(mpi::Rank)> fn);
  void report_failure(mpi::Rank dead);

  /// Teardown latch: the promoted rank's main thread must not destroy its
  /// event system while the control thread still drives it. The control
  /// thread releases when completely done (all paths, error unwinds
  /// included); a promoted worker waits before unwinding.
  void release_control();
  void await_control_release();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<mpi::Rank, Node> nodes_;
  mpi::Rank head_ = 0;
  std::uint64_t epoch_ = 0;
  std::function<void(mpi::Rank)> failure_handler_;
  std::vector<mpi::Rank> buffered_failures_;
  bool control_released_ = false;
};

/// Per-worker membership agent: heartbeat ring + failure-report routing +
/// head-death election. Replaces the bare ring workers ran before.
class MembershipAgent {
 public:
  struct Options {
    HeartbeatRing::Options hb;
    mpi::Rank initial_head = 0;
    /// Candidacy collection window; 0 = auto (max(2 periods, 10 ms)).
    std::int64_t election_window_ms = 0;
  };

  /// `comm` must be the dedicated heartbeat communicator. `bus` and
  /// `replica` must outlive the agent.
  MembershipAgent(mpi::Comm comm, Options opts, MembershipBus* bus,
                  ReplicaStore* replica);
  ~MembershipAgent();

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  void stop();

  /// The head this agent currently reports failures to.
  mpi::Rank current_head() const {
    return current_head_.load(std::memory_order_acquire);
  }

  HeartbeatRing& ring() { return *ring_; }

 private:
  /// Thread body: agent_loop() until stop, or until this rank is killed.
  void agent_main();
  void agent_loop();
  void drain();
  void on_ring_failure(mpi::Rank dead);
  void begin_election();
  void finish_election();
  void send_word2(mpi::Rank to, mpi::Tag tag, std::uint64_t a, std::uint64_t b);
  void report_to_head(mpi::Rank dead);

  mpi::Comm comm_;
  Options opts_;
  MembershipBus* bus_;
  ReplicaStore* replica_;

  std::atomic<mpi::Rank> current_head_;
  std::atomic<bool> head_suspect_{false};  ///< ring flagged the head dead
  std::atomic<bool> stop_{false};

  // Agent-thread state (no locking needed beyond known_dead_).
  bool electing_ = false;
  std::int64_t window_end_ns_ = 0;
  std::map<mpi::Rank, std::uint64_t> candidacies_;

  std::mutex dead_mutex_;
  std::set<mpi::Rank> known_dead_;  ///< locally detected, re-sent on handoff

  std::unique_ptr<HeartbeatRing> ring_;
  std::thread thread_;
};

}  // namespace ompc::core
