// Simulated interconnect: per-message cost model and delayed delivery.
//
// Every message pays `latency + bytes/bandwidth` of wire time, and messages
// sharing a (src, dst, channel) link serialize — the paper's MPICH "Virtual
// Communication Interfaces" map to `channels`: communicator contexts are
// striped across channels, so running the event system over more
// communicators genuinely increases network concurrency, exactly the effect
// §6.1 exploits with 64 VCIs (and bench/ablation_vci measures).
//
// Delivery runs on a dedicated engine thread ordered by a time-priority
// queue. An instant network (zero latency, infinite bandwidth) bypasses the
// engine entirely so unit tests run at memory speed.
//
// The cost model (NetworkModel + LinkPacer) is transport-independent: every
// conduit (conduit.hpp) prices messages through the same pacer, so swapping
// transports never changes the simulated wire.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "minimpi/message.hpp"

namespace ompc::mpi {

/// Cost parameters of the simulated wire.
struct NetworkModel {
  /// Fixed per-message wire latency in nanoseconds.
  std::int64_t latency_ns = 0;
  /// Link bandwidth in bytes/second; <= 0 means infinite.
  double bandwidth_Bps = 0.0;
  /// Number of independent hardware channels per (src,dst) pair (VCIs).
  int channels = 1;

  bool is_instant() const noexcept {
    return latency_ns <= 0 && bandwidth_Bps <= 0.0;
  }

  /// Pure wire time for a message of `bytes` bytes.
  std::int64_t transfer_ns(std::size_t bytes) const noexcept {
    std::int64_t t = latency_ns;
    if (bandwidth_Bps > 0.0)
      t += static_cast<std::int64_t>(static_cast<double>(bytes) /
                                     bandwidth_Bps * 1e9);
    return t;
  }

  /// A model scaled in time by `factor` (used by benches to dilate the wire
  /// consistently with dilated compute).
  NetworkModel dilated(double factor) const {
    NetworkModel m = *this;
    m.latency_ns = static_cast<std::int64_t>(
        static_cast<double>(latency_ns) * factor);
    if (bandwidth_Bps > 0.0) m.bandwidth_Bps = bandwidth_Bps / factor;
    return m;
  }
};

/// Makes the calling thread's timed waits end at their deadline. Linux
/// pads each timer of a thread by that thread's timer slack (50 µs by
/// default), which a pacing thread would add to every simulated wire hop.
/// A per-thread attribute of this process; a no-op off Linux.
void use_exact_timer_slack() noexcept;

/// Computes simulated delivery deadlines: a message occupies its
/// (src, dst, channel) link from max(now, link free) for its full transfer
/// time, which is what makes message storms actually cost time. Shared by
/// every conduit so the cost model is identical across transports.
/// Thread-safe.
class LinkPacer {
 public:
  explicit LinkPacer(NetworkModel model) : model_(model) {}

  /// Delivery deadline for `env` — also marks the link busy until then.
  TimePoint due_for(const Envelope& env) {
    const TimePoint now = Clock::now();
    const auto wire =
        std::chrono::nanoseconds(model_.transfer_ns(env.payload.size()));
    const LinkKey key{env.src, env.dst, env.channel};
    std::lock_guard<std::mutex> lock(mutex_);
    TimePoint& busy_until = link_busy_until_[key];
    const TimePoint start = std::max(now, busy_until);
    const TimePoint due = start + wire;
    busy_until = due;
    return due;
  }

 private:
  struct LinkKey {
    Rank src;
    Rank dst;
    int channel;
    auto operator<=>(const LinkKey&) const = default;
  };

  NetworkModel model_;
  std::mutex mutex_;
  std::map<LinkKey, TimePoint> link_busy_until_;
};

/// Delayed-delivery engine. `deliver` is invoked on the engine thread once a
/// message's simulated wire time has elapsed.
class DeliveryEngine {
 public:
  DeliveryEngine(NetworkModel model,
                 std::function<void(Envelope&&)> deliver);
  ~DeliveryEngine();

  DeliveryEngine(const DeliveryEngine&) = delete;
  DeliveryEngine& operator=(const DeliveryEngine&) = delete;

  /// Computes the delivery deadline for `env` (serializing on its link) and
  /// enqueues it. Thread-safe.
  void submit(Envelope&& env);

  /// Total messages ever submitted (for tests/benchmarks).
  std::int64_t submitted() const noexcept;

 private:
  struct Pending {
    TimePoint due;
    std::int64_t seq;  ///< Tie-break so equal deadlines keep FIFO order.
    Envelope env;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  void engine_main();

  LinkPacer pacer_;
  std::function<void(Envelope&&)> deliver_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<Pending, std::vector<Pending>, Later> queue_;
  std::int64_t next_seq_ = 0;
  std::int64_t submitted_ = 0;
  bool stop_ = false;
  std::thread thread_;  // started last, joined in dtor after stop_ is set
};

}  // namespace ompc::mpi
