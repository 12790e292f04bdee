// Charm++-like Task Bench runner.
//
// Captures the architectural signature of Charm++ that the paper contrasts
// with OMPC (§5: "Chares and over-decomposition ... computation is bounded
// to the data itself"; §6.2: its performance collapses when communication
// dominates):
//  - over-decomposition: one chare per Task Bench column, block-mapped to
//    ranks (the chare array holds `width` chares on `nodes` ranks);
//  - message-driven execution: a chare fires its step t once a message has
//    arrived from every t-1 dependence; each dependence edge between
//    distinct chares is ONE wire message — no halo batching, which is
//    exactly why low CCR hurts (many payload-sized messages per step);
//  - a chare's own previous output is chare state (no message), and
//    messages between co-located chares use the local queue (our self-send
//    path bypasses the simulated NIC, as in Charm++);
//  - no head node: every rank schedules its own chares.
#include <map>
#include <vector>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "common/time.hpp"
#include "minimpi/mpi.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc::taskbench {

namespace {

constexpr mpi::Tag kChareTag = 11;

/// Charm++ parameter-marshalled entry methods copy the payload on the
/// sending PE (pack) and again on delivery through the scheduler queue
/// (unpack), and both copies serialize with that PE's compute. MPI writes
/// into posted receive buffers instead. On the dilated time base every
/// time quantity scales together, so the marshalling copies are modelled
/// at twice the wire bandwidth (a memory copy is faster than the NIC, but
/// not free); this is the architectural term behind Charm++'s collapse
/// when communication dominates (paper §6.2, Fig. 6 at CCR 0.5). See
/// the substitution table in README's "Simulation design".
///
/// Rate calibration: on the paper's EDR InfiniBand (~12.5 GB/s) a single
/// core's memcpy bandwidth (~10 GB/s) is roughly the wire rate, so each
/// marshalling copy costs about one wire-time of PE time.
constexpr double kMarshalRateVsWire = 1.0;

void marshal_cost(std::size_t bytes, const mpi::NetworkModel& net) {
  if (net.bandwidth_Bps <= 0.0) return;  // instant network: tests
  precise_sleep_ns(static_cast<std::int64_t>(
      static_cast<double>(bytes) /
      (net.bandwidth_Bps * kMarshalRateVsWire) * 1e9));
}

struct BlockMap {
  int width;
  int ranks;
  int block;
  BlockMap(int w, int r) : width(w), ranks(r), block((w + r - 1) / r) {}
  int owner(int col) const { return col / block; }
  int lo(int rank) const { return std::min(rank * block, width); }
  int hi(int rank) const { return std::min((rank + 1) * block, width); }
};

struct ChareMessage {
  int dest_col = 0;
  int src_col = 0;
  int t_prod = 0;  ///< producing step; consumed by dest at t_prod + 1
};

}  // namespace

RunResult run_charmlike(const TaskBenchSpec& spec, int nodes,
                        const mpi::NetworkModel& net) {
  OMPC_CHECK(nodes >= 1);
  const std::size_t out_bytes = std::max<std::size_t>(16, spec.output_bytes);

  double wall_s = 0.0;
  std::uint64_t checksum = 0;

  mpi::UniverseOptions uopts;
  uopts.ranks = nodes;
  uopts.network = net;
  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    const mpi::Comm comm = ctx.world();
    const int me = comm.rank();
    const BlockMap blocks(spec.width, nodes);
    const int lo = blocks.lo(me);
    const int hi = blocks.hi(me);
    const int owned = hi - lo;

    // Chare state: the step each chare will fire next and the digest of
    // its most recent output (its own history is chare state, not a
    // message).
    std::vector<int> next_step(static_cast<std::size_t>(std::max(owned, 1)), 0);
    std::vector<std::uint64_t> own_digest(
        static_cast<std::size_t>(std::max(owned, 1)), 0);
    // Mailbox per (chare, step): digests from other chares.
    std::map<std::pair<int, int>, std::map<int, std::uint64_t>> pending;

    int completed = 0;
    const int total = spec.steps * owned;

    Bytes scratch(out_bytes);

    // Fires chare `c` for as many consecutive steps as its inputs allow.
    auto try_fire = [&](int c) {
      const std::size_t ci = static_cast<std::size_t>(c - lo);
      for (;;) {
        const int t = next_step[ci];
        if (t >= spec.steps) return;
        const auto deps = dependencies(spec, t, c);
        auto it = pending.find({c, t});
        // All non-self dependencies must have arrived.
        bool ok = true;
        for (int j : deps) {
          if (j == c) continue;
          if (it == pending.end() || !it->second.contains(j)) {
            ok = false;
            break;
          }
        }
        if (!ok) return;

        std::vector<std::uint64_t> ins;
        ins.reserve(deps.size());
        for (int j : deps)
          ins.push_back(j == c ? own_digest[ci] : it->second.at(j));
        point_compute(spec, t, c, ins, scratch);
        own_digest[ci] = read_digest(scratch);
        next_step[ci] = t + 1;
        ++completed;
        if (it != pending.end()) pending.erase(it);

        // One message per consumer edge (over-decomposition: no batching),
        // each paying the pack copy on this PE.
        if (t + 1 < spec.steps) {
          for (int cc : consumers(spec, t, c)) {
            if (cc == c) continue;  // own history is chare state
            marshal_cost(scratch.size(), net);
            ArchiveWriter w;
            w.put(ChareMessage{cc, c, t});
            w.put_raw(scratch.data(), scratch.size());
            comm.isend_bytes(w.take(), blocks.owner(cc), kChareTag);
          }
        }
      }
    };

    comm.barrier();
    const Stopwatch timer;

    // Seed: every chare can fire step 0 (and trivial chains run through).
    for (int c = lo; c < hi; ++c) try_fire(c);

    // Message-driven scheduler loop: each delivery pays the unpack copy on
    // this PE before its entry method can run.
    while (completed < total) {
      const Bytes msg = comm.recv_bytes(mpi::kAnySource, kChareTag);
      ArchiveReader r(msg);
      const auto hdr = r.get<ChareMessage>();
      Bytes payload(r.remaining());
      r.get_raw(payload.data(), payload.size());
      marshal_cost(payload.size(), net);
      OMPC_CHECK(blocks.owner(hdr.dest_col) == me);
      pending[{hdr.dest_col, hdr.t_prod + 1}][hdr.src_col] =
          read_digest(payload);
      try_fire(hdr.dest_col);
    }

    comm.barrier();
    if (me == 0) wall_s = timer.elapsed_s();

    std::uint64_t partial = 0;
    for (int c = lo; c < hi; ++c)
      partial += own_digest[static_cast<std::size_t>(c - lo)] *
                 0x9e3779b97f4a7c15ull;
    const std::uint64_t total_sum = comm.allreduce_sum(partial);
    if (me == 0) checksum = total_sum;
  });

  return RunResult{wall_s, checksum, universe.messages_sent(), {}};
}

}  // namespace ompc::taskbench
