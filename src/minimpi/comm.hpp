// Communicator view: the per-rank handle used for all point-to-point and
// collective operations (like an MPI_Comm bound to the calling rank).
//
// All byte-oriented (untyped) like MPI_BYTE traffic; structured payloads go
// through common/serialize.hpp. Fully thread-safe for point-to-point use
// (MPI_THREAD_MULTIPLE); collectives must be called by one thread per rank
// at a time, as in MPI.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/serialize.hpp"
#include "minimpi/message.hpp"
#include "minimpi/payload.hpp"
#include "minimpi/request.hpp"
#include "minimpi/types.hpp"
#include "minimpi/window.hpp"

namespace ompc::mpi {

class Universe;

class Comm {
 public:
  Comm() = default;
  Comm(Universe* universe, ContextId context, Rank rank)
      : universe_(universe), context_(context), rank_(rank) {}

  Rank rank() const noexcept { return rank_; }
  int size() const noexcept;
  ContextId context() const noexcept { return context_; }
  Universe& universe() const noexcept { return *universe_; }

  /// A new communicator over the same ranks with a fresh context
  /// (like MPI_Comm_dup): traffic on it can never match traffic here.
  Comm dup() const;

  // --- point to point ------------------------------------------------
  //
  // isend_payload is THE send primitive: everything that leaves a rank is a
  // Payload (owned, borrowed or shared — see payload.hpp for the lifetime
  // contracts). isend and isend_bytes are thin convenience wrappers over
  // it: isend stages a copy (counted on the data plane), isend_bytes moves
  // freshly serialized bytes onto the wire copy-free.

  void send(const void* buf, std::size_t n, Rank dst, Tag tag) const;
  /// Wrapper: copies [buf, buf+n) into an owned payload. Prefer
  /// isend_bytes/isend_payload when the bytes already live in a movable or
  /// pinnable container — the staging copy here is pure overhead.
  Request isend(const void* buf, std::size_t n, Rank dst, Tag tag) const;
  /// Wrapper: moves the bytes onto the wire — no copy. The natural fit for
  /// serialized control messages (ArchiveWriter::take() results).
  Request isend_bytes(Bytes payload, Rank dst, Tag tag) const;
  /// The primitive: owned, borrowed or shared payloads.
  Request isend_payload(Payload payload, Rank dst, Tag tag) const;

  Status recv(void* buf, std::size_t capacity, Rank src, Tag tag) const;
  Request irecv(void* buf, std::size_t capacity, Rank src, Tag tag) const;

  /// Receives a message of unknown size: probes for its extent, then
  /// receives exactly that message (safe because probe+recv use the exact
  /// source/tag from the probed status).
  Bytes recv_bytes(Rank src, Tag tag, Status* status_out = nullptr) const;

  std::optional<Status> iprobe(Rank src, Tag tag) const;
  Status probe(Rank src, Tag tag) const;

  /// Cancels a posted receive of THIS rank (no-op once matched); see
  /// Mailbox::cancel.
  void cancel(const Request& req) const;

  /// Active-message delivery of this communicator's traffic to THIS rank:
  /// each message runs `on_message` on the thread that delivers it instead
  /// of waiting for a receive; see Mailbox::listen for the contract.
  void listen(std::function<void(Envelope&&)> on_message,
              std::function<void()> on_poison) const;
  /// Ends listen(), waiting out handler calls in flight (Mailbox::unlisten).
  void unlisten() const;

  // --- one-sided (RMA) -------------------------------------------------
  //
  // GASNet-extended-style put/get against pre-registered windows (see
  // window.hpp). No receive is posted at the target and no event handler
  // runs there: the universe's delivery dispatcher moves the bytes. The
  // payload contracts are exactly isend_payload's.

  /// Registers [base, base+size) of THIS rank under `id` for remote
  /// put/get. Returns the RAII registration handle. Throws WindowError on
  /// duplicate ids or overlap with an existing window of this rank.
  Window win_create(WindowId id, void* base, std::size_t size) const;

  /// Writes `payload` into `target`'s window at `offset`. The request
  /// completes when the bytes have landed (target ack); it throws
  /// RankKilledError from wait() if either end dies first. `tag` only
  /// feeds the data-plane copy accounting: the default marks the transfer
  /// as wire data, node-local self-puts may pass a control tag (< 16).
  Request put(Rank target, WindowId window, std::uint64_t offset,
              Payload payload, Tag tag = kRmaDataTag) const;

  /// Reads `n` bytes from `target`'s window at `offset` into `dst`. The
  /// request completes once the reply landed; Status.count carries the
  /// bytes the target actually exposed (short when the window vanished).
  Request get(Rank target, WindowId window, std::uint64_t offset, void* dst,
              std::size_t n, Tag tag = kRmaDataTag) const;

  /// Waits for every pending put/get this rank has toward `target`
  /// (kAnySource: toward anyone) — like MPI_Win_flush.
  void flush(Rank target = kAnySource) const;

  // --- collectives (reserved tag space; one at a time per comm) -------

  void barrier() const;
  void bcast(void* buf, std::size_t n, Rank root) const;
  /// Gathers per-rank blobs at `root`; result[r] is rank r's blob (empty
  /// vector on non-root ranks).
  std::vector<Bytes> gather_bytes(std::span<const std::byte> mine,
                                  Rank root) const;
  std::uint64_t allreduce_sum(std::uint64_t value) const;

 private:
  Universe* universe_ = nullptr;
  ContextId context_ = 0;
  Rank rank_ = 0;
};

}  // namespace ompc::mpi
