// Wire protocol of the OMPC event system (§4.2).
//
// Three message classes flow between ranks:
//   1. new-event notifications   (control comm, tag kTagNewEvent)
//   2. event data messages       (data comm chosen by tag, tag = event tag)
//   3. completion notifications  (control comm, tag kTagComplete)
// Every event owns a unique origin-allocated tag; all its data messages use
// that tag, so matching can never cross-talk between events (the paper's
// "exclusive channel" invariant).
//
// Alloc, SnapshotSave, SnapshotDrop and RmaPut carry *lists*: one event
// does the work of any number of items, so a checkpoint capture costs one
// event per rank per phase rather than one per buffer. A Data Manager
// alloc or forward is a list of one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "offload/plugin.hpp"

namespace ompc::core {

/// Actions a destination rank can perform — one-to-one with the plugin API
/// (paper §4.2: "a one-to-one match to all the required functions that a
/// device plugin must implement").
enum class EventKind : std::uint8_t {
  Alloc = 1,     ///< allocate device memory; replies with the addresses
  Delete,        ///< free device memory
  Submit,        ///< receive buffer data from the origin (host -> worker)
  Retrieve,      ///< send buffer data to the origin (worker -> host)
  Execute,       ///< run a registered kernel on local device memory
  Shutdown,      ///< stop the event system (sent once by the head)
  RankDead,      ///< head -> workers: a rank died; abort events touching it

  // Worker-local checkpoint data plane (§5, CheckpointLocality): the head
  // commands snapshots by metadata; the bytes never touch its NIC.
  SnapshotSave,   ///< copy device regions into local shadows; replies
                  ///< with the shadows' addresses
  SnapshotDrop,   ///< free shadows (stale generation / post-restore)
  SnapshotFetch,  ///< send shadow bytes to the origin (restore path) —
                  ///< wire-identical to Retrieve, distinct for accounting

  /// One-sided forward (§4.3 worker->worker): the destination rank puts
  /// local regions straight into pre-registered windows of `peer`
  /// (Comm::put) — one event, no receive posted at the peer, the bytes
  /// land via the window registry.
  RmaPut,

  // Head failover / elastic membership (§5 extension).

  /// Head -> shadow rank: an incremental update of the head's recording
  /// state (wave log delta + ownership/checkpoint metadata). The payload
  /// blob is stored verbatim in the shadow's ReplicaStore; it is only
  /// deserialized if that rank is later promoted.
  HeadState,

  /// New head -> worker (post-election): free every device block except the
  /// listed keep-set (the checkpoint shadows the replicated metadata still
  /// references). Reconciles worker heaps the old head was mid-way through
  /// mutating — the dead head's bookkeeping for them is unrecoverable.
  TrimHeap,

  /// New head -> workers: the authoritative live-worker set changed (a
  /// runtime join/leave, or post-failover re-ranking). Informational on the
  /// destination today (the head owns all placement decisions); carried as
  /// an event so membership changes are acknowledged and ordered with the
  /// data plane.
  MembershipUpdate,
};

const char* to_string(EventKind k);

/// The runtime's tag map, centralized: every control tag the event system
/// uses lives in this one enum, so a new protocol message cannot silently
/// collide with an existing one (the static_asserts below pin the layout).
enum ControlTag : mpi::Tag {
  kTagNewEvent = 1,  ///< new-event notifications (control comm)
  kTagComplete = 2,  ///< completion notifications (control comm)

  /// Tag for the rank-local self-put that fills a snapshot shadow. A
  /// control tag (below the data-tag boundary) on purpose: the bytes never
  /// leave the rank, so the write must stay out of the wire-copy
  /// accounting exactly like the memcpy it replaced.
  kTagSnapshotPut = 3,
};

/// First tag usable by events (small tags are control tags). Anchored to
/// the minimpi data-tag boundary so payload-copy accounting sees every
/// event data message and none of the control traffic.
inline constexpr mpi::Tag kFirstEventTag = mpi::kFirstDataTag;

// Layout invariants of the tag map. Control tags are pairwise distinct and
// below the data boundary; event tags (EventSystem::allocate_tag) start at
// the boundary.
static_assert(kTagNewEvent != kTagComplete &&
              kTagComplete != kTagSnapshotPut &&
              kTagNewEvent != kTagSnapshotPut);
static_assert(kTagNewEvent > 0 && kTagSnapshotPut < mpi::kFirstDataTag,
              "control tags must stay below the data-tag boundary");
static_assert(kFirstEventTag >= mpi::kFirstDataTag,
              "event data tags must be visible to copy accounting");

// --- event headers (serialized into the new-event notification) ---------

/// Serializes a list header (Alloc, SnapshotSave, SnapshotDrop) or a list
/// reply (Alloc and SnapshotSave addresses): the item count, then the items.
template <typename Item>
Bytes encode_list(const std::vector<Item>& items) {
  ArchiveWriter w;
  w.put_vector(items);
  return w.take();
}

/// Reads a list header back. A count larger than the bytes that follow, or
/// bytes left over after the items, raise CheckError.
template <typename Item>
std::vector<Item> decode_list(std::span<const std::byte> data) {
  ArchiveReader r(data);
  std::vector<Item> items = r.get_vector<Item>();
  OMPC_CHECK_MSG(r.exhausted(), "list header has " << r.remaining()
                                                   << " trailing bytes");
  return items;
}

// Alloc is a list of block sizes (std::uint64_t); its reply lists the new
// blocks' addresses (offload::TargetPtr), in order.

struct DeleteHeader {
  offload::TargetPtr ptr = 0;
};

struct SubmitHeader {
  offload::TargetPtr dst = 0;
  std::uint64_t size = 0;
};

struct RetrieveHeader {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
};

/// One SnapshotSave item: the destination copies `size` bytes starting at
/// the device address `src` into a freshly allocated local shadow block.
/// The reply lists the shadows' addresses, in item order. Purely
/// rank-local — the one event whose data volume is invisible to the
/// network. SnapshotDrop is a list of shadow addresses (TargetPtr) to free.
struct SnapshotRegion {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
};

/// Broadcast by the head after the failure detector declares a rank dead so
/// every worker knows the dead set (a worker promoted to head needs it).
struct RankDeadHeader {
  mpi::Rank rank = -1;
};

/// One RmaPut item: the destination rank writes [src, src+size) of its
/// device heap into window `win` of the header's peer at `offset`. `win`
/// is the peer's destination block address (the worker heap registers
/// every block under its own address — see WorkerMemory).
struct RmaPutItem {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
  offload::TargetPtr win = 0;   ///< peer's window id (= block address)
  std::uint64_t offset = 0;     ///< byte offset inside the window
};

/// RmaPut: every item is put into `peer` with one one-sided put each; the
/// event completes when all of them have landed. One peer per event, so
/// the origin's failure tracking (OriginEvent::peer) covers every item.
struct RmaPutHeader {
  mpi::Rank peer = 0;  ///< target rank of every put
  std::vector<RmaPutItem> items;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(peer);
    w.put_vector(items);
    return w.take();
  }
  static RmaPutHeader deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    RmaPutHeader h;
    h.peer = r.get<mpi::Rank>();
    h.items = r.get_vector<RmaPutItem>();
    OMPC_CHECK_MSG(r.exhausted(), "RmaPut header has " << r.remaining()
                                                       << " trailing bytes");
    return h;
  }
};

/// HeadState: `size` bytes of serialized head state follow as the event
/// payload. `reset` marks a boundary where the checkpoint was retaken: the
/// shadow moves its accumulated waves to the previous-generation slot and
/// starts fresh (mirroring wave_log_.clear() on the head).
struct HeadStateHeader {
  std::uint64_t size = 0;
  std::uint64_t generation = 0;
  std::uint8_t reset = 0;
};

/// TrimHeap: keep-set of device block addresses follows in the header blob
/// (serialized vector). Everything else on the destination's heap is freed.
/// The handler defers until it is the only active event on the rank so no
/// in-flight Submit/Execute touches a block being freed.
struct TrimHeapHeader {
  std::uint64_t keep_count = 0;  ///< vector<TargetPtr> follows
};

/// MembershipUpdate: the new live-worker table, positional (proc index ->
/// rank), plus the current head rank.
struct MembershipUpdateHeader {
  mpi::Rank head = 0;
  std::uint64_t worker_count = 0;  ///< vector<Rank> follows
};

/// Execute carries variable-length argument lists, serialized explicitly.
struct ExecuteHeader {
  offload::KernelId kernel = offload::kInvalidKernel;
  std::vector<offload::TargetPtr> buffers;
  Bytes scalars;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(kernel);
    w.put_vector(buffers);
    w.put_blob(std::span<const std::byte>(scalars.data(), scalars.size()));
    return w.take();
  }
  static ExecuteHeader deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    ExecuteHeader h;
    h.kernel = r.get<offload::KernelId>();
    h.buffers = r.get_vector<offload::TargetPtr>();
    h.scalars = r.get_blob();
    return h;
  }
};

/// Envelope of a new-event notification.
struct EventAnnounce {
  EventKind kind = EventKind::Shutdown;
  mpi::Tag tag = 0;
  mpi::Rank origin = 0;
  Bytes header;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(kind);
    w.put(tag);
    w.put(origin);
    w.put_blob(std::span<const std::byte>(header.data(), header.size()));
    return w.take();
  }
  static EventAnnounce deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    EventAnnounce a;
    a.kind = r.get<EventKind>();
    a.tag = r.get<mpi::Tag>();
    a.origin = r.get<mpi::Rank>();
    a.header = r.get_blob();
    return a;
  }
};

/// Envelope of a completion notification (result rides along: Alloc returns
/// the device address here).
struct EventCompletion {
  mpi::Tag tag = 0;
  Bytes result;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(tag);
    w.put_blob(std::span<const std::byte>(result.data(), result.size()));
    return w.take();
  }
  static EventCompletion deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    EventCompletion c;
    c.tag = r.get<mpi::Tag>();
    c.result = r.get_blob();
    return c;
  }
};

}  // namespace ompc::core
