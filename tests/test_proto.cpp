// Wire-protocol round-trip tests for the event system's message formats.
#include <gtest/gtest.h>

#include "core/proto.hpp"

namespace ompc::core {
namespace {

TEST(Proto, EventAnnounceRoundTrip) {
  EventAnnounce a;
  a.kind = EventKind::Submit;
  a.tag = 12345;
  a.origin = 3;
  ArchiveWriter h;
  h.put(SubmitHeader{0xDEAD, 4096});
  a.header = h.take();

  const Bytes wire = a.serialize();
  const EventAnnounce b = EventAnnounce::deserialize(wire);
  EXPECT_EQ(b.kind, EventKind::Submit);
  EXPECT_EQ(b.tag, 12345);
  EXPECT_EQ(b.origin, 3);
  ArchiveReader r(b.header);
  const auto hdr = r.get<SubmitHeader>();
  EXPECT_EQ(hdr.dst, 0xDEADu);
  EXPECT_EQ(hdr.size, 4096u);
}

TEST(Proto, EmptyHeaderAnnounce) {
  EventAnnounce a;
  a.kind = EventKind::Shutdown;
  a.tag = 0;
  a.origin = 0;
  const EventAnnounce b = EventAnnounce::deserialize(a.serialize());
  EXPECT_EQ(b.kind, EventKind::Shutdown);
  EXPECT_TRUE(b.header.empty());
}

TEST(Proto, CompletionCarriesResult) {
  EventCompletion c;
  c.tag = 777;
  ArchiveWriter w;
  w.put<std::uint64_t>(0xABCDEF);
  c.result = w.take();
  const EventCompletion d = EventCompletion::deserialize(c.serialize());
  EXPECT_EQ(d.tag, 777);
  ArchiveReader r(d.result);
  EXPECT_EQ(r.get<std::uint64_t>(), 0xABCDEFu);
}

TEST(Proto, ExecuteHeaderRoundTrip) {
  ExecuteHeader h;
  h.kernel = 42;
  h.buffers = {1, 2, 3, 0xFFFFFFFFFFFFull};
  ArchiveWriter s;
  s.put<double>(2.5);
  s.put<int>(-1);
  h.scalars = s.take();

  const ExecuteHeader g = ExecuteHeader::deserialize(h.serialize());
  EXPECT_EQ(g.kernel, 42u);
  EXPECT_EQ(g.buffers, h.buffers);
  ArchiveReader r(g.scalars);
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
  EXPECT_EQ(r.get<int>(), -1);
}

TEST(Proto, ExecuteHeaderEmptyArgs) {
  ExecuteHeader h;
  h.kernel = 1;
  const ExecuteHeader g = ExecuteHeader::deserialize(h.serialize());
  EXPECT_TRUE(g.buffers.empty());
  EXPECT_TRUE(g.scalars.empty());
}

TEST(Proto, TruncatedAnnounceThrows) {
  EventAnnounce a;
  a.kind = EventKind::Alloc;
  a.tag = 5;
  a.origin = 1;
  a.header = encode_list<std::uint64_t>({64});
  Bytes wire = a.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(EventAnnounce::deserialize(wire), CheckError);
}

TEST(Proto, ListHeadersRoundTrip) {
  const std::vector<std::uint64_t> sizes{8, 4096, 0};
  EXPECT_EQ(decode_list<std::uint64_t>(encode_list(sizes)), sizes);

  const std::vector<SnapshotRegion> regions{{0x1000, 64}, {0x2000, 128}};
  const auto saves = decode_list<SnapshotRegion>(encode_list(regions));
  ASSERT_EQ(saves.size(), 2u);
  EXPECT_EQ(saves[1].src, 0x2000u);
  EXPECT_EQ(saves[1].size, 128u);

  const std::vector<offload::TargetPtr> drops{0xA, 0xB, 0xC};
  EXPECT_EQ(decode_list<offload::TargetPtr>(encode_list(drops)), drops);
  EXPECT_TRUE(
      decode_list<offload::TargetPtr>(encode_list(
                                          std::vector<offload::TargetPtr>{}))
          .empty());

  RmaPutHeader put;
  put.peer = 3;
  put.items = {{0x10, 32, 0x20, 0}, {0x30, 64, 0x40, 8}};
  const RmaPutHeader back = RmaPutHeader::deserialize(put.serialize());
  EXPECT_EQ(back.peer, 3);
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[1].src, 0x30u);
  EXPECT_EQ(back.items[1].size, 64u);
  EXPECT_EQ(back.items[1].win, 0x40u);
  EXPECT_EQ(back.items[1].offset, 8u);
}

TEST(Proto, MalformedListHeadersThrow) {
  // A count larger than the items that follow: two real regions, a count
  // of three (and counts whose byte size wraps) — CheckError, no overread.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t n : {std::uint64_t{3}, kMax, kMax / 16 + 1}) {
    ArchiveWriter w;
    w.put<std::uint64_t>(n);
    w.put(SnapshotRegion{0x1000, 64});
    w.put(SnapshotRegion{0x2000, 64});
    EXPECT_THROW(decode_list<SnapshotRegion>(w.bytes()), CheckError) << n;

    ArchiveWriter p;
    p.put<mpi::Rank>(2);
    p.put<std::uint64_t>(n);
    p.put(RmaPutItem{0x10, 32, 0x20, 0});
    EXPECT_THROW(RmaPutHeader::deserialize(p.bytes()), CheckError) << n;
  }
  // Bytes left over after the items are malformed too.
  Bytes extra = encode_list<offload::TargetPtr>({0xA});
  extra.push_back(std::byte{0});
  EXPECT_THROW(decode_list<offload::TargetPtr>(extra), CheckError);
  // A header too short for its count prefix.
  EXPECT_THROW(decode_list<std::uint64_t>(Bytes(4)), CheckError);
}

TEST(Proto, EventKindNamesAreDistinct) {
  std::set<std::string> names;
  for (EventKind k :
       {EventKind::Alloc, EventKind::Delete, EventKind::Submit,
        EventKind::Retrieve, EventKind::Execute, EventKind::Shutdown,
        EventKind::RankDead, EventKind::SnapshotSave, EventKind::SnapshotDrop,
        EventKind::SnapshotFetch, EventKind::RmaPut, EventKind::HeadState,
        EventKind::TrimHeap, EventKind::MembershipUpdate}) {
    EXPECT_NE(std::string(to_string(k)), "?");
    EXPECT_TRUE(names.insert(to_string(k)).second);
  }
  EXPECT_EQ(names.size(), 14u);
}

}  // namespace
}  // namespace ompc::core
