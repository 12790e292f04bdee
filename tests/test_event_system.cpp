// Direct tests of the §4.2 event system: every event kind, tag isolation,
// concurrency, clean shutdown, and the park-and-wake handling of events
// with pending I/O.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <thread>

#include "common/time.hpp"
#include "core/event_system.hpp"
#include "core/fault.hpp"
#include "core/runtime.hpp"

namespace ompc::core {
namespace {

const offload::KernelId kStamp =
    offload::KernelRegistry::instance().register_kernel(
        "event_test_stamp", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto v = r.get<std::uint64_t>();
          *ctx.buffer<std::uint64_t>(0) = v;
        });

/// A worker's handler counters, read once its event system stopped.
struct HandlerCounts {
  std::int64_t parked = 0, resumed = 0, released = 0;
};

using HeadBody = std::function<void(EventSystem&, mpi::RankContext&)>;

/// Boots a head + N workers cluster over `opts.network` and runs `body` on
/// the head. `workers_out`, when given, receives each worker's counters
/// (index = rank), and `live_out` its event system while it runs (null once
/// it stopped).
void with_cluster(int workers, const HeadBody& body, ClusterOptions opts = {},
                  std::vector<HandlerCounts>* workers_out = nullptr,
                  std::vector<std::atomic<EventSystem*>>* live_out = nullptr) {
  opts.num_workers = workers;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  uopts.network = opts.network;
  if (workers_out != nullptr)
    workers_out->assign(static_cast<std::size_t>(opts.ranks()), {});
  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EventSystem events(ctx, opts, nullptr, nullptr);
      body(events, ctx);
      events.shutdown_cluster();
    } else {
      const auto me = static_cast<std::size_t>(ctx.rank());
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem events(ctx, opts, &memory, &pool);
      if (live_out != nullptr) (*live_out)[me].store(&events);
      events.wait_until_stopped();
      if (live_out != nullptr) (*live_out)[me].store(nullptr);
      if (workers_out != nullptr) {
        const EventSystemStats& st = events.stats();
        (*workers_out)[me] = {st.parked.load(), st.resumed.load(),
                              st.released.load()};
      }
      if (ctx.universe().is_dead(ctx.rank())) return;  // heap dies with it
      EXPECT_EQ(memory.live(), 0u) << "worker leaked device memory";
    }
  });
}

/// The same over an instant network.
void with_cluster(int workers, const std::function<void(EventSystem&)>& body,
                  ClusterOptions opts = {}) {
  opts.network = {};
  with_cluster(
      workers, [&](EventSystem& es, mpi::RankContext&) { body(es); }, opts);
}

/// Polls `done` every 100 us for up to `limit_s`; true once it holds.
bool eventually(const std::function<bool()>& done, double limit_s = 10.0) {
  const Stopwatch sw;
  while (!done()) {
    if (sw.elapsed_s() > limit_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

offload::TargetPtr alloc_on(EventSystem& es, mpi::Rank w, std::size_t size) {
  const Bytes reply =
      es.run(w, EventKind::Alloc, encode_list<std::uint64_t>({size}));
  return decode_list<offload::TargetPtr>(reply).at(0);
}

/// The header of a one-item RmaPut of `n` bytes from `src` into `dst` on
/// `peer`.
Bytes put_header(offload::TargetPtr src, std::size_t n, mpi::Rank peer,
                 offload::TargetPtr dst) {
  RmaPutHeader h;
  h.peer = peer;
  h.items = {{src, n, dst, 0}};
  return h.serialize();
}

void delete_on(EventSystem& es, mpi::Rank w, offload::TargetPtr p) {
  ArchiveWriter h;
  h.put(DeleteHeader{p});
  es.run(w, EventKind::Delete, h.take());
}

TEST(EventSystem, AllocReturnsDistinctAddresses) {
  with_cluster(1, [](EventSystem& es) {
    const auto a = alloc_on(es, 1, 128);
    const auto b = alloc_on(es, 1, 128);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    delete_on(es, 1, a);
    delete_on(es, 1, b);
  });
}

TEST(EventSystem, SubmitThenRetrieveRoundTrips) {
  with_cluster(1, [](EventSystem& es) {
    const std::size_t n = 1024;
    const auto ptr = alloc_on(es, 1, n);
    Bytes payload(n);
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<std::byte>(i & 0xff);
    ArchiveWriter sh;
    sh.put(SubmitHeader{ptr, n});
    es.run(1, EventKind::Submit, sh.take(), Bytes(payload));

    Bytes back(n);
    es.start_retrieve(1, ptr, back.data(), n)->wait();
    EXPECT_EQ(back, payload);
    delete_on(es, 1, ptr);
  });
}

TEST(EventSystem, RmaPutForwardsWorkerToWorker) {
  with_cluster(2, [](EventSystem& es) {
    const std::size_t n = 512;
    const auto src = alloc_on(es, 1, n);
    const auto dst = alloc_on(es, 2, n);
    Bytes payload(n);
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<std::byte>((i * 7) & 0xff);
    ArchiveWriter sh;
    sh.put(SubmitHeader{src, n});
    es.run(1, EventKind::Submit, sh.take(), Bytes(payload));

    // Head commands the forward; data flows 1 -> 2 directly, one-sided.
    es.start(1, EventKind::RmaPut, put_header(src, n, 2, dst), {}, 2)->wait();

    Bytes back(n);
    es.start_retrieve(2, dst, back.data(), n)->wait();
    EXPECT_EQ(back, payload);
    delete_on(es, 1, src);
    delete_on(es, 2, dst);
  });
}

TEST(EventSystem, RmaPutListLandsEveryItem) {
  // One RmaPut carries several puts, striped over the data comms; the
  // event completes only once every item has landed.
  with_cluster(2, [](EventSystem& es) {
    constexpr std::size_t kItems = 5;
    constexpr std::size_t n = 1024;
    RmaPutHeader put;
    put.peer = 2;
    std::vector<Bytes> payloads;
    for (std::size_t i = 0; i < kItems; ++i) {
      const auto src = alloc_on(es, 1, n);
      payloads.emplace_back(n, static_cast<std::byte>(0x40 + i));
      ArchiveWriter sh;
      sh.put(SubmitHeader{src, n});
      es.run(1, EventKind::Submit, sh.take(), Bytes(payloads.back()));
      put.items.push_back({src, n, alloc_on(es, 2, n), 0});
    }
    for (int round = 0; round < 2; ++round)  // the second re-fills in place
      es.start(1, EventKind::RmaPut, put.serialize(), {}, 2)->wait();
    for (std::size_t i = 0; i < kItems; ++i) {
      Bytes back(n);
      es.start_retrieve(2, put.items[i].win, back.data(), n)->wait();
      EXPECT_EQ(back, payloads[i]) << "item " << i;
      delete_on(es, 1, put.items[i].src);
      delete_on(es, 2, put.items[i].win);
    }
  });
}

TEST(EventSystem, SnapshotDropReleasesAReplicatedShadow) {
  // A shadow that was the source of a replica put is freed by SnapshotDrop
  // like any other: the owner's heap is back to the one live block.
  ClusterOptions opts;
  opts.num_workers = 2;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  std::atomic<WorkerMemory*> owner_memory{nullptr};
  mpi::Universe::launch(uopts, [&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EventSystem es(ctx, opts, nullptr, nullptr);
      constexpr std::size_t n = 256;
      const auto src = alloc_on(es, 1, n);
      const Bytes saved =
          es.run(1, EventKind::SnapshotSave,
                 encode_list(std::vector<SnapshotRegion>{{src, n}}));
      const auto shadow = decode_list<offload::TargetPtr>(saved).at(0);
      const auto replica = alloc_on(es, 2, n);
      es.start(1, EventKind::RmaPut, put_header(shadow, n, 2, replica), {}, 2)
          ->wait();
      ASSERT_TRUE(eventually([&] { return owner_memory.load() != nullptr; }));
      EXPECT_EQ(owner_memory.load()->live(), 2u);
      es.run(1, EventKind::SnapshotDrop,
             encode_list(std::vector<offload::TargetPtr>{shadow}));
      EXPECT_EQ(owner_memory.load()->live(), 1u)
          << "the dropped shadow is still allocated";
      delete_on(es, 1, src);
      delete_on(es, 2, replica);
      es.shutdown_cluster();
    } else {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem es(ctx, opts, &memory, &pool);
      if (ctx.rank() == 1) owner_memory.store(&memory);
      es.wait_until_stopped();
      EXPECT_EQ(memory.live(), 0u) << "worker leaked device memory";
    }
  });
}

TEST(EventSystem, TwoOriginsShareAnEventTagOnOneWorker) {
  // Event tags come from each origin's own counter, so two origins (a head
  // and the rank promoted after it, say) hand the same worker Submits with
  // the same tag value. Each receive is posted for its exact origin: every
  // round must land each origin's own bytes. Rank 0's large payload is
  // still on the wire when its Submit announce arrives (control rides its
  // own link), and rank 1's small payload, sent after it, lands first — so
  // a receive that matched any source would take rank 1's bytes.
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.network = {0, 2.5e6, 8};  // slow payloads, one link per comm
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  uopts.network = opts.network;
  constexpr mpi::Rank kTarget = 2;
  constexpr std::array<std::size_t, 2> kBytes = {64 * 1024, 64};
  constexpr int kRounds = 4;
  std::array<std::array<mpi::Tag, kRounds>, 2> tags{};
  std::barrier rank0_sent(2);
  std::atomic<bool> second_done{false};
  mpi::Universe::launch(uopts, [&](mpi::RankContext& ctx) {
    if (ctx.rank() == kTarget) {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem es(ctx, opts, &memory, &pool);
      es.wait_until_stopped();
      EXPECT_EQ(memory.live(), 0u) << "worker leaked device memory";
      return;
    }
    // Ranks 0 and 1 are both origins; each owns one block on the target
    // and issues the same event sequence, so their fresh counters agree.
    const auto me = static_cast<std::size_t>(ctx.rank());
    const std::size_t n = kBytes[me];
    EventSystem es(ctx, opts, nullptr, nullptr);
    const auto dst = alloc_on(es, kTarget, n);
    for (int round = 0; round < kRounds; ++round) {
      const auto fill =
          static_cast<std::byte>(0x10 * (ctx.rank() + 1) + round);
      Bytes payload(n, fill);
      ArchiveWriter sh;
      sh.put(SubmitHeader{dst, n});
      if (me == 1) rank0_sent.arrive_and_wait();
      const OriginEventPtr submit = es.start(
          kTarget, EventKind::Submit, sh.take(),
          mpi::Payload::borrow(payload.data(), payload.size()));
      if (me == 0) rank0_sent.arrive_and_wait();
      tags[me][static_cast<std::size_t>(round)] = submit->tag();
      submit->wait();
      Bytes back(n);
      es.start_retrieve(kTarget, dst, back.data(), n)->wait();
      EXPECT_EQ(back, payload) << "origin " << ctx.rank() << " round "
                               << round << " landed foreign bytes";
    }
    delete_on(es, kTarget, dst);
    if (ctx.rank() == 1) {
      second_done = true;
      es.wait_until_stopped();  // the head's shutdown stops this rank
    } else {
      ASSERT_TRUE(eventually([&] { return second_done.load(); }));
      es.shutdown_cluster();
    }
  });
  EXPECT_EQ(tags[0], tags[1]);
}

TEST(EventSystem, ExecuteRunsRegisteredKernel) {
  with_cluster(1, [](EventSystem& es) {
    const auto ptr = alloc_on(es, 1, sizeof(std::uint64_t));
    ExecuteHeader h;
    h.kernel = kStamp;
    h.buffers = {ptr};
    ArchiveWriter scalars;
    scalars.put<std::uint64_t>(0xDEADBEEF);
    h.scalars = scalars.take();
    es.run(1, EventKind::Execute, h.serialize());

    std::uint64_t out = 0;
    es.start_retrieve(1, ptr, &out, sizeof out)->wait();
    EXPECT_EQ(out, 0xDEADBEEFu);
    delete_on(es, 1, ptr);
  });
}

TEST(EventSystem, ManyConcurrentEventsFromManyThreads) {
  with_cluster(3, [](EventSystem& es) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 25;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const mpi::Rank w = 1 + (t % 3);
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t v =
              (static_cast<std::uint64_t>(t) << 16) | static_cast<unsigned>(i);
          const auto ptr = alloc_on(es, w, sizeof v);
          ArchiveWriter sh;
          sh.put(SubmitHeader{ptr, sizeof v});
          Bytes payload(sizeof v);
          std::memcpy(payload.data(), &v, sizeof v);
          es.run(w, EventKind::Submit, sh.take(), std::move(payload));
          std::uint64_t back = 0;
          es.start_retrieve(w, ptr, &back, sizeof back)->wait();
          if (back == v) ok.fetch_add(1);
          delete_on(es, w, ptr);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(ok.load(), kThreads * kPerThread);
  });
}

TEST(EventSystem, StatsCountEvents) {
  with_cluster(1, [](EventSystem& es) {
    const auto before = es.stats().originated.load();
    const auto p = alloc_on(es, 1, 8);
    delete_on(es, 1, p);
    EXPECT_EQ(es.stats().originated.load(), before + 2);
  });
}

TEST(EventSystem, TagAllocationIsUniqueAcrossThreads) {
  with_cluster(1, [](EventSystem& es) {
    constexpr int kThreads = 4;
    constexpr int kEach = 500;
    std::vector<std::vector<mpi::Tag>> tags(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kEach; ++i) tags[t].push_back(es.allocate_tag());
      });
    }
    for (auto& th : threads) th.join();
    std::set<mpi::Tag> all;
    for (const auto& v : tags)
      for (mpi::Tag tag : v) EXPECT_TRUE(all.insert(tag).second);
    EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kEach));
  });
}

TEST(EventSystem, CleanShutdownWithIdleWorkers) {
  // No events at all: shutdown alone must terminate every rank.
  with_cluster(4, [](EventSystem&) {});
  SUCCEED();
}

class EventSystemHandlers : public ::testing::TestWithParam<int> {};

TEST_P(EventSystemHandlers, PipelinedSubmitsUnderAnyHandlerCount) {
  ClusterOptions opts;
  opts.handler_threads = GetParam();
  with_cluster(
      2,
      [](EventSystem& es) {
        // Issue several submits before collecting: exercises pending-I/O
        // re-enqueueing when handlers < in-flight events.
        constexpr int kN = 8;
        std::vector<offload::TargetPtr> ptrs;
        std::vector<OriginEventPtr> pending;
        for (int i = 0; i < kN; ++i) {
          const mpi::Rank w = 1 + (i % 2);
          ptrs.push_back(alloc_on(es, w, 64));
          ArchiveWriter sh;
          sh.put(SubmitHeader{ptrs.back(), 64});
          pending.push_back(es.start(w, EventKind::Submit, sh.take(),
                                     Bytes(64, std::byte{char(i)})));
        }
        for (auto& ev : pending) ev->wait();
        for (int i = 0; i < kN; ++i) {
          Bytes back(64);
          const mpi::Rank w = 1 + (i % 2);
          es.start_retrieve(w, ptrs[static_cast<std::size_t>(i)], back.data(), 64)
              ->wait();
          EXPECT_EQ(back[0], std::byte{char(i)});
          delete_on(es, w, ptrs[static_cast<std::size_t>(i)]);
        }
      },
      opts);
}

INSTANTIATE_TEST_SUITE_P(HandlerCounts, EventSystemHandlers,
                         ::testing::Values(1, 2, 4));

// --- park and wake ---------------------------------------------------------

/// Puts `n` bytes from a block on worker `from` into a block on worker `to`
/// as one RmaPut event, `reps` times in a row; frees both blocks.
void put_repeatedly(EventSystem& es, mpi::Rank from, mpi::Rank to,
                    std::size_t n, int reps) {
  const auto src = alloc_on(es, from, n);
  const auto dst = alloc_on(es, to, n);
  for (int i = 0; i < reps; ++i) {
    es.start(from, EventKind::RmaPut, put_header(src, n, to, dst), {}, to)
        ->wait();
  }
  delete_on(es, from, src);
  delete_on(es, to, dst);
}

class EventSystemWakeups : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(EventSystemWakeups, EachPendingPutParksAndResumesAtMostOnce) {
  // A put waiting for its ack is parked once and resumed once, by the ack
  // itself: the counts do not grow with the wire time, as a poll's would.
  constexpr int kPuts = 12;
  ClusterOptions opts;
  opts.network = {GetParam(), 0.0, 1};
  std::vector<HandlerCounts> counts;
  with_cluster(
      2,
      [](EventSystem& es, mpi::RankContext&) {
        put_repeatedly(es, 1, 2, 4096, kPuts);
      },
      opts, &counts);
  for (std::size_t r = 1; r < counts.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(counts[r].resumed, counts[r].parked);
    EXPECT_LE(counts[r].parked, kPuts);
    EXPECT_EQ(counts[r].released, 0);
  }
  EXPECT_GE(counts[1].parked, 1) << "an ack 2x latency away was never waited";
}

INSTANTIATE_TEST_SUITE_P(
    SlowLinks, EventSystemWakeups,
    ::testing::Values(std::int64_t{1'000'000}, std::int64_t{4'000'000}));

TEST(EventSystemWakeups, ParkedRmaPutFailsWhenItsTargetDies) {
  // Worker 1 parks an RmaPut whose ack is ~200 ms of wire time away; its
  // target dies mid-flight. The kill fails the pending put, and that
  // completion alone resumes the event — no RankDead notice is sent — so
  // it is parked once, resumed once and acked, never released.
  ClusterOptions opts;
  opts.network = {0, 2.5e6, 1};  // tiny control messages, slow payload
  constexpr std::size_t kBytes = 512 * 1024;
  std::vector<std::atomic<EventSystem*>> live(3);
  std::vector<HandlerCounts> counts;
  with_cluster(
      2,
      [&](EventSystem& es, mpi::RankContext& ctx) {
        const auto src = alloc_on(es, 1, kBytes);
        const auto dst = alloc_on(es, 2, kBytes);
        auto put_ev = es.start(1, EventKind::RmaPut,
                               put_header(src, kBytes, 2, dst), {}, 2);
        ASSERT_TRUE(eventually([&] { return live[1].load() != nullptr; }));
        const EventSystemStats& w1 = live[1].load()->stats();
        ASSERT_TRUE(eventually([&] { return w1.parked.load() == 1; }));
        const std::int64_t handled = w1.handled.load();

        // The head declares the target dead first, as its detector would,
        // so the origin's failure cannot race worker 1's ack.
        es.fail_rank(2);
        ctx.universe().kill_rank(2, 0);
        EXPECT_THROW(put_ev->wait(), WorkerDiedError);
        ASSERT_TRUE(eventually(
            [&] { return w1.handled.load() == handled + 1; }, 5.0))
            << "the parked RmaPut never settled";
        delete_on(es, 1, src);
      },
      opts, &counts, &live);
  EXPECT_EQ(counts[1].parked, 1);
  EXPECT_EQ(counts[1].resumed, 1);
  EXPECT_EQ(counts[1].released, 0);
}

TEST(EventSystemWakeups, TeardownBeforeALateCompletionIsANoOp) {
  // Worker 1 parks an RmaPut whose ack is ~200 ms of wire time away, then
  // destroys its event system. The ack completing the request afterwards
  // runs a hook whose queue is gone: it must do nothing (ASan checks).
  ClusterOptions opts;
  opts.num_workers = 2;
  constexpr std::size_t kBytes = 512 * 1024;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  uopts.network = {0, 2.5e6, 1};  // tiny control messages, slow payload
  std::atomic<bool> parked{false}, acked{false};
  mpi::Universe::launch(uopts, [&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EventSystem es(ctx, opts, nullptr, nullptr);
      const auto src = alloc_on(es, 1, kBytes);
      const auto dst = alloc_on(es, 2, kBytes);
      auto put = es.start(1, EventKind::RmaPut,
                          put_header(src, kBytes, 2, dst), {}, 2);
      EXPECT_TRUE(eventually([&] { return acked.load(); }));
      EXPECT_FALSE(put->done()) << "a released event never completes";
      delete_on(es, 2, dst);
      es.run(2, EventKind::Shutdown, {});
    } else if (ctx.rank() == 1) {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      {
        EventSystem es(ctx, opts, &memory, &pool);
        parked = eventually([&] { return es.stats().parked.load() == 1; });
      }  // self-stop: the parked put is released, the hook outlives us
      // Outlive the ack (~210 ms of wire time after the put started).
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      acked = true;
    } else {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem es(ctx, opts, &memory, &pool);
      es.wait_until_stopped();
    }
  });
  EXPECT_TRUE(parked.load());
}

TEST(EventSystemWakeups, ReleasedEventsAreCountedApart) {
  // A stop with an event still parked releases it: parked == resumed +
  // released once the handlers are gone.
  ClusterOptions opts;
  opts.num_workers = 1;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  std::atomic<EventSystem*> worker{nullptr};
  HandlerCounts w1;
  mpi::Universe::launch(uopts, [&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EventSystem es(ctx, opts, nullptr, nullptr);
      const auto dst = alloc_on(es, 1, 64);
      // A Submit whose payload never comes parks on its irecv.
      ArchiveWriter sh;
      sh.put(SubmitHeader{dst, 64});
      es.start(1, EventKind::Submit, sh.take());
      ASSERT_TRUE(eventually([&] {
        EventSystem* w = worker.load();
        return w != nullptr && w->stats().parked.load() == 1;
      }));
      es.shutdown_cluster();
    } else {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem es(ctx, opts, &memory, &pool);
      worker = &es;
      es.wait_until_stopped();
      worker = nullptr;
      const EventSystemStats& st = es.stats();
      EXPECT_TRUE(eventually([&] { return st.released.load() == 1; }));
      w1 = {st.parked.load(), st.resumed.load(), st.released.load()};
    }
  });
  EXPECT_EQ(w1.parked, 1);
  EXPECT_EQ(w1.resumed, 0);
  EXPECT_EQ(w1.released, 1);
}

// --- launch failures surface fast ----------------------------------------

TEST(LaunchFailsFast, WorkerThrowingAtStartupFailsTheLaunch) {
  // A worker that throws before its event system exists is killed on the
  // spot: events toward it fail fast, and launch() rethrows its error.
  ClusterOptions opts;
  opts.num_workers = 2;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  const Stopwatch sw;
  EXPECT_THROW(
      mpi::Universe::launch(
          uopts,
          [&](mpi::RankContext& ctx) {
            if (ctx.rank() == 2) throw std::runtime_error("worker 2 failed");
            if (ctx.rank() == 0) {
              EventSystem es(ctx, opts, nullptr, nullptr);
              ASSERT_TRUE(
                  eventually([&] { return ctx.universe().is_dead(2); }));
              EXPECT_THROW(es.run(2, EventKind::Alloc,
                                  encode_list<std::uint64_t>({8})),
                           WorkerDiedError);
              es.shutdown_cluster();
            } else {
              WorkerMemory memory(&ctx.universe(), ctx.rank());
              omp::TaskRuntime pool(1);
              EventSystem es(ctx, opts, &memory, &pool);
              es.wait_until_stopped();
            }
          }),
      std::runtime_error);
  EXPECT_LT(sw.elapsed_s(), 10.0);
}

}  // namespace
}  // namespace ompc::core
