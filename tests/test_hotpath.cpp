// Head hot-path invariants (persistent pools, zero-copy data plane,
// dirty-set checkpoints) — asserted through counters, not eyeballed:
//  - the Submit/Retrieve/Exchange paths each perform exactly ONE payload
//    byte-copy (the delivery fill), tracked by mpi::payload_copies();
//  - pools are created once per launch, so steady-state waves spawn zero
//    threads (RuntimeStats::threads_spawned is wave-count-independent);
//  - checkpoint capture copies only the dirty subset and keeps clean
//    entries by reference.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/data_manager.hpp"
#include "core/helper_pool.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"

namespace ompc::core {
namespace {

// The exact copy counts below assume the zero-copy in-process conduit. The
// shm conduit genuinely pays two extra copies per cross-rank transfer
// (ring staging + reassembly), so under OMPC_CONDUIT=shm these counting
// tests do not apply — the invariant they pin is a property of the
// in-process data plane, not of every transport.
#define OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT()                                 \
  do {                                                                       \
    if (mpi::resolve_conduit_kind(mpi::ConduitKind::InProcess) !=            \
        mpi::ConduitKind::InProcess)                                         \
      GTEST_SKIP() << "copy counts assume the zero-copy inprocess conduit";  \
  } while (0)

// --- Payload semantics ---------------------------------------------------

TEST(Payload, OwnedBytesAreMovedNotCopied) {
  const std::int64_t before = mpi::payload_copies();
  Bytes b(1024, std::byte{7});
  const std::byte* heap = b.data();
  mpi::Payload p(std::move(b));
  EXPECT_EQ(p.data(), heap);  // same heap block: moved, not copied
  EXPECT_EQ(p.size(), 1024u);
  EXPECT_EQ(mpi::payload_copies(), before);
}

TEST(Payload, BorrowViewsCallerMemory) {
  Bytes src(64, std::byte{3});
  const mpi::Payload p = mpi::Payload::borrow(src.data(), src.size());
  EXPECT_EQ(p.data(), src.data());
  src[0] = std::byte{9};  // borrowed: views the live buffer
  EXPECT_EQ(p.data()[0], std::byte{9});
}

TEST(Payload, ShareKeepsBackingStorageAlive) {
  auto block = std::make_shared<Bytes>(32, std::byte{5});
  const std::byte* raw = block->data();
  mpi::Payload p = mpi::Payload::share(
      std::shared_ptr<const void>(block, block->data()), raw, 32);
  block.reset();  // payload is now the only owner
  EXPECT_EQ(p.data()[31], std::byte{5});
}

TEST(Payload, MoveKeepsOwnedDataStable) {
  mpi::Payload a(Bytes(256, std::byte{1}));
  const std::byte* heap = a.data();
  mpi::Payload b(std::move(a));
  EXPECT_EQ(b.data(), heap);
  mpi::Payload c = mpi::Payload::borrow(nullptr, 0);
  c = std::move(b);
  EXPECT_EQ(c.data(), heap);
}

// --- minimpi-level copy accounting ---------------------------------------

TEST(PayloadCopies, BorrowedDataSendCopiesOnceAtDelivery) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  mpi::UniverseOptions o;
  o.ranks = 2;
  mpi::Universe u(o);
  u.run([&](mpi::RankContext& ctx) {
    const mpi::Tag tag = mpi::kFirstDataTag + 1;
    const std::int64_t before = mpi::payload_copies();
    if (ctx.rank() == 0) {
      Bytes src(4096, std::byte{0xAB});
      ctx.world().isend_payload(mpi::Payload::borrow(src.data(), src.size()),
                                1, tag);
      ctx.world().barrier();  // receiver has matched: the count is final
      EXPECT_EQ(mpi::payload_copies() - before, 1);
    } else {
      Bytes dst(4096);
      ctx.world().recv(dst.data(), dst.size(), 0, tag);
      EXPECT_EQ(dst[4095], std::byte{0xAB});
      ctx.world().barrier();
    }
  });
}

TEST(PayloadCopies, ControlTagsAreNotCounted) {
  mpi::UniverseOptions o;
  o.ranks = 2;
  mpi::Universe u(o);
  u.run([&](mpi::RankContext& ctx) {
    const std::int64_t before = mpi::payload_copies();
    if (ctx.rank() == 0) {
      const std::uint64_t v = 42;
      ctx.world().send(&v, sizeof v, 1, /*tag=*/3);  // control range
    } else {
      std::uint64_t v = 0;
      ctx.world().recv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, 42u);
    }
    EXPECT_EQ(mpi::payload_copies(), before);
  });
}

// --- WorkerMemory shared blocks ------------------------------------------

TEST(WorkerMemory, ShareOutlivesFree) {
  WorkerMemory mem;
  const offload::TargetPtr p = mem.alloc(128);
  std::memset(reinterpret_cast<void*>(p), 0x5C, 128);
  mpi::Payload view = mem.share(p, 128);
  mem.free(p);  // an in-flight payload must survive the Delete event
  EXPECT_EQ(mem.live(), 0u);
  EXPECT_EQ(view.data()[127], std::byte{0x5C});
}

TEST(WorkerMemory, ShareOfUnknownPtrFails) {
  WorkerMemory mem;
  EXPECT_THROW(mem.share(0xDEAD, 8), CheckError);
  const offload::TargetPtr p = mem.alloc(8);
  EXPECT_THROW(mem.share(p, 64), CheckError);  // beyond the allocation
  mem.free(p);
}

// --- data-plane copy counts through the Data Manager ---------------------

struct Cluster {
  explicit Cluster(int workers, Forwarding fw = Forwarding::Direct) {
    opts.num_workers = workers;
    opts.network = {};
    opts.forwarding = fw;
  }

  void run(const std::function<void(DataManager&, EventSystem&)>& body) {
    mpi::UniverseOptions uopts;
    uopts.ranks = opts.ranks();
    uopts.comms = 1 + opts.vci;
    mpi::Universe universe(uopts);
    universe.run([&](mpi::RankContext& ctx) {
      if (ctx.rank() == 0) {
        EventSystem events(ctx, opts, nullptr, nullptr);
        DataManager dm(events, opts);
        body(dm, events);
        dm.cleanup_all();
        events.shutdown_cluster();
      } else {
        WorkerMemory memory(&ctx.universe(), ctx.rank());
        omp::TaskRuntime pool(1);
        EventSystem events(ctx, opts, &memory, &pool);
        events.wait_until_stopped();
        EXPECT_EQ(memory.live(), 0u) << "rank " << ctx.rank() << " leaked";
      }
    });
  }

  ClusterOptions opts;
};

TEST(PayloadCopies, SubmitIsExactlyOneCopy) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> buf(512, 11);
    dm.register_buffer(buf.data(), buf.size() * sizeof(std::uint64_t));
    const void* args[] = {buf.data()};
    const std::int64_t copies = mpi::payload_copies();
    const std::int64_t bytes = mpi::payload_copy_bytes();
    dm.prepare_args(1, args);  // alloc (control) + submit (data payload)
    EXPECT_EQ(dm.stats().submits.load(), 1);
    EXPECT_EQ(mpi::payload_copies() - copies, 1);
    EXPECT_EQ(mpi::payload_copy_bytes() - bytes,
              static_cast<std::int64_t>(buf.size() * sizeof(std::uint64_t)));
  });
}

TEST(PayloadCopies, ExitRetrieveIsExactlyOneCopy) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(&buf)});  // worker holds the only copy
    const std::int64_t copies = mpi::payload_copies();
    dm.exit_to_head(&buf, /*copy=*/true);
    EXPECT_EQ(mpi::payload_copies() - copies, 1);
  });
}

TEST(PayloadCopies, DirectForwardIsExactlyOneCopy) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> buf(64, 9);
    dm.register_buffer(buf.data(), buf.size() * sizeof(std::uint64_t));
    const void* args[] = {buf.data()};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(buf.data())});
    const std::int64_t copies = mpi::payload_copies();
    dm.prepare_args(2, args);  // direct worker->worker exchange
    EXPECT_EQ(dm.stats().exchanges.load(), 1);
    EXPECT_EQ(mpi::payload_copies() - copies, 1);
  });
}

TEST(PayloadCopies, ViaHeadForwardIsTwoCopies) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  // The ablation strawman bounces through the head: one retrieve fill into
  // the host buffer + one submit fill into the consumer — still no staging
  // copies on top.
  Cluster c(2, Forwarding::ViaHead);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 42;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(&buf)});
    const std::int64_t copies = mpi::payload_copies();
    dm.prepare_args(2, args);
    EXPECT_EQ(mpi::payload_copies() - copies, 2);
  });
}

TEST(SharedRegistry, ConcurrentLookupsWhileTransferring) {
  // Reader-heavy hammering of the registry (shared_mutex) while transfers
  // run; correctness smoke for the reader/writer split.
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> a(256, 1), b(256, 2);
    dm.register_buffer(a.data(), a.size() * sizeof(std::uint64_t));
    dm.register_buffer(b.data(), b.size() * sizeof(std::uint64_t));
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 4; ++i) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          EXPECT_TRUE(dm.is_registered(a.data()));
          EXPECT_EQ(dm.buffer_size(b.data()), 256 * sizeof(std::uint64_t));
        }
      });
    }
    const void* args[] = {a.data(), b.data()};
    for (mpi::Rank w = 1; w <= 2; ++w) dm.prepare_args(w, args);
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(dm.snapshot(a.data()).valid_workers.size(), 2u);
  });
}

// --- dirty-set checkpoints ------------------------------------------------

TEST(DirtyCheckpoint, CleanIntervalCopiesNothing) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> a(128, 1), b(128, 2);
    dm.register_buffer(a.data(), a.size() * sizeof(std::uint64_t));
    dm.register_buffer(b.data(), b.size() * sizeof(std::uint64_t));

    CheckpointStore ckpt;
    ckpt.capture(dm, 0);  // first capture: everything is dirty
    const std::int64_t full = 2 * 128 * sizeof(std::uint64_t);
    EXPECT_EQ(ckpt.stats().bytes_captured, full);
    EXPECT_EQ(ckpt.stats().dirty_bytes, full);

    ckpt.capture(dm, 1);  // nothing written since: all entries reused
    EXPECT_EQ(ckpt.stats().bytes_captured, 2 * full);  // logical volume
    EXPECT_EQ(ckpt.stats().dirty_bytes, full);         // no new copies
    EXPECT_EQ(ckpt.stats().entries_reused, 2);
  });
}

TEST(DirtyCheckpoint, OnlyWrittenBufferIsRecaptured) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> a(128, 1), b(128, 2);
    const std::int64_t each = 128 * sizeof(std::uint64_t);
    dm.register_buffer(a.data(), static_cast<std::size_t>(each));
    dm.register_buffer(b.data(), static_cast<std::size_t>(each));

    CheckpointStore ckpt;
    ckpt.capture(dm, 0);

    // A task writes `a` on worker 1; `b` stays clean.
    const void* args[] = {a.data()};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(a.data())});

    const std::int64_t retrieves = dm.stats().retrieves.load();
    ckpt.capture(dm, 1);
    EXPECT_EQ(ckpt.stats().dirty_bytes, 2 * each + each);  // full + only `a`
    EXPECT_EQ(ckpt.stats().entries_reused, 1);             // `b` by reference
    // The clean buffer was not even retrieved from anywhere.
    EXPECT_EQ(dm.stats().retrieves.load(), retrieves + 1);
  });
}

TEST(DirtyCheckpoint, HostTaskWriteIsRecaptured) {
  // Host tasks write head memory in place (no after_write invalidation
  // runs); the checkpointer must still treat their out/inout deps as
  // dirty, or recovery would silently roll the host write back.
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t cell = 1;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt;
    ckpt.capture(dm, 0);
    cell = 2;  // what a host task with omp::inout(&cell) does
    dm.after_host_write({omp::inout(&cell)});
    ckpt.capture(dm, 1);
    EXPECT_EQ(ckpt.stats().entries_reused, 0);
    EXPECT_EQ(ckpt.stats().dirty_bytes,
              2 * static_cast<std::int64_t>(sizeof cell));
    // The recaptured entry holds the written value.
    cell = 0;
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 2u);
  });
}

TEST(DirtyCheckpoint, RestoredContentMatchesCapturedBytes) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t cell = 0xC0FFEE;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt;
    ckpt.capture(dm, 0);
    cell = 0;  // host-side corruption stands in for a failed wave
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 0xC0FFEEu);
    // Restore re-synced every buffer with its entry: a follow-up capture
    // reuses rather than re-copies.
    ckpt.capture(dm, 1);
    EXPECT_EQ(ckpt.stats().entries_reused, 1);
  });
}

// --- persistent pools -----------------------------------------------------

TEST(HelperPoolUnit, RunsJobsOnPersistentThreads) {
  HelperPool pool(4, "tp");
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> sum{0};
  std::mutex m;
  std::condition_variable cv;
  int remaining = 64;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      sum.fetch_add(1);
      std::lock_guard<std::mutex> lock(m);
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return remaining == 0; });
  EXPECT_EQ(sum.load(), 64);
  // jobs_run_ is bumped after the job body returns (it counts *completed*
  // jobs), so the last increment can trail the cv notify issued inside the
  // job; wait for it rather than racing it.
  while (pool.jobs_run() < 64) std::this_thread::yield();
  EXPECT_EQ(pool.jobs_run(), 64);
}

/// buffers[0]: u64 cell, incremented once per task.
const offload::KernelId kBump =
    offload::KernelRegistry::instance().register_kernel(
        "test_hotpath_bump", [](offload::KernelContext& ctx) {
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

/// kBump with a scalar sleep first, so kills land mid-wave deterministically.
const offload::KernelId kSleepyBump =
    offload::KernelRegistry::instance().register_kernel(
        "test_hotpath_sleepy_bump", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          precise_sleep_ns(r.get<std::int64_t>());
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

RuntimeStats run_waves(int waves, int cells) {
  ClusterOptions opts;
  opts.num_workers = 2;
  std::vector<std::uint64_t> data(static_cast<std::size_t>(cells), 0);
  RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (auto& c : data) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < waves; ++w) {
      for (auto& c : data) {
        Args args;
        args.buf(&c);
        rt.target({omp::inout(&c)}, kBump, std::move(args));
      }
      rt.wait_all();
    }
    for (auto& c : data) rt.exit_data(&c);
  });
  for (const auto c : data) EXPECT_EQ(c, static_cast<std::uint64_t>(waves));
  return stats;
}

TEST(PersistentPools, SteadyStateWavesSpawnZeroThreads) {
  // Pools are created once per launch: the spawn count must not grow with
  // the number of waves (the old dispatcher created 16 + 3W threads per
  // wave; the old prepare_args one per extra buffer of every task).
  const RuntimeStats two = run_waves(2, 4);
  const RuntimeStats ten = run_waves(10, 4);
  EXPECT_GT(two.threads_spawned, 0);
  EXPECT_EQ(two.threads_spawned, ten.threads_spawned);
}

TEST(PersistentPools, EndToEndSubmitPathIsSingleCopyPerTransfer) {
  OMPC_SKIP_IF_NOT_ZERO_COPY_CONDUIT();
  // Every data transfer (submit/retrieve/exchange) across the run pays
  // exactly one payload copy: the delivery fill.
  const RuntimeStats s = run_waves(3, 4);
  EXPECT_EQ(s.payload_copies, s.submits + s.retrieves + s.exchanges);
}

// --- schedule memoization (paper Fig. 7b) ---------------------------------

TEST(ScheduleCache, SteadyStateIdenticalWavesHitTheCache) {
  // Iterative programs re-record an identical DAG every time step; after
  // the first wave schedules it, every repeat must be served from the
  // cache. The enter wave (wave 0) and the exit wave differ structurally
  // and are expected misses.
  constexpr int kWaves = 6;
  ClusterOptions opts;
  opts.num_workers = 2;
  std::vector<std::uint64_t> data(4, 0);
  const RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (auto& c : data) rt.enter_data(&c, sizeof c);
    rt.wait_all();  // enter-only wave: its own structure
    for (int w = 0; w < kWaves; ++w) {
      for (auto& c : data) {
        Args args;
        args.buf(&c);
        rt.target({omp::inout(&c)}, kBump, std::move(args));
      }
      rt.wait_all();
    }
    for (auto& c : data) rt.exit_data(&c);
  });
  for (const auto c : data) EXPECT_EQ(c, static_cast<std::uint64_t>(kWaves));
  EXPECT_GE(stats.schedule_cache_hits, kWaves - 1);
}

TEST(ScheduleCache, DistinctGraphsDoNotFalselyHit) {
  // Waves of different widths must each be scheduled on their own.
  ClusterOptions opts;
  opts.num_workers = 2;
  std::vector<std::uint64_t> data(4, 0);
  const RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (auto& c : data) rt.enter_data(&c, sizeof c);
    for (std::size_t width = 1; width <= data.size(); ++width) {
      for (std::size_t i = 0; i < width; ++i) {
        Args args;
        args.buf(&data[i]);
        rt.target({omp::inout(&data[i])}, kBump, std::move(args));
      }
      rt.wait_all();
    }
    for (auto& c : data) rt.exit_data(&c);
  });
  EXPECT_EQ(data[0], 4u);  // touched by every wave
  EXPECT_EQ(data[3], 1u);  // only by the widest
  EXPECT_EQ(stats.schedule_cache_hits, 0);
}

TEST(ScheduleCache, InvalidatedOnWorkerDeathAndStillCorrect) {
  // A cached schedule maps tasks onto the pre-failure worker table; after
  // recovery re-ranks the survivors it must not be replayed (the cache is
  // cleared and re-keyed by the live-worker set). Correctness of the
  // post-recovery waves is the observable: a stale processor index would
  // dispatch onto a corpse.
  constexpr int kWaves = 8;
  ClusterOptions opts;
  opts.num_workers = 3;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 50;
  opts.checkpoint_period = 1;
  opts.kills.push_back({2, 60'000'000});

  std::vector<std::uint64_t> data(4, 0);
  const RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (auto& c : data) rt.enter_data(&c, sizeof c);
    rt.wait_all();
    for (int w = 0; w < kWaves; ++w) {
      for (auto& c : data) {
        Args args;
        args.buf(&c).scalar<std::int64_t>(20'000'000);
        rt.target({omp::inout(&c)}, kSleepyBump, std::move(args), 20e-3);
      }
      rt.wait_all();
    }
    for (auto& c : data) rt.exit_data(&c);
  });
  for (const auto c : data) EXPECT_EQ(c, static_cast<std::uint64_t>(kWaves));
  EXPECT_GE(stats.recoveries, 1);
  // The cache still serves the steady state on both sides of the failure.
  EXPECT_GE(stats.schedule_cache_hits, 1);
}

}  // namespace
}  // namespace ompc::core
