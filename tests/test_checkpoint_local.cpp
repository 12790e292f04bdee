// Worker-local buddy checkpoints (§5 + CheckpointLocality): the snapshot
// data plane lives on the workers, the head keeps metadata — and recovery
// still reproduces bitwise-identical results when the snapshot owner dies
// (restored from its buddy replica), degrades to a clean RecoveryError
// when owner AND buddy die in one checkpoint period, and a death mid-
// capture leaves the previous snapshot generation intact (two-phase
// commit). Also covers composition with Forwarding::ViaHead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fault.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::CheckpointLocality;
using core::CheckpointStore;
using core::ClusterOptions;
using core::DataManager;
using core::EventSystem;
using core::RecoveryError;
using core::WorkerMemory;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::read_digest;
using taskbench::TaskBenchSpec;

ClusterOptions buddy_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  o.checkpoint_locality = CheckpointLocality::Buddy;
  return o;
}

TaskBenchSpec stepwise_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 4;
  s.width = 8;
  s.iterations = 4'000'000;  // 20 ms sleep tasks: waves outlive detection
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

// --- failure-free: the head sees metadata, not bytes ----------------------

TEST(BuddyCheckpoint, BuddyModeKeepsCaptureBytesOffTheHead) {
  TaskBenchSpec spec = stepwise_spec(Pattern::Stencil1D);
  spec.iterations = 0;  // no compute needed without kills
  spec.output_bytes = 4096;

  ClusterOptions head = buddy_opts(3);
  head.heartbeat_period_ms = 0;
  head.checkpoint_locality = CheckpointLocality::Head;
  ClusterOptions buddy = head;
  buddy.checkpoint_locality = CheckpointLocality::Buddy;

  const auto rh = taskbench::run_ompc_stepwise(spec, head);
  const auto rb = taskbench::run_ompc_stepwise(spec, buddy);
  ASSERT_EQ(rh.checksum, expected_checksum(spec));
  ASSERT_EQ(rb.checksum, expected_checksum(spec));

  // Head mode pulls every worker-resident dirty buffer home per boundary;
  // Buddy mode ships commands only (plus replicas worker->worker).
  EXPECT_GT(rh.stats.checkpoint_head_bytes, 0);
  EXPECT_GT(rb.stats.snapshot_replicas, 0);
  EXPECT_LT(rb.stats.checkpoint_head_bytes,
            rh.stats.checkpoint_head_bytes / 10);
  // Same logical snapshots were taken in both modes.
  EXPECT_EQ(rb.stats.checkpoint_bytes, rh.stats.checkpoint_bytes);
}

// --- owner dies: restore from the buddy, all 4 patterns -------------------

class BuddyRecoveryAcrossPatterns : public ::testing::TestWithParam<Pattern> {
};

TEST_P(BuddyRecoveryAcrossPatterns, KilledSnapshotOwnerChecksumStillMatches) {
  const TaskBenchSpec spec = stepwise_spec(GetParam());
  ClusterOptions opts = buddy_opts(3);
  opts.kills.push_back({2, 30'000'000});  // worker rank 2 dies at 30 ms

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec))
      << "buddy-restored run diverged on " << pattern_name(spec.pattern);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
  EXPECT_GE(r.stats.snapshot_replicas, 1);
  EXPECT_GE(r.stats.replayed_tasks, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, BuddyRecoveryAcrossPatterns,
                         ::testing::Values(Pattern::Trivial,
                                           Pattern::Stencil1D, Pattern::Fft,
                                           Pattern::Tree),
                         [](const auto& info) {
                           return std::string(pattern_name(info.param));
                         });

// --- owner AND buddy die in one period: clean degradation -----------------

/// buffers[0]: u64 cell. scalars: (sleep_ns). Burns sleep_ns, then += 1.
const offload::KernelId kIncrement =
    offload::KernelRegistry::instance().register_kernel(
        "test_ckpt_local_increment", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          precise_sleep_ns(sleep_ns);
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

TEST(BuddyCheckpoint, OwnerAndBuddyDyingInOnePeriodIsRecoveryError) {
  // One buffer, one task per wave: HEFT pins the task to the first worker
  // (rank 1), whose ring buddy is rank 2. After the third wave two
  // worker-resident boundaries exist (before waves 1 and 2), both held by
  // ranks 1 and 2. Both die between waves, before the next one starts —
  // no recovery can run in between and hoist the buddy's shadow to the
  // head, where it would survive. The latest snapshot's owner and buddy
  // are gone and so are the prior generation's: recovery must surface a
  // clean RecoveryError — the sole survivor (rank 3) holds no copy.
  ClusterOptions opts = buddy_opts(3);

  std::uint64_t cell = 0;
  const auto body = [&](core::Runtime& rt) {
    rt.enter_data(&cell, sizeof cell);
    for (int w = 0; w < 16; ++w) {
      core::Args args;
      args.buf(&cell).scalar<std::int64_t>(1'000'000);
      rt.target({omp::inout(&cell)}, kIncrement, std::move(args), 1e-3);
      rt.wait_all();
      if (w != 2) continue;
      ASSERT_EQ(rt.checkpoints().worker_resident_entries(), 1u);
      ASSERT_FALSE(rt.checkpoints().shadows_on(1).empty());
      ASSERT_FALSE(rt.checkpoints().shadows_on(2).empty());
      mpi::Universe& u = rt.events().universe();
      u.kill_rank(1, 0);
      u.kill_rank(2, 0);
      while (!u.is_dead(1) || !u.is_dead(2)) precise_sleep_ns(100'000);
    }
    rt.exit_data(&cell);
  };
  EXPECT_THROW(core::launch(opts, body), RecoveryError);
}

// --- two-phase commit at the unit level -----------------------------------

/// Head-side fixture with direct access to the universe's fault injection:
/// a head rank driving DataManager/CheckpointStore by hand plus `workers`
/// event-system-only worker ranks.
struct MiniCluster {
  explicit MiniCluster(int workers)
      : memory(static_cast<std::size_t>(workers) + 1) {
    opts.num_workers = workers;
    opts.network = {};
    opts.checkpoint_locality = CheckpointLocality::Buddy;
  }

  /// Blocks on live worker `rank`'s device heap.
  std::size_t live_blocks(mpi::Rank rank) const {
    const auto& slot = memory[static_cast<std::size_t>(rank)];
    while (slot.load() == nullptr) precise_sleep_ns(100'000);
    return slot.load()->live();
  }

  void run(const std::function<void(DataManager&, EventSystem&,
                                    mpi::Universe&)>& body) {
    mpi::UniverseOptions uopts;
    uopts.ranks = opts.ranks();
    uopts.comms = 1 + opts.vci;
    mpi::Universe universe(uopts);
    universe.run([&](mpi::RankContext& ctx) {
      if (ctx.rank() == 0) {
        EventSystem events(ctx, opts, nullptr, nullptr);
        DataManager dm(events, opts);
        body(dm, events, universe);
        try {
          dm.cleanup_all();
        } catch (const core::WorkerDiedError&) {
          // Cleanup against an injected corpse: its memory dies with it.
        }
        events.shutdown_cluster();
      } else {
        WorkerMemory heap(&ctx.universe(), ctx.rank());
        omp::TaskRuntime pool(1);
        EventSystem events(ctx, opts, &heap, &pool);
        memory[static_cast<std::size_t>(ctx.rank())].store(&heap);
        events.wait_until_stopped();
      }
    });
  }

  ClusterOptions opts;
  /// Each worker's heap while its rank runs (index = rank).
  std::vector<std::atomic<const WorkerMemory*>> memory;
};

/// buffers[0]: u64 cell. scalars: (value). Overwrites the cell.
const offload::KernelId kSet =
    offload::KernelRegistry::instance().register_kernel(
        "test_ckpt_local_set", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          *ctx.buffer<std::uint64_t>(0) = r.get<std::uint64_t>();
        });

/// Runs kSet(value) on `worker`'s replica of `cell` and applies the write
/// invalidation, so the worker owns the only (dirty) copy.
void write_on_worker(DataManager& dm, EventSystem& events, mpi::Rank worker,
                     std::uint64_t* cell, std::uint64_t value) {
  const void* args[] = {cell};
  const std::vector<offload::TargetPtr> addrs = dm.prepare_args(worker, args);
  core::ExecuteHeader h;
  h.kernel = kSet;
  h.buffers = {addrs[0]};
  ArchiveWriter w;
  w.put(value);
  h.scalars = w.take();
  events.run(worker, core::EventKind::Execute, h.serialize());
  dm.after_write(worker, {omp::inout(cell)});
}

void kill_and_wait(mpi::Universe& u, mpi::Rank r) {
  u.kill_rank(r, 0);
  while (!u.is_dead(r)) precise_sleep_ns(1'000'000);
}

TEST(BuddyCheckpoint, DeathMidCaptureLeavesPreviousGenerationIntact) {
  // Generation 1 snapshots value 1 (owner rank 1, buddy rank 2). The buddy
  // then dies, so the generation-2 capture aborts mid-snapshot — and the
  // committed generation must still restore value 1 from the owner.
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 1);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.generation(), 1u);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);
    EXPECT_EQ(ckpt.stats().snapshot_replicas, 1);

    write_on_worker(dm, events, 1, &cell, 2);
    kill_and_wait(u, 2);  // the buddy dies before the boundary
    EXPECT_THROW(ckpt.capture(dm, 1, live), core::WorkerDiedError);
    EXPECT_EQ(ckpt.generation(), 1u);  // previous generation committed
    EXPECT_EQ(ckpt.wave(), 0);

    dm.purge_rank(2);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 1u);  // generation 1, not the aborted generation 2
  });
}

/// Two buffers on each of owners 1 and 2: the batched capture sends one
/// list event per rank and phase for them.
struct FourCells {
  std::uint64_t cell[4] = {};

  void register_all(DataManager& dm) {
    for (std::uint64_t& c : cell) dm.register_buffer(&c, sizeof c);
  }
  /// Cells 0-1 get `base` + i on worker 1, cells 2-3 on worker 2.
  void write(DataManager& dm, EventSystem& events, std::uint64_t base) {
    for (int i = 0; i < 4; ++i)
      write_on_worker(dm, events, i < 2 ? 1 : 2, &cell[i], base + i);
  }
  void expect(std::uint64_t base) const {
    for (int i = 0; i < 4; ++i) EXPECT_EQ(cell[i], base + i) << "cell " << i;
  }
};

TEST(BuddyCheckpoint, BatchedCaptureAbortRestoresThePreviousGeneration) {
  // Owner 1's buddy is rank 2, owner 2's is rank 3. Rank 3 dies before
  // the second boundary, so that capture aborts after owner 1's save and
  // alloc and owner 2's save went out. The committed generation still
  // restores bitwise, and the restore frees every block: the first
  // generation's shadows and everything the aborted capture created.
  MiniCluster c(3);
  c.run([&c](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    FourCells cells;
    cells.register_all(dm);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    cells.write(dm, events, 10);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.worker_resident_entries(), 4u);
    EXPECT_EQ(ckpt.stats().snapshot_replicas, 4);
    // Three commands per owner: SnapshotSave, Alloc, RmaPut.
    EXPECT_EQ(ckpt.stats().events, 6);
    const std::size_t before_abort[] = {c.live_blocks(1), c.live_blocks(2)};

    cells.write(dm, events, 20);
    kill_and_wait(u, 3);
    EXPECT_THROW(ckpt.capture(dm, 1, live), core::WorkerDiedError);
    EXPECT_EQ(ckpt.generation(), 1u);
    EXPECT_EQ(ckpt.wave(), 0);
    // Owner 1's two shadows; owner 1's two replicas and owner 2's two
    // shadows on rank 2: parked, not lost.
    EXPECT_EQ(c.live_blocks(1), before_abort[0] + 2);
    EXPECT_EQ(c.live_blocks(2), before_abort[1] + 4);

    dm.purge_rank(3);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    cells.expect(10);
    ckpt.settle_drops();
    EXPECT_EQ(c.live_blocks(1), 0u);
    EXPECT_EQ(c.live_blocks(2), 0u);
  });
}

TEST(BuddyCheckpoint, NextCommitFreesTheAbortedCapturesShadows) {
  // Same abort as above, but the next boundary commits before any restore:
  // its drops must free every shadow the aborted capture parked, leaving
  // each survivor with exactly its Data Manager blocks plus the shadows
  // the store still references.
  MiniCluster c(3);
  c.run([&c](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    FourCells cells;
    cells.register_all(dm);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};
    const auto untracked = [&](mpi::Rank r) {
      return c.live_blocks(r) - ckpt.shadows_on(r).size();
    };

    cells.write(dm, events, 10);
    ckpt.capture(dm, 0, live);
    const std::size_t baseline[] = {untracked(1), untracked(2)};

    cells.write(dm, events, 20);
    kill_and_wait(u, 3);
    EXPECT_THROW(ckpt.capture(dm, 1, live), core::WorkerDiedError);

    const mpi::Rank survivors[] = {1, 2};
    dm.purge_rank(3);
    ckpt.capture(dm, 1, survivors);
    EXPECT_EQ(ckpt.generation(), 2u);
    ckpt.settle_drops();
    EXPECT_EQ(ckpt.stats().snapshot_drops, 6);  // the parked orphans
    EXPECT_EQ(untracked(1), baseline[0]);
    EXPECT_EQ(untracked(2), baseline[1]);

    // The new generation is whole: owner 2's replicas moved to rank 1.
    kill_and_wait(u, 2);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    cells.expect(20);
  });
}

TEST(BuddyCheckpoint, RestoreSettlesTheLastCommitsDrops) {
  // The third commit drops the first generation's shadows without waiting
  // for the acks; a restore right after it must settle them before doing
  // anything else.
  MiniCluster c(2);
  c.run([&c](DataManager& dm, EventSystem& events, mpi::Universe&) {
    FourCells cells;
    cells.register_all(dm);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};
    for (int gen = 0; gen < 3; ++gen) {
      cells.write(dm, events, 10 * (gen + 1));
      ckpt.capture(dm, gen, live);
    }
    // Generation 1: 4 shadows + 4 replicas, dropped by the third commit
    // and not yet counted — nothing has settled them.
    EXPECT_EQ(ckpt.stats().snapshot_drops, 0);

    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(ckpt.stats().snapshot_drops, 8);
    cells.expect(30);

    // The restore's own drops (generations 2 and 3) are in flight now.
    ckpt.settle_drops();
    EXPECT_EQ(ckpt.stats().snapshot_drops, 8 + 16);
    EXPECT_EQ(c.live_blocks(1), 0u);
    EXPECT_EQ(c.live_blocks(2), 0u);
  });
}

TEST(BuddyCheckpoint, RestoreFallsBackToBuddyWhenOwnerDies) {
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 7);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);

    kill_and_wait(u, 1);  // the snapshot owner dies
    dm.purge_rank(1);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 7u);  // bitwise-identical, served by the buddy replica

    // The restored entry became head-resident: another restore (or a
    // capture reusing it) no longer depends on any worker.
    EXPECT_EQ(ckpt.worker_resident_entries(), 0u);
    cell = 0;
    ckpt.restore(dm);
    EXPECT_EQ(cell, 7u);
  });
}

TEST(BuddyCheckpoint, SnapshotLostWhenEveryHolderDies) {
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 9);
    ckpt.capture(dm, 0, live);

    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    EXPECT_THROW(ckpt.restore(dm), RecoveryError);
  });
}

TEST(BuddyCheckpoint, DoubleKillFallsBackToPriorGeneration) {
  // Generation 1 snapshots value 1 (owner rank 1, buddy rank 2); the write
  // then moves to rank 3, so generation 2 snapshots value 2 with owner
  // rank 3, buddy rank 1. Killing ranks 3 AND 1 voids generation 2 — but
  // generation 1 still has a live holder (the buddy, rank 2), so restore
  // degrades one period instead of failing the launch: value 1 comes
  // back, flagged so the caller replays from the earlier boundary.
  MiniCluster c(3);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    write_on_worker(dm, events, 1, &cell, 1);
    ckpt.capture(dm, 0, live);
    write_on_worker(dm, events, 3, &cell, 2);
    ckpt.capture(dm, 1, live);
    EXPECT_EQ(ckpt.generation(), 2u);

    kill_and_wait(u, 3);  // generation 2's owner...
    kill_and_wait(u, 1);  // ...and its buddy
    dm.purge_rank(3);
    dm.purge_rank(1);
    dm.reset_all_to_host();

    ckpt.restore(dm);
    EXPECT_EQ(cell, 1u);  // the prior generation's value
    EXPECT_TRUE(ckpt.last_restore_degraded());
    EXPECT_EQ(ckpt.wave(), 0);  // caller must replay from this boundary
    EXPECT_EQ(ckpt.stats().degraded_restores, 1);
  });
}

TEST(BuddyCheckpoint, SnapshotLossNamesTheUnrecoverableBuffers) {
  // When no generation survives, the error must say exactly which buffers
  // are gone and who held them — the difference between a debuggable
  // failure report and a shrug.
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 9);
    ckpt.capture(dm, 0, live);

    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    try {
      ckpt.restore(dm);
      FAIL() << "restore with every holder dead must throw";
    } catch (const RecoveryError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unrecoverable buffers"), std::string::npos) << msg;
      EXPECT_NE(msg.find("owner=r1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("buddy=r2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("size=8"), std::string::npos) << msg;
    }
  });
}

TEST(BuddyCheckpoint, CleanEntryWithDeadHoldersIsRecaptured) {
  // A clean buffer's entry normally rides along by reference — but when
  // every holder of its shadow died, reuse would checkpoint a promise
  // nobody can keep. Capture must re-snapshot it from the current freshest
  // copy (the head, after recovery) even though the buffer is clean.
  MiniCluster c(3);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    write_on_worker(dm, events, 1, &cell, 5);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);

    // The owner (rank 1) and its buddy (rank 2) both die: the snapshot is
    // stranded...
    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    EXPECT_THROW(ckpt.restore(dm), RecoveryError);

    // ...but the next boundary self-heals: the clean entry is re-captured
    // from the head copy (which still holds 0 after reset) instead of
    // reused, and restore works again.
    const mpi::Rank survivors[] = {3};
    cell = 5;  // pretend replay regenerated the value on the head
    ckpt.capture(dm, 1, survivors);
    EXPECT_EQ(ckpt.worker_resident_entries(), 0u);
    cell = 0;
    ckpt.restore(dm);
    EXPECT_EQ(cell, 5u);
  });
}

// --- composition with the ViaHead forwarding ablation ---------------------

TEST(BuddyCheckpoint, BuddyComposesWithViaHeadForwarding) {
  const TaskBenchSpec spec = stepwise_spec(Pattern::Stencil1D);
  ClusterOptions opts = buddy_opts(3);
  opts.forwarding = core::Forwarding::ViaHead;
  opts.kills.push_back({2, 30'000'000});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
}

}  // namespace
}  // namespace ompc
