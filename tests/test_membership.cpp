// Head failover + elastic membership (§5 extension): the head's recording
// state (wave log, ownership map, checkpoint metadata) is replicated to a
// shadow worker at every wave boundary, so killing the HEAD mid-run elects
// the freshest replica holder, re-homes the control plane onto it, and
// resumes from the last committed wave — with results bitwise identical to
// a failure-free run. Workers also join (from the spare pool) and leave at
// wave boundaries while the computation runs; churn composes with buddy
// checkpointing and worker recovery. The _shm ctest rerun exercises the
// same suite over the shared-memory conduit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/serialize.hpp"
#include "common/time.hpp"
#include "core/membership.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::CheckpointLocality;
using core::ClusterOptions;
using core::RecoveryError;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::TaskBenchSpec;

// ThreadSanitizer slows the control plane (scheduling, events, elections)
// roughly an order of magnitude while sleep-based kernels keep real-time
// pace. Stretch both the task lengths and the fault-injection instants by
// the same factor so every kill still lands in the phase the test aims at
// (e.g. "after the first replication round, mid-wave").
#if defined(__SANITIZE_THREAD__)
#define OMPC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OMPC_TEST_TSAN 1
#endif
#endif
#ifdef OMPC_TEST_TSAN
constexpr std::int64_t kTimeScale = 8;
#else
constexpr std::int64_t kTimeScale = 1;
#endif

/// Fault-injection instant in ns, dilated for sanitized builds.
constexpr std::int64_t at_ms(std::int64_t ms) {
  return ms * 1'000'000 * kTimeScale;
}

ClusterOptions failover_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  o.checkpoint_locality = CheckpointLocality::Buddy;
  return o;
}

TaskBenchSpec failover_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 4;
  s.width = 8;
  s.iterations = 4'000'000 * kTimeScale;  // 20 ms sleep tasks: waves
                                          // outlive detection windows
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

// --- the election's own protocol points ---------------------------------

/// A replica payload with empty metadata and no waves: enough to make a
/// rank a candidate of generation `gen`.
void give_generation(core::ReplicaStore& replica, std::uint64_t gen) {
  ArchiveWriter w;
  w.put_blob({});
  w.put<std::uint64_t>(0);
  replica.apply(core::ReplicaStore::Update::Append, gen, w.take());
}

TEST(MembershipAgentFaults, RankKilledAtItsCandidacyReceiveStopsQuietly) {
  // The head dies, and worker 3 dies at the receive of the first candidacy
  // its agent drains — a protocol point, not a wall-clock offset. The kill
  // makes that receive throw RankKilledError on the agent thread, which
  // must end the agent quietly (escaping the thread was std::terminate)
  // while ranks 1 and 2 elect rank 2, the fresher replica.
  mpi::UniverseOptions uo;
  uo.ranks = 4;
  mpi::Universe u(uo);
  u.kill_at_recv(3, /*context=*/0, core::kElectionTag);
  core::MembershipBus bus;
  core::HeartbeatRing::Options hb;
  hb.period_ms = 5;
  hb.timeout_ms = 60;
  const std::int64_t deadline_ms = 10'000 * kTimeScale;

  std::atomic<mpi::Rank> elected{-1};
  u.run([&](mpi::RankContext& ctx) {
    const mpi::Rank me = ctx.rank();
    if (me == 0) {
      core::HeartbeatRing ring(ctx.world(), hb, nullptr);
      u.kill_rank(0, 0);
      const auto head = bus.await_new_head(0, deadline_ms);
      elected.store(head.value_or(-1));
      ring.stop();
      return;
    }
    core::ReplicaStore replica;
    if (me != 3) give_generation(replica, static_cast<std::uint64_t>(me));
    core::MembershipAgent::Options ao;
    ao.hb = hb;
    // Wide enough that both candidacies are in before either vote counts.
    ao.election_window_ms = 250 * kTimeScale;
    core::MembershipAgent agent(ctx.world(), ao, &bus, &replica);
    EXPECT_TRUE(bus.await_new_head(0, deadline_ms).has_value());
    if (me == 3) {
      const Stopwatch wait;
      while (!u.is_dead(3) && wait.elapsed_ms() < deadline_ms)
        precise_sleep_ns(1'000'000);
      EXPECT_TRUE(u.is_dead(3));
    }
    agent.stop();
  });
  EXPECT_EQ(elected.load(), 2);
}

// --- the head dies: elected successor resumes, results identical ----------

class HeadFailoverAcrossPatterns : public ::testing::TestWithParam<Pattern> {
};

TEST_P(HeadFailoverAcrossPatterns, HeadKilledMidWaveChecksumStillMatches) {
  const TaskBenchSpec spec = failover_spec(GetParam());
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(30)});  // the HEAD dies mid-wave

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec))
      << "failover run diverged on " << pattern_name(spec.pattern);
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_GE(r.stats.replication_updates, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, HeadFailoverAcrossPatterns,
                         ::testing::Values(Pattern::Trivial,
                                           Pattern::Stencil1D, Pattern::Fft,
                                           Pattern::Tree),
                         [](const auto& info) {
                           return std::string(pattern_name(info.param));
                         });

TEST(HeadFailover, HeadKilledNearLaterBoundaryStillMatches) {
  // A later kill time lands around the wave-2 boundary (capture +
  // replication in flight) rather than mid-execution — the replica must be
  // consistent wherever the cut falls.
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(130)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
}

TEST(HeadFailover, HeadAndWorkerKilledInOneWindow) {
  // The head AND a worker die a few milliseconds apart. The survivors
  // elect the shadow (rank 1, untouched); its post-adoption liveness sweep
  // picks up the worker corpse nobody reported (its ring successor was the
  // dead head), and one recovery replays around both.
  const TaskBenchSpec spec = failover_spec(Pattern::Tree);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(30)});
  opts.kills.push_back({3, at_ms(34)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.workers_lost, 1);
}

TEST(HeadFailover, HeadKilledDuringWorkerRecoveryStillMatches) {
  // Worker 2 dies first; the head dies ~70 ms later, which lands inside
  // the detection/rollback window for worker 2 on a loaded box (snapshot
  // fetches in flight). The promoted head must finish BOTH recoveries.
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({2, at_ms(30)});
  opts.kills.push_back({0, at_ms(100)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.workers_lost, 1);
}

TEST(HeadFailover, HeadAndShadowDyingTogetherIsCleanRecoveryError) {
  // The only replica holder dies with the head: no candidate can win the
  // election, so the surviving control thread must give up with a clean
  // RecoveryError once its hand-off wait times out — never a hang.
  const TaskBenchSpec spec = failover_spec(Pattern::Trivial);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({1, at_ms(30)});  // the shadow (first live worker)
  opts.kills.push_back({0, at_ms(34)});  // then the head

  EXPECT_THROW(taskbench::run_ompc_stepwise(spec, opts), RecoveryError);
}

TEST(HeadFailover, ReplicationOffMakesHeadDeathACleanError) {
  const TaskBenchSpec spec = failover_spec(Pattern::Trivial);
  ClusterOptions opts = failover_opts(2);
  opts.head_replication = false;
  opts.kills.push_back({0, at_ms(30)});

  EXPECT_THROW(taskbench::run_ompc_stepwise(spec, opts), RecoveryError);
}

TEST(HeadFailover, CountersSurviveTheHandoff) {
  // Wave/task/checkpoint counters are part of the replicated head state:
  // a run that loses its head must report the same totals as one that
  // does not (each wait_all counted exactly once, adopted not reset).
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  const ClusterOptions clean_opts = failover_opts(3);
  ClusterOptions kill_opts = clean_opts;
  kill_opts.kills.push_back({0, at_ms(30)});

  const auto clean = taskbench::run_ompc_stepwise(spec, clean_opts);
  const auto killed = taskbench::run_ompc_stepwise(spec, kill_opts);
  ASSERT_EQ(killed.checksum, expected_checksum(spec));
  EXPECT_GE(killed.stats.failovers, 1);
  EXPECT_EQ(killed.stats.waves, clean.stats.waves);
  EXPECT_EQ(killed.stats.target_tasks, clean.stats.target_tasks);
  // Checkpoint counters ride in the replicated store metadata: the killed
  // run re-captures during replay, so it can only see MORE boundaries.
  EXPECT_GE(killed.stats.checkpoints, clean.stats.checkpoints);
}

// --- elastic membership: join/leave at wave boundaries --------------------

/// buffers[0]: u64 cell. scalars: (sleep_ns). Burns sleep_ns, then += 1.
const offload::KernelId kTick =
    offload::KernelRegistry::instance().register_kernel(
        "test_membership_tick", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          precise_sleep_ns(sleep_ns);
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

/// One wave: every cell gets one tick task of `task_ns`.
void tick_wave(core::Runtime& rt, std::vector<std::uint64_t>& cells,
               std::int64_t task_ns) {
  for (std::uint64_t& c : cells) {
    core::Args args;
    args.buf(&c).scalar<std::int64_t>(task_ns);
    rt.target({omp::inout(&c)}, kTick, std::move(args),
              static_cast<double>(task_ns) * 1e-9);
  }
  rt.wait_all();
}

TEST(ElasticMembership, SpareJoinsRunsTasksAndSurvivesOwnerKill) {
  // A spare rank joins at a wave boundary, receives a slice of the
  // buffers (migrated worker->worker), executes tasks from the next HEFT
  // pass on — and then DIES. Its buffers must come back through the buddy
  // snapshot like any other owner's, so every cell still reaches kWaves.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({4, 250'000'000});  // the joiner, well after joining

  constexpr int kWaves = 16;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 2) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_GE(stats.workers_lost, 1);
}

TEST(ElasticMembership, JoinAndWorkerKillInTheSameWindowBothApply) {
  // The join request and a worker death race within one wave: whichever
  // boundary processes first, the joined rank must end up schedulable and
  // the corpse recovered around.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({2, 90'000'000});

  constexpr int kWaves = 8;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.recoveries, 1);
}

TEST(ElasticMembership, LeaveRetiresWorkerAndItCanRejoin) {
  // request_leave() drains a worker back to the spare pool at the next
  // boundary; a later request_join() hands the same rank back. Both
  // transitions happen mid-computation with correct results.
  ClusterOptions opts = failover_opts(3);

  constexpr int kWaves = 6;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_TRUE(rt.request_leave(2));
      if (w == 3) EXPECT_EQ(rt.request_join(), 2);
      tick_wave(rt, cells, 5'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_retired, 1);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_EQ(stats.recoveries, 0);
}

TEST(ElasticMembership, LeaveRefusesUnknownAndLastWorker) {
  ClusterOptions opts = failover_opts(1);
  opts.spare_workers = 1;
  std::vector<std::uint64_t> cells(2, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    EXPECT_FALSE(rt.request_leave(1));   // sole live worker
    EXPECT_FALSE(rt.request_leave(2));   // a spare, not live
    EXPECT_FALSE(rt.request_leave(99));  // nonsense
    tick_wave(rt, cells, 1'000'000);
    EXPECT_EQ(rt.request_join(), 2);
    tick_wave(rt, cells, 1'000'000);
    EXPECT_TRUE(rt.request_leave(1));  // now there are two
    tick_wave(rt, cells, 1'000'000);
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });
  for (const std::uint64_t c : cells) EXPECT_EQ(c, 3u);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_EQ(stats.workers_retired, 1);
}

TEST(ElasticMembership, ChurnSoakFiftyWaves) {
  // 50 waves of sustained join/leave churn — including retiring rank 1,
  // the replication shadow, which forces a full replica resync — with
  // buddy checkpoints at every boundary and zero failures injected.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;

  constexpr int kWaves = 50;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      switch (w) {
        case 5:
          EXPECT_EQ(rt.request_join(), 4);
          break;
        case 10:
          EXPECT_TRUE(rt.request_leave(1));  // the shadow retires
          break;
        case 20:
          EXPECT_EQ(rt.request_join(), 1);
          break;
        case 30:
          EXPECT_TRUE(rt.request_leave(2));
          break;
        case 40:
          EXPECT_TRUE(rt.request_leave(4));
          break;
        default:
          break;
      }
      tick_wave(rt, cells, 2'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 2);
  EXPECT_EQ(stats.workers_retired, 3);
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.workers_lost, 0);
}

TEST(ElasticMembership, JoinComposesWithHeadFailover) {
  // The joined worker is part of the replicated membership table: when the
  // head later dies, the promoted head must keep scheduling on it.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({0, 200'000'000});  // the head, after the join

  constexpr int kWaves = 16;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.failovers, 1);
}

}  // namespace
}  // namespace ompc
