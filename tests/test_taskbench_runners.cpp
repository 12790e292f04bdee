// Cross-runtime Task Bench validation: every runner (OMPC, MPI, StarPU-
// like, Charm-like) must reproduce the sequential reference checksum for
// every dependency pattern — this exercises the full stack end to end
// (matching, network, events, data manager, scheduler, baselines).
#include <gtest/gtest.h>

#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc::taskbench {
namespace {

TaskBenchSpec tiny_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 6;
  s.width = 8;
  s.iterations = 0;  // no compute burn: validation only
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

mpi::NetworkModel instant() { return {}; }

class RunnerEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Pattern, int>> {
};

TEST_P(RunnerEquivalence, ChecksumMatchesReference) {
  const auto& [runtime, pattern, nodes] = GetParam();
  const TaskBenchSpec spec = tiny_spec(pattern);
  const std::uint64_t expect = expected_checksum(spec);

  const RunResult r = run_named(runtime, spec, nodes, instant());
  EXPECT_EQ(r.checksum, expect)
      << runtime << " diverged on " << pattern_name(pattern) << " with "
      << nodes << " nodes";
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimesPatternsNodes, RunnerEquivalence,
    ::testing::Combine(
        ::testing::Values("ompc", "mpi", "starpu", "charm"),
        ::testing::Values(Pattern::Trivial, Pattern::Stencil1D, Pattern::Fft,
                          Pattern::Tree),
        ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             pattern_name(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RunnerEquivalence, SequentialMatchesItself) {
  for (Pattern p : all_patterns()) {
    const TaskBenchSpec spec = tiny_spec(p);
    EXPECT_EQ(run_sequential(spec).checksum, expected_checksum(spec));
  }
}

TEST(RunnerEquivalence, WiderGraphUnderSimulatedNetwork) {
  // Non-instant network: exercises the delivery engine + link serialization
  // under every runner. Kept small so wire time stays in milliseconds.
  mpi::NetworkModel net{5'000, 2.0e9, 4};  // 5 us latency, 2 GB/s
  TaskBenchSpec spec = tiny_spec(Pattern::Stencil1D);
  spec.width = 16;
  spec.steps = 8;
  const std::uint64_t expect = expected_checksum(spec);
  for (const char* rt : {"ompc", "mpi", "starpu", "charm"}) {
    EXPECT_EQ(run_named(rt, spec, 4, net).checksum, expect) << rt;
  }
}

TEST(LaunchAtScale, SixtyFourWorkersMatchTheSerialOracle) {
  // 64 workers + the head: the cluster boots, runs a small stencil to the
  // oracle's checksum and shuts down. Nothing caps the rank count.
  TaskBenchSpec spec = tiny_spec(Pattern::Stencil1D);
  spec.width = 64;
  spec.steps = 4;
  core::ClusterOptions opts;
  opts.num_workers = 64;
  opts.network = instant();
  const RunResult r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
}

}  // namespace
}  // namespace ompc::taskbench
