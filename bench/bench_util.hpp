// Shared harness pieces for the figure-reproduction benches: the dilated
// cluster network, repetition handling (mean +- stddev over runs, like the
// paper's OMPC Bench tool), and result validation on every run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc::bench {

/// Repetitions per configuration (paper: 10; default 3 here to keep the
/// full suite in CI time — override with OMPC_BENCH_REPS).
inline int repetitions() {
  if (const char* env = std::getenv("OMPC_BENCH_REPS"))
    return std::max(1, std::atoi(env));
  return 3;
}

/// The benches' simulated interconnect: EDR InfiniBand dilated consistently
/// with the compute dilation (README, "Simulation design") — 20 us latency,
/// 100 MB/s per link, 8 hardware channels (VCIs).
inline mpi::NetworkModel bench_network() {
  return {20'000, 100.0e6, 8};
}

/// Runs `fn` `repetitions()` times, validates each run's checksum and
/// accumulates wall seconds.
inline RunningStats timed_runs(const taskbench::TaskBenchSpec& spec,
                               const std::function<taskbench::RunResult()>& fn) {
  const std::uint64_t expect = taskbench::expected_checksum(spec);
  RunningStats stats;
  for (int rep = 0; rep < repetitions(); ++rep) {
    const taskbench::RunResult r = fn();
    if (r.checksum != expect) {
      std::fprintf(stderr, "VALIDATION FAILED (checksum %016llx != %016llx)\n",
                   static_cast<unsigned long long>(r.checksum),
                   static_cast<unsigned long long>(expect));
      std::exit(1);
    }
    stats.add(r.wall_s);
  }
  return stats;
}

inline std::string mean_pm_dev(const RunningStats& s, int precision = 3) {
  return Table::num(s.mean(), precision) + " +- " +
         Table::num(s.stddev(), precision);
}

}  // namespace ompc::bench
