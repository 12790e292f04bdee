// Figure 5 reproduction: execution-time scalability of the four runtimes
// over the four dependency patterns.
//
// Paper setup: nodes {2..64}, graph = (2n x 32) — width doubles with the
// node count (weak scaling) — 10M-iteration (50 ms) tasks, CCR 1.0,
// average of 10 runs. Here tasks are dilated to 5 ms (1M iterations at
// the paper's 5 ns/iteration calibration) and the network is dilated
// consistently (bench_network()); see README, "Simulation design".
//
// Expected shape: MPI < StarPU everywhere; OMPC beats Charm++ at small and
// medium node counts, then saturates and crosses over at the head-node
// in-flight ceiling (the paper sees this between 32 and 64 nodes; on the
// single-core simulation the knee lands one octave earlier because the
// head's real message-processing CPU is the shared bottleneck — see
// README, "Simulation design").
#include "bench_util.hpp"

int main() {
  using namespace ompc;
  using namespace ompc::taskbench;

  const std::vector<int> node_counts = {2, 4, 8, 16, 32, 64};
  const std::vector<std::string> runtimes = {"ompc", "charm", "starpu", "mpi"};
  const mpi::NetworkModel net = bench::bench_network();

  std::printf("=== Figure 5: execution time (s) vs nodes — weak scaling, "
              "graph 2n x 32, 5 ms tasks (dilated 50 ms), CCR 1.0, %d reps "
              "===\n",
              bench::repetitions());

  // Summary of OMPC-vs-Charm++ speedups (the paper's headline numbers).
  RunningStats speedup_per_pattern[4];

  for (Pattern pattern : all_patterns()) {
    TaskBenchSpec base;
    base.pattern = pattern;
    base.steps = 32;
    base.iterations = 1'000'000;  // 5 ms dilated task (1/10 of the paper's 50 ms)
    base.mode = KernelMode::Sleep;

    Table table({"nodes", "OMPC", "Charm++", "StarPU", "MPI"});
    for (int nodes : node_counts) {
      TaskBenchSpec spec = base;
      spec.width = 2 * nodes;
      spec.output_bytes = bytes_for_ccr(spec.task_seconds(), 1.0, net);

      std::vector<std::string> row{std::to_string(nodes)};
      double ompc_s = 0.0, charm_s = 0.0;
      for (const std::string& rt : runtimes) {
        const RunningStats s = bench::timed_runs(
            spec, [&] { return run_named(rt, spec, nodes, net); });
        row.push_back(bench::mean_pm_dev(s));
        if (rt == "ompc") ompc_s = s.mean();
        if (rt == "charm") charm_s = s.mean();
      }
      table.add_row(std::move(row));
      if (ompc_s > 0.0)
        speedup_per_pattern[static_cast<int>(pattern)].add(charm_s / ompc_s);
    }
    std::printf("\n--- Fig 5(%c): %s ---\n",
                "abcd"[static_cast<int>(pattern)], pattern_name(pattern));
    table.print(std::cout);
  }

  std::printf("\nOMPC speedup vs Charm++ (mean over node counts, paper "
              "reports Tree 2.43x / Stencil 1.64x / FFT 1.61x):\n");
  for (Pattern p : all_patterns()) {
    std::printf("  %-10s %.2fx\n", pattern_name(p),
                speedup_per_pattern[static_cast<int>(p)].mean());
  }
  return 0;
}
