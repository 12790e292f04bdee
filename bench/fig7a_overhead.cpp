// Figure 7(a) reproduction: OMPC runtime overhead (startup / schedule /
// shutdown as % of wall time) vs task workload.
//
// Paper setup: 1 head + 1 worker, 1 x 16 Trivial graph (16 independent
// tasks on one node), workload from 1K iterations (~5 us dilated here) to
// 100M (500 ms; dilated to 50 ms = 10M iterations equivalent at our 1/10
// dilation). Startup = head boot (event system listening, runtime and
// failure detection up); shutdown = cluster shutdown to universe joined;
// schedule = HEFT time.
//
// Expected shape: startup+shutdown constant, so overhead % falls as tasks
// grow; < 25% by ~10 ms tasks; negligible >= 50 ms; dominant below 5 ms.
#include "bench_util.hpp"

int main() {
  using namespace ompc;
  using namespace ompc::taskbench;

  // Workloads in paper iterations; dilation 1/10 => dilated_iters = N/10.
  const std::vector<std::pair<std::string, std::int64_t>> workloads = {
      {"1K", 1'000},   {"10K", 10'000},   {"100K", 100'000},
      {"1M", 1'000'000}, {"10M", 10'000'000}, {"100M", 100'000'000}};

  std::printf("=== Figure 7(a): OMPC overhead %% of wall time — 1 worker, "
              "1x16 trivial graph, dilation 1/10, %d reps ===\n",
              bench::repetitions());

  Table table({"workload", "task(ms)", "wall(ms)", "startup%", "schedule%",
               "shutdown%", "runtime-ovh%"});

  for (const auto& [label, iters] : workloads) {
    TaskBenchSpec spec;
    spec.pattern = Pattern::Trivial;
    spec.steps = 1;
    spec.width = 16;
    spec.iterations = iters / 10;  // time dilation 1/10
    spec.output_bytes = 16;
    spec.mode = KernelMode::Sleep;

    core::ClusterOptions opts;
    opts.num_workers = 1;
    // Paper baseline: "force tasks to run on a single node and with a
    // single thread", isolating runtime overhead from task execution.
    opts.handler_threads = 1;
    opts.worker_threads = 1;
    opts.network = bench::bench_network();

    RunningStats wall, startup, schedule, shutdown;
    const std::uint64_t expect = expected_checksum(spec);
    for (int rep = 0; rep < bench::repetitions(); ++rep) {
      const RunResult r = run_ompc(spec, opts);
      if (r.checksum != expect) {
        std::fprintf(stderr, "VALIDATION FAILED\n");
        return 1;
      }
      wall.add(ns_to_ms(r.stats.wall_ns));
      startup.add(ns_to_ms(r.stats.startup_ns));
      schedule.add(ns_to_ms(r.stats.schedule_ns));
      shutdown.add(ns_to_ms(r.stats.shutdown_ns));
    }
    const double w = wall.mean();
    const double pct = 100.0 / w;
    // Total runtime overhead: wall minus the serialized ideal compute time
    // (16 tasks on one worker thread) — the paper's headline metric.
    const double compute_ms = 16.0 * spec.task_seconds() * 1e3;
    const double ovh_pct = std::max(0.0, 100.0 * (w - compute_ms) / w);
    table.add_row({label,
                   Table::num(spec.task_seconds() * 1e3, 3),
                   Table::num(w, 2),
                   Table::num(startup.mean() * pct, 1),
                   Table::num(schedule.mean() * pct, 1),
                   Table::num(shutdown.mean() * pct, 1),
                   Table::num(ovh_pct, 1)});
  }
  table.print(std::cout);
  std::printf("\n(constant startup+shutdown -> overhead %% falls with task "
              "size; paper: <25%% by 10 ms tasks, negligible >= 50 ms, "
              "dominant below 5 ms — compare task(ms) x10 for paper-scale "
              "durations)\n");
  return 0;
}
