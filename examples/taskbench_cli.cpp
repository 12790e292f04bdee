// Task Bench command line: run any dependency pattern on any runtime, the
// way the paper's OMPC Bench tool drives its experiments (§6.1).
//
// Usage:
//   taskbench_cli [--runtime ompc|mpi|starpu|charm|seq] [--pattern NAME]
//                 [--steps N] [--width N] [--nodes N] [--iters N]
//                 [--ccr X] [--busy] [--show-pattern]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/check.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace {

/// Prints the usage text and the valid pattern names; returns exit code 2.
int usage_error() {
  std::fputs(
      "usage: taskbench_cli [--runtime ompc|mpi|starpu|charm|seq] "
      "[--pattern NAME]\n"
      "                     [--steps N] [--width N] [--nodes N] [--iters N]\n"
      "                     [--ccr X] [--busy] [--show-pattern]\n"
      "patterns:",
      stderr);
  for (const auto p : ompc::taskbench::all_patterns())
    std::fprintf(stderr, " %s", ompc::taskbench::pattern_name(p));
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ompc::taskbench;

  std::string runtime = "ompc";
  TaskBenchSpec spec;
  spec.steps = 8;
  spec.width = 8;
  spec.iterations = 100'000;  // 0.5 ms per task
  int nodes = 4;
  double ccr = 0.0;
  bool show = false;

  for (int a = 1; a < argc; ++a) {
    auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : "";
    };
    if (!std::strcmp(argv[a], "--runtime")) runtime = next();
    else if (!std::strcmp(argv[a], "--pattern")) {
      const std::string name = next();
      try {
        spec.pattern = pattern_from_name(name);
      } catch (const ompc::CheckError&) {
        std::fprintf(stderr, "unknown pattern '%s'\n", name.c_str());
        return usage_error();
      }
    }
    else if (!std::strcmp(argv[a], "--steps")) spec.steps = std::atoi(next());
    else if (!std::strcmp(argv[a], "--width")) spec.width = std::atoi(next());
    else if (!std::strcmp(argv[a], "--nodes")) nodes = std::atoi(next());
    else if (!std::strcmp(argv[a], "--iters"))
      spec.iterations = std::atoll(next());
    else if (!std::strcmp(argv[a], "--ccr")) ccr = std::atof(next());
    else if (!std::strcmp(argv[a], "--busy")) spec.mode = KernelMode::Busy;
    else if (!std::strcmp(argv[a], "--show-pattern")) show = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[a]);
      return usage_error();
    }
  }

  if (show) {
    std::fputs(render_pattern(spec.pattern, std::min(spec.width, 8),
                              std::min(spec.steps, 4))
                   .c_str(),
               stdout);
    return 0;
  }

  ompc::mpi::NetworkModel net{20'000, 100.0e6, 8};  // dilated IB-ish link
  if (ccr > 0.0) spec.output_bytes = bytes_for_ccr(spec.task_seconds(), ccr, net);

  std::printf("runtime=%s pattern=%s graph=%dx%d nodes=%d task=%.2fms "
              "bytes/task=%zu\n",
              runtime.c_str(), pattern_name(spec.pattern), spec.steps,
              spec.width, nodes, spec.task_seconds() * 1e3,
              spec.output_bytes);

  const RunResult r = run_named(runtime, spec, nodes, net);
  const bool ok = r.checksum == expected_checksum(spec);
  std::printf("wall=%.3fs messages=%lld checksum=%016llx %s\n", r.wall_s,
              static_cast<long long>(r.messages),
              static_cast<unsigned long long>(r.checksum),
              ok ? "VALID" : "INVALID");
  if (runtime == "ompc") {
    std::printf("  events=%lld submits=%lld exchanges=%lld retrieves=%lld "
                "bytes=%lld sched=%.2fms makespan-est=%.3fs\n",
                static_cast<long long>(r.stats.events_originated),
                static_cast<long long>(r.stats.submits),
                static_cast<long long>(r.stats.exchanges),
                static_cast<long long>(r.stats.retrieves),
                static_cast<long long>(r.stats.bytes_moved),
                ompc::ns_to_ms(r.stats.schedule_ns),
                r.stats.makespan_estimate_s);
  }
  return ok ? 0 : 1;
}
