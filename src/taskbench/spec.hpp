// Task Bench workload specification (Slaughter et al., SC'20 — the
// benchmark used throughout the paper's §6).
//
// A Task Bench workload is a grid of `steps` x `width` points; the task at
// (t, i) consumes the outputs of a pattern-defined set of points at t-1 and
// produces `output_bytes` of data after `iterations` of compute. The paper
// uses four dependency patterns (Fig. 4) and controls the computation-to-
// communication ratio (CCR) by scaling the data exchanged per edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/mpi.hpp"

namespace ompc::taskbench {

/// Dependency patterns of the paper's Figure 4.
enum class Pattern : std::uint8_t {
  Trivial,    ///< no inter-task dependencies
  Stencil1D,  ///< periodic 3-point stencil: {i-1, i, i+1} mod W
  Fft,        ///< butterfly: {i, i xor 2^((t-1) mod log2 W)}
  Tree,       ///< binary fan-out: {i/2} — broadcast-tree shaped traffic
};

const char* pattern_name(Pattern p);
Pattern pattern_from_name(const std::string& name);
std::vector<Pattern> all_patterns();

/// How a task's compute cost is realized (README, "Simulation design": time
/// dilation).
enum class KernelMode : std::uint8_t {
  Busy,   ///< real arithmetic (xorshift loop), ~1 iteration per ~1.25ns
  Sleep,  ///< calibrated wait: iterations x 5 ns (paper: 10M iters = 50ms)
};

/// Paper calibration: 10M iterations == 50 ms of compute.
inline constexpr double kNsPerIteration = 5.0;

struct TaskBenchSpec {
  int steps = 16;
  int width = 16;
  Pattern pattern = Pattern::Stencil1D;
  std::int64_t iterations = 10'000;  ///< compute per task
  std::size_t output_bytes = 64;     ///< data produced per task (>= 16)
  KernelMode mode = KernelMode::Sleep;

  double task_seconds() const {
    return static_cast<double>(iterations) * kNsPerIteration / 1e9;
  }
};

/// Dependencies of point (t, i): column indices at t-1 (empty at t == 0).
std::vector<int> dependencies(const TaskBenchSpec& spec, int t, int i);

/// Consumers of point (t, i)'s output at t+1 (empty at the last step).
std::vector<int> consumers(const TaskBenchSpec& spec, int t, int i);

/// Output size per task such that one edge's transfer time equals
/// task_seconds / ccr on the given network (the paper's CCR control:
/// CCR = computation cost / communication cost).
std::size_t bytes_for_ccr(double task_seconds, double ccr,
                          const mpi::NetworkModel& net);

/// ASCII rendering of a pattern's first few steps (Fig. 4 visual check).
std::string render_pattern(Pattern p, int width, int steps);

}  // namespace ompc::taskbench
