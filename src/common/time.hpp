// Timing utilities: a monotonic clock alias, a scope timer, and the precise
// sleep used by time-dilated task kernels.
//
// Time dilation (README, "Simulation design"): on a small machine the paper's
// multi-second compute kernels are replaced by calibrated waits, so worker
// occupancy and runtime-overhead *ratios* are preserved while the CPU stays
// available to the runtime itself. precise_sleep() therefore needs to be
// accurate to tens of microseconds: it sleeps in bulk and spins the last
// stretch.
#pragma once

#include <chrono>
#include <cstdint>

namespace ompc {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

/// Nanoseconds since an arbitrary (per-process) epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Sleeps for `ns` nanoseconds with ~10 µs accuracy: OS sleep for the bulk,
/// then a spin-wait for the tail. Returns immediately for ns <= 0.
void precise_sleep_ns(std::int64_t ns);

inline void precise_sleep(Duration d) {
  precise_sleep_ns(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Measures wall time between construction and elapsed_ns()/elapsed_ms().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }
  double elapsed_ms() const { return ns_to_ms(elapsed_ns()); }
  double elapsed_s() const { return ns_to_s(elapsed_ns()); }

 private:
  TimePoint start_;
};

}  // namespace ompc
