// One repetition of one benchmark workload, driven through OMPC's public API
// (core::launch / Runtime, TenantSession, halo::run_halo3d, the Task Bench
// point kernel). perfbench/run.py runs this binary once per repetition, each
// in its own process, and aggregates the repetitions into the benchmark's
// metrics; see perfbench/README.md.
//
//   ompc_bench --workload NAME --seed N [--rep K] [--trace 0|1]
//              [--trace-out FILE] [--short] [--wrong-oracle]
//              [--inject hang|throw]
//   ompc_bench --reference --seed N [--short]
//
// Output: a {"planned_waves": N} line as soon as the repetition starts, then
// one JSON object on the last line with the repetition's raw results
// (set-up time, makespan, per-wave latencies, per-layer counters, span
// summaries). The result is checked against the workload's serial oracle;
// --wrong-oracle perturbs the oracle so the check must fail.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/runtime.hpp"
#include "halo/halo3d.hpp"
#include "minimpi/payload.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"
#include "trace.hpp"

using namespace ompc;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

constexpr int kWorkers = 4;
constexpr std::int64_t kTaskIterations = 200'000;  // 1 ms Sleep kernel

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int rep = 0;
  bool trace = false;
  std::string trace_out;
  bool short_mode = false;
  bool wrong_oracle = false;
  bool reference = false;
  std::string inject;
};

// --- kernels ---------------------------------------------------------------

/// Task Bench point with a per-task iteration count (the seeded cost
/// jitter). buffers[0] = own output, buffers[1..] = dependency inputs;
/// scalars: t, i, iterations, output bytes, wave, lane.
const offload::KernelId kPoint =
    offload::KernelRegistry::instance().register_kernel(
        "perfbench_point", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const int t = r.get<int>();
          const int i = r.get<int>();
          const auto iterations = r.get<std::int64_t>();
          const auto out_bytes = r.get<std::uint64_t>();
          const auto wave = r.get<std::int64_t>();
          const int lane = r.get<int>();
          Tracer& tr = Tracer::get();
          ScopedSpan span("kernel", tr.on() ? tr.anchor(lane, wave) : -1, wave,
                          lane);
          std::vector<std::uint64_t> ins;
          for (std::size_t b = 1; b < ctx.num_buffers(); ++b)
            ins.push_back(taskbench::read_digest(
                std::span<const std::byte>(ctx.buffer<std::byte>(b), 8)));
          taskbench::TaskBenchSpec k;
          k.mode = taskbench::KernelMode::Sleep;
          k.iterations = iterations;
          k.output_bytes = out_bytes;
          taskbench::point_compute(
              k, t, i, ins,
              std::span<std::byte>(ctx.buffer<std::byte>(0), out_bytes));
        });

std::uint64_t tick(std::uint64_t state, std::int64_t wave, std::uint64_t salt) {
  std::uint64_t z =
      state ^ (static_cast<std::uint64_t>(wave) * 0x9e3779b97f4a7c15ull + salt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// No-op dispatch kernel: advances one 8-byte state word in its 64 B
/// buffer (buffers[0]); scalars: wave, salt.
const offload::KernelId kTick =
    offload::KernelRegistry::instance().register_kernel(
        "perfbench_tick", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto wave = r.get<std::int64_t>();
          const auto salt = r.get<std::uint64_t>();
          Tracer& tr = Tracer::get();
          ScopedSpan span("kernel", tr.on() ? tr.anchor(0, wave) : -1, wave);
          auto* state = ctx.buffer<std::uint64_t>(0);
          *state = tick(*state, wave, salt);
        });

// --- measurement helpers ----------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int process_threads() {
  std::ifstream in("/proc/self/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Field 20 (num_threads), counted after the parenthesised command name.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  for (int f = 3; f <= 20 && rest >> field; ++f)
    if (f == 20) return std::atoi(field.c_str());
  return 0;
}

/// Samples the process thread count every 2 ms while alive (traced runs
/// only); the sampler's own thread is not counted.
class ThreadSampler {
 public:
  explicit ThreadSampler(bool on) {
    if (!on) return;
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        const int n = process_threads() - 1;
        if (n > peak_.load()) peak_.store(n);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~ThreadSampler() { stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  int stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return peak_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

/// Cumulative runtime counters at one instant. `head` marks a snapshot
/// taken on the head control thread, where the Runtime's plain (non-atomic)
/// counters may be read.
struct Counters {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
  // Atomics, readable from any thread.
  std::int64_t events = 0, submits = 0, retrieves = 0, exchanges = 0,
               bytes_moved = 0, persistent_reuses = 0, dm_spawns = 0,
               payload_copies = 0;
  // Head-control-thread state.
  bool head = false;
  std::int64_t waves = 0, schedule_ns = 0, cache_hits = 0,
               channels_armed = 0, replication_bytes = 0, helper_spawns = 0,
               pool_peak = 0, ck_captures = 0, ck_bytes = 0, ck_dirty = 0,
               ck_head_bytes = 0, ck_ns = 0;
  double estimate_s = 0.0;
};

Counters snapshot(core::Runtime& rt, bool head) {
  Counters c;
  c.t_ns = now_ns();
  c.cpu_s = cpu_seconds();
  c.events = rt.events().stats().originated.load();
  const core::DataManagerStats& ds = rt.data_manager().stats();
  c.submits = ds.submits.load();
  c.retrieves = ds.retrieves.load();
  c.exchanges = ds.exchanges.load();
  c.bytes_moved = ds.bytes_moved.load();
  c.persistent_reuses = ds.persistent_reuses.load();
  c.dm_spawns = ds.threads_spawned.load();
  c.payload_copies = mpi::payload_copies();
  c.head = head;
  if (!head) return c;
  rt.refresh_derived_stats();
  const core::RuntimeStats& rs = rt.stats();
  c.waves = rs.waves;
  c.schedule_ns = rs.schedule_ns;
  c.cache_hits = rs.schedule_cache_hits;
  c.channels_armed = rs.channels_armed;
  c.replication_bytes = rs.replication_bytes;
  c.helper_spawns = rs.threads_spawned;
  c.pool_peak = rs.pool_threads_peak;
  c.estimate_s = rs.makespan_estimate_s;
  const core::CheckpointStats& cks = rt.checkpoints().stats();
  c.ck_captures = cks.captures;
  c.ck_bytes = cks.bytes_captured;
  c.ck_dirty = cks.dirty_bytes;
  c.ck_head_bytes = cks.head_bytes;
  c.ck_ns = cks.capture_ns;
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Makespan of `wave_ms.size()` waves at the pace of their 10th-percentile
/// wave. Host CPU steal stalls waves by whole milliseconds and only ever
/// adds time, so the wall-clock sum and even the median wave follow it;
/// the fastest tenth of the waves does not, yet still moves with every
/// wave's cost.
double paced_makespan_s(std::vector<double> wave_ms) {
  if (wave_ms.empty()) return 0.0;
  const auto p10 =
      wave_ms.begin() + static_cast<std::ptrdiff_t>(wave_ms.size() / 10);
  std::nth_element(wave_ms.begin(), p10, wave_ms.end());
  return *p10 * static_cast<double>(wave_ms.size()) / 1e3;
}

/// Raw results of one repetition.
struct Rep {
  std::int64_t attempted = 0;  ///< waves measured
  std::int64_t failed = 0;     ///< of those, waves that failed
  std::string error;
  double setup_s = 0.0;
  double makespan_s = 0.0;  ///< see paced_makespan_s on many-wave workloads
  double elapsed_s = 0.0;   ///< wall-clock length of the timed region
  std::int64_t tasks = 0;  ///< target tasks in the timed region
  std::vector<double> wave_ms;
  std::map<std::string, double> layers;
  std::map<std::string, perfbench::SpanSummary> spans;
};

/// Per-layer counters over the timed region [a, b) of `waves` waves and
/// `tasks` target tasks. Head-thread state comes from `a`/`b` when both are
/// head snapshots, else from the launch's final `stats` (whole launch).
/// HEFT time per miss is taken over [s, b), where `s` precedes the first
/// wave of the timed shape (its miss usually falls in the warm-up).
void layer_counters(Rep& rep, const Counters& s, const Counters& a,
                    const Counters& b, const core::RuntimeStats& stats,
                    std::int64_t waves, std::int64_t tasks) {
  const double w = static_cast<double>(waves);
  const double n = static_cast<double>(tasks);
  auto& L = rep.layers;
  const double transfers = static_cast<double>(
      (b.submits - a.submits) + (b.retrieves - a.retrieves) +
      (b.exchanges - a.exchanges));
  // Universe message counts are only readable once launch() returns, so
  // this one covers the whole launch (boot, set-up and teardown included),
  // and so do the waves it is divided by.
  L["minimpi.messages_per_wave"] =
      ratio(static_cast<double>(stats.messages_sent),
            static_cast<double>(stats.waves));
  L["minimpi.bytes_per_wave"] =
      ratio(static_cast<double>(b.bytes_moved - a.bytes_moved), w);
  L["minimpi.payload_copies_per_transfer"] = ratio(
      static_cast<double>(b.payload_copies - a.payload_copies), transfers);
  L["event_system.events_per_task"] =
      ratio(static_cast<double>(b.events - a.events), n);
  L["data_manager.exchanges_per_wave"] =
      ratio(static_cast<double>(b.exchanges - a.exchanges), w);
  L["data_manager.persistent_reuses_per_wave"] = ratio(
      static_cast<double>(b.persistent_reuses - a.persistent_reuses), w);
  L["process.cpu_us_per_task"] = ratio((b.cpu_s - a.cpu_s) * 1e6, n);

  if (a.head && b.head) {
    const double hw = static_cast<double>(b.waves - a.waves);
    const double misses = static_cast<double>((b.waves - s.waves) -
                                              (b.cache_hits - s.cache_hits));
    L["heft.schedule_ms_per_miss"] =
        ratio(ns_to_ms(b.schedule_ns - s.schedule_ns), misses);
    L["heft.cache_hit_ratio"] =
        ratio(static_cast<double>(b.cache_hits - a.cache_hits), hw);
    L["runtime.channels_armed_ratio"] =
        ratio(static_cast<double>(b.channels_armed - a.channels_armed), hw);
    L["helper_pool.spawns_per_steady_wave"] = ratio(
        static_cast<double>((b.helper_spawns - a.helper_spawns) +
                            (b.dm_spawns - a.dm_spawns)),
        hw);
    L["helper_pool.threads_peak"] = static_cast<double>(b.pool_peak);
    L["checkpoint.capture_ms"] =
        ratio(ns_to_ms(b.ck_ns - a.ck_ns),
              static_cast<double>(b.ck_captures - a.ck_captures));
    L["checkpoint.dirty_ratio"] =
        ratio(static_cast<double>(b.ck_dirty - a.ck_dirty),
              static_cast<double>(b.ck_bytes - a.ck_bytes));
    L["checkpoint.head_bytes_per_wave"] =
        ratio(static_cast<double>(b.ck_head_bytes - a.ck_head_bytes), hw);
    L["membership.replication_bytes_per_wave"] = ratio(
        static_cast<double>(b.replication_bytes - a.replication_bytes), hw);
  } else {
    const double sw = static_cast<double>(stats.waves);
    const double misses = sw - static_cast<double>(stats.schedule_cache_hits);
    L["heft.schedule_ms_per_miss"] = ratio(ns_to_ms(stats.schedule_ns), misses);
    L["heft.cache_hit_ratio"] =
        ratio(static_cast<double>(stats.schedule_cache_hits), sw);
    L["runtime.channels_armed_ratio"] =
        ratio(static_cast<double>(stats.channels_armed), sw);
    L["helper_pool.spawns_per_steady_wave"] =
        ratio(static_cast<double>(stats.threads_spawned), sw);
    L["helper_pool.threads_peak"] =
        static_cast<double>(stats.pool_threads_peak);
    L["checkpoint.capture_ms"] = ratio(ns_to_ms(stats.checkpoint_ns),
                                       static_cast<double>(stats.checkpoints));
    L["checkpoint.dirty_ratio"] =
        ratio(static_cast<double>(stats.checkpoint_dirty_bytes),
              static_cast<double>(stats.checkpoint_bytes));
    L["checkpoint.head_bytes_per_wave"] =
        ratio(static_cast<double>(stats.checkpoint_head_bytes), sw);
    L["membership.replication_bytes_per_wave"] =
        ratio(static_cast<double>(stats.replication_bytes), sw);
  }
  L["tenant.admission_rejections"] =
      static_cast<double>(stats.admission_rejections);
  L.emplace("tenant.queue_wait_ms", 0.0);
}

/// Span-derived layer numbers: record/dispatch time per task and the share
/// of worker time spent inside benchmark kernels.
/// `dispatch_span` names the blocking call that covers `dispatch_tasks`.
void span_layers(Rep& rep, const char* dispatch_span,
                 std::int64_t dispatch_tasks, std::int64_t t0,
                 std::int64_t t1) {
  const Tracer& tr = Tracer::get();
  rep.layers["runtime.record_us_per_task"] = ratio(
      tr.total_ms("record", t0, t1) * 1e3, static_cast<double>(rep.tasks));
  rep.layers["runtime.dispatch_us_per_task"] =
      ratio(tr.total_ms(dispatch_span, t0, t1) * 1e3,
            static_cast<double>(dispatch_tasks));
  rep.layers["kernel.busy_frac"] = ratio(
      tr.total_ms("kernel", t0, t1), rep.elapsed_s * 1e3 * kWorkers);
}

// --- Task Bench rows --------------------------------------------------------

struct Rows {
  std::vector<std::vector<Bytes>> rows;
  explicit Rows(const taskbench::TaskBenchSpec& spec)
      : rows(2, std::vector<Bytes>(static_cast<std::size_t>(spec.width))) {
    for (auto& row : rows)
      for (auto& b : row) b.assign(spec.output_bytes, std::byte{0});
  }
  std::uint64_t checksum(const taskbench::TaskBenchSpec& spec) const {
    std::vector<std::uint64_t> d;
    for (const Bytes& b : rows[static_cast<std::size_t>((spec.steps - 1) % 2)])
      d.push_back(taskbench::read_digest(b));
    return taskbench::combine_digests(d);
  }
};

/// Records step `t` of `spec` on `rec` (a Runtime or a TenantSession).
/// `iters(t, i)` is the task's compute in iterations.
template <typename Recorder, typename Iters>
void record_step(Recorder& rec, Rows& rows,
                 const taskbench::TaskBenchSpec& spec, int t, int lane,
                 const Iters& iters) {
  auto& cur = rows.rows[static_cast<std::size_t>(t % 2)];
  auto& prev = rows.rows[static_cast<std::size_t>((t + 1) % 2)];
  for (int i = 0; i < spec.width; ++i) {
    core::Args args;
    omp::DepList deps;
    Bytes& out = cur[static_cast<std::size_t>(i)];
    args.buf(out.data());
    deps.push_back(omp::inout(out.data()));
    for (int j : taskbench::dependencies(spec, t, i)) {
      Bytes& in = prev[static_cast<std::size_t>(j)];
      args.buf(in.data());
      deps.push_back(omp::in(in.data()));
    }
    const std::int64_t cost = iters(t, i);
    args.scalar(t).scalar(i).scalar(cost)
        .scalar<std::uint64_t>(spec.output_bytes)
        .scalar<std::int64_t>(t).scalar(lane);
    rec.target(std::move(deps), kPoint, std::move(args), spec.task_seconds());
  }
}

taskbench::TaskBenchSpec fft_spec(bool short_mode) {
  taskbench::TaskBenchSpec s;
  s.pattern = taskbench::Pattern::Fft;
  s.width = 16;
  s.steps = short_mode ? 16 : 128;
  s.iterations = kTaskIterations;
  s.mode = taskbench::KernelMode::Sleep;
  s.output_bytes =
      taskbench::bytes_for_ccr(s.task_seconds(), 1.0, bench::bench_network());
  return s;
}

/// `n` task costs in iterations, uniform within +-25 % of 1 ms.
std::vector<std::int64_t> jittered_costs(XorShift64& rng, std::size_t n) {
  std::vector<std::int64_t> costs(n);
  for (auto& c : costs)
    c = static_cast<std::int64_t>(static_cast<double>(kTaskIterations) *
                                  (0.75 + 0.5 * rng.next_double()));
  return costs;
}

core::ClusterOptions base_options() {
  core::ClusterOptions o;
  o.num_workers = kWorkers;
  o.network = bench::bench_network();
  return o;
}

// --- workloads --------------------------------------------------------------

constexpr int kTenants = 3;

/// Waves in one repetition's timed region (0: unknown workload). The
/// workloads size their loops from it, and main() prints it first so that
/// a repetition that hangs is still charged its waves.
int timed_waves(const Options& a) {
  if (a.workload == "taskbench_fft") return 1;
  if (a.workload == "dispatch_waves") return a.short_mode ? 200 : 2000;
  if (a.workload == "halo3d_ft") return a.short_mode ? 30 : 300;
  if (a.workload == "tenant_mix") return kTenants * (a.short_mode ? 20 : 150);
  return 0;
}

/// One Task Bench FFT graph (no per-step barrier), 1 ms +-25 % tasks.
Rep run_fft(const Options& a) {
  const taskbench::TaskBenchSpec spec = fft_spec(a.short_mode);
  XorShift64 rng(a.seed * 0x9e3779b97f4a7c15ull + 1);
  const std::vector<std::int64_t> iters =
      jittered_costs(rng, static_cast<std::size_t>(spec.steps * spec.width));
  const auto cost = [&](int t, int i) {
    return iters[static_cast<std::size_t>(t * spec.width + i)];
  };
  std::uint64_t expect = taskbench::expected_checksum(spec);
  if (a.wrong_oracle) expect ^= 1;

  Rep rep;
  rep.attempted = 1;
  Rows rows(spec);
  Counters c0, c1;
  std::int64_t t0 = 0, t1 = 0;
  ScopedSpan root("rep", -1);
  const std::int64_t t_launch = now_ns();
  std::int64_t t_timed_end = 0;
  const auto head = [&](core::Runtime& rt) {
    Tracer::get().add({"launch", t_launch, now_ns(), -1, 0, -1, root.id()});
    {
      ScopedSpan s("enter", root.id());
      for (auto& row : rows.rows)
        for (auto& b : row) rt.enter_data(b.data(), b.size());
      rt.wait_all();
    }
    if (a.inject == "throw") throw std::runtime_error("injected failure");
    c0 = snapshot(rt, true);
    t0 = c0.t_ns;
    {
      ScopedSpan s("record", root.id(), 0);
      for (int t = 0; t < spec.steps; ++t)
        record_step(rt, rows, spec, t, 0, cost);
    }
    {
      ScopedSpan s("wait_all", root.id(), 0);
      // Kernels carry their step as the wave id; anchor every step.
      for (int t = 0; t < spec.steps; ++t)
        Tracer::get().set_anchor(0, t, s.id());
      rt.wait_all();
    }
    c1 = snapshot(rt, true);
    t1 = c1.t_ns;
    const auto final_row = static_cast<std::size_t>((spec.steps - 1) % 2);
    for (std::size_t p = 0; p < 2; ++p)
      for (auto& b : rows.rows[p]) rt.exit_data(b.data(), p == final_row);
    t_timed_end = now_ns();
  };
  const core::RuntimeStats stats = core::launch(base_options(), head);
  Tracer::get().add({"teardown", t_timed_end, now_ns(), -1, 0, -1, root.id()});

  rep.setup_s = ns_to_s(t0 - t_launch);
  rep.makespan_s = rep.elapsed_s = ns_to_s(t1 - t0);
  rep.tasks = static_cast<std::int64_t>(spec.steps) * spec.width;
  rep.wave_ms.push_back(ns_to_ms(t1 - t0));
  if (rows.checksum(spec) != expect) {
    rep.failed = 1;
    rep.error = "checksum differs from the serial oracle";
  }
  layer_counters(rep, c0, c0, c1, stats, 1, rep.tasks);
  rep.layers["heft.makespan_over_estimate"] =
      ratio(rep.makespan_s, c1.estimate_s);
  span_layers(rep, "wait_all", rep.tasks, t0, t1);
  return rep;
}

/// Identical waves of 16 independent no-op kernels on resident 64 B buffers.
Rep run_dispatch(const Options& a) {
  const int width = 16;
  const int warm = a.short_mode ? 5 : 20;
  const int waves = timed_waves(a);
  XorShift64 rng(a.seed * 0x9e3779b97f4a7c15ull + 2);
  std::vector<std::uint64_t> salt(width), init(width);
  for (int i = 0; i < width; ++i) {
    salt[static_cast<std::size_t>(i)] = rng.next();
    init[static_cast<std::size_t>(i)] = rng.next();
  }
  std::vector<Bytes> bufs(width, Bytes(64, std::byte{0}));
  for (int i = 0; i < width; ++i)
    std::memcpy(bufs[static_cast<std::size_t>(i)].data(),
                &init[static_cast<std::size_t>(i)], sizeof(std::uint64_t));

  Rep rep;
  rep.attempted = waves;
  rep.tasks = static_cast<std::int64_t>(waves) * width;
  Counters cs, c0, c1;
  std::vector<double> step_ms;  // record + wait_all of each timed wave
  ScopedSpan root("rep", -1);
  const std::int64_t t_launch = now_ns();
  std::int64_t t_timed_end = 0;
  const auto record = [&](core::Runtime& rt, std::int64_t wave) {
    for (int i = 0; i < width; ++i) {
      Bytes& b = bufs[static_cast<std::size_t>(i)];
      core::Args args;
      args.buf(b.data());
      args.scalar<std::int64_t>(wave).scalar(salt[static_cast<std::size_t>(i)]);
      rt.target({omp::inout(b.data())}, kTick, std::move(args));
    }
  };
  const auto head = [&](core::Runtime& rt) {
    Tracer::get().add({"launch", t_launch, now_ns(), -1, 0, -1, root.id()});
    {
      ScopedSpan s("enter", root.id());
      for (auto& b : bufs) rt.enter_data(b.data(), b.size());
      rt.wait_all();
    }
    cs = snapshot(rt, true);
    {
      ScopedSpan s("warmup", root.id());
      for (int w = 0; w < warm; ++w) {
        record(rt, w);
        rt.wait_all();
      }
    }
    if (a.inject == "throw") throw std::runtime_error("injected failure");
    c0 = snapshot(rt, true);
    rep.wave_ms.reserve(static_cast<std::size_t>(waves));
    step_ms.reserve(static_cast<std::size_t>(waves));
    for (int w = warm; w < warm + waves; ++w) {
      const std::int64_t step_start = now_ns();
      {
        ScopedSpan s("record", root.id(), w);
        record(rt, w);
      }
      ScopedSpan s("wait_all", root.id(), w);
      Tracer::get().set_anchor(0, w, s.id());
      const std::int64_t start = now_ns();
      rt.wait_all();
      const std::int64_t end = now_ns();
      rep.wave_ms.push_back(ns_to_ms(end - start));
      step_ms.push_back(ns_to_ms(end - step_start));
    }
    c1 = snapshot(rt, true);
    for (auto& b : bufs) rt.exit_data(b.data());
    t_timed_end = now_ns();
  };
  const core::RuntimeStats stats = core::launch(base_options(), head);
  Tracer::get().add({"teardown", t_timed_end, now_ns(), -1, 0, -1, root.id()});

  rep.setup_s = ns_to_s(c0.t_ns - t_launch);
  rep.elapsed_s = ns_to_s(c1.t_ns - c0.t_ns);
  rep.makespan_s = paced_makespan_s(step_ms);
  // Serial oracle: the same state chain on the host.
  int wrong = 0;
  for (int i = 0; i < width; ++i) {
    std::uint64_t s = init[static_cast<std::size_t>(i)];
    for (int w = 0; w < warm + waves; ++w)
      s = tick(s, w, salt[static_cast<std::size_t>(i)]);
    if (a.wrong_oracle) s ^= 1;
    std::uint64_t got = 0;
    std::memcpy(&got, bufs[static_cast<std::size_t>(i)].data(), sizeof got);
    wrong += got != s;
  }
  if (wrong > 0) {
    rep.failed = waves;  // a final-state mismatch cannot be pinned to a wave
    rep.error =
        std::to_string(wrong) + " buffers differ from the serial oracle";
  }
  layer_counters(rep, cs, c0, c1, stats, waves, rep.tasks);
  std::vector<double> sorted = rep.wave_ms;
  std::sort(sorted.begin(), sorted.end());
  rep.layers["heft.makespan_over_estimate"] =
      ratio(sorted[sorted.size() / 2] / 1e3, c1.estimate_s);
  span_layers(rep, "wait_all", rep.tasks, c0.t_ns, c1.t_ns);
  return rep;
}

/// halo3d with Buddy checkpoints at every boundary, head replication and
/// the heartbeat ring (the bench/ablation_failover configuration).
Rep run_halo(const Options& a) {
  halo::HaloSpec spec;
  spec.nx = spec.ny = spec.nz = 2;
  spec.cells = a.short_mode ? 8 : 16;
  const int warm = a.short_mode ? 3 : 5;
  const int timed = timed_waves(a);
  spec.iters = warm + timed;
  std::uint64_t expect = halo::serial_checksum(spec);
  if (a.wrong_oracle) expect ^= 1;

  core::ClusterOptions opts = base_options();
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 60;
  opts.checkpoint_period = 1;
  opts.checkpoint_locality = core::CheckpointLocality::Buddy;

  Rep rep;
  rep.attempted = timed;
  Counters cs, c0, c1;
  std::vector<std::int64_t> iter_start;
  ScopedSpan root("rep", -1);
  const std::int64_t t_launch = now_ns();
  const halo::HaloResult res = halo::run_halo3d(
      opts, spec, [&](core::Runtime& rt, int it) {
        iter_start.push_back(now_ns());
        if (it == warm && a.inject == "throw")
          throw std::runtime_error("injected failure");
        if (it == 0) cs = snapshot(rt, true);
        if (it == warm) c0 = snapshot(rt, true);
        // No hook runs after the last iteration: the counter window ends
        // where it begins, one steady iteration short.
        if (it == spec.iters - 1) c1 = snapshot(rt, true);
      });
  const std::int64_t t_end = now_ns();

  // run_halo3d records and waits inside one call per iteration, so the
  // spans here are whole iterations, rebuilt from the hook timestamps and
  // the head's per-iteration wall times.
  Tracer& tr = Tracer::get();
  if (tr.on()) {
    tr.add({"launch", t_launch, iter_start.front(), -1, 0, -1, root.id()});
    for (int it = 0; it < spec.iters; ++it) {
      const std::int64_t s = iter_start[static_cast<std::size_t>(it)];
      tr.add({it < warm ? "warmup" : "iteration", s,
              s + res.iter_ns[static_cast<std::size_t>(it)], it, 0, -1,
              root.id()});
    }
    tr.add({"teardown", iter_start.back() + res.iter_ns.back(), t_end, -1, 0,
            -1, root.id()});
  }

  rep.setup_s = ns_to_s(iter_start[static_cast<std::size_t>(warm)] - t_launch);
  std::int64_t sum = 0;
  for (int it = warm; it < spec.iters; ++it) {
    const std::int64_t ns = res.iter_ns[static_cast<std::size_t>(it)];
    sum += ns;
    rep.wave_ms.push_back(ns_to_ms(ns));
  }
  rep.elapsed_s = ns_to_s(sum);
  rep.makespan_s = paced_makespan_s(rep.wave_ms);
  rep.tasks = static_cast<std::int64_t>(timed) * 2 * spec.subdomains();
  if (res.checksum != expect) {
    rep.failed = timed;
    rep.error = "field checksum differs from the serial oracle";
  }
  const std::int64_t window = spec.iters - 1 - warm;
  layer_counters(rep, cs, c0, c1, res.stats, window,
                 window * 2 * spec.subdomains());
  std::vector<double> sorted = rep.wave_ms;
  std::sort(sorted.begin(), sorted.end());
  rep.layers["heft.makespan_over_estimate"] =
      ratio(sorted[sorted.size() / 2] / 1e3, c1.estimate_s);
  // Recording cannot be separated from the wait, and the halo kernels live
  // in the library: neither has a span of its own here.
  rep.layers["runtime.record_us_per_task"] = 0.0;
  rep.layers["runtime.dispatch_us_per_task"] =
      ratio(tr.total_ms("iteration") * 1e3, static_cast<double>(rep.tasks));
  rep.layers["kernel.busy_frac"] = 0.0;
  return rep;
}

/// Three tenants sharing the cluster through TenantSession: a closed-loop
/// latency tenant and two tenants that keep their queues full.
Rep run_tenants(const Options& a) {
  struct Plan {
    taskbench::Pattern pattern;
    int width;
    double weight;
    bool closed_loop;
  };
  const std::array<Plan, kTenants> plans = {{
      {taskbench::Pattern::Stencil1D, 2, 2.0, true},
      {taskbench::Pattern::Trivial, 10, 1.0, false},
      {taskbench::Pattern::Stencil1D, 6, 1.0, false}}};
  const int warm = 2;
  const std::size_t n = plans.size();
  const int timed = timed_waves(a) / kTenants;  // steps per tenant

  std::vector<taskbench::TaskBenchSpec> specs(n);
  std::vector<std::vector<std::int64_t>> jitter(n);
  XorShift64 rng(a.seed * 0x9e3779b97f4a7c15ull + 3);
  int width_sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    auto& s = specs[k];
    s.pattern = plans[k].pattern;
    s.width = plans[k].width;
    s.steps = warm + timed;
    s.iterations = kTaskIterations;
    s.mode = taskbench::KernelMode::Sleep;
    s.output_bytes = 1024;
    width_sum += s.width;
    jitter[k] =
        jittered_costs(rng, static_cast<std::size_t>(s.steps * s.width));
  }

  Rep rep;
  rep.attempted = static_cast<std::int64_t>(timed * n);
  rep.tasks = static_cast<std::int64_t>(timed) * width_sum;
  std::vector<std::unique_ptr<Rows>> rows;
  for (const auto& s : specs) rows.push_back(std::make_unique<Rows>(s));
  std::vector<std::int64_t> t_end(n, 0);
  std::vector<std::string> errors(n);
  std::vector<core::TenantId> ids(n);
  core::TenantStats q0, q1;
  Counters c0, c1;
  ScopedSpan root("rep", -1);
  const std::int64_t t_launch = now_ns();

  const auto head = [&](core::Runtime& rt) {
    Tracer::get().add({"launch", t_launch, now_ns(), -1, 0, -1, root.id()});
    std::vector<std::unique_ptr<core::TenantSession>> sessions;
    for (std::size_t k = 0; k < n; ++k) {
      ids[k] = rt.create_tenant(plans[k].weight);
      sessions.push_back(std::make_unique<core::TenantSession>(rt, ids[k]));
    }
    // The timed region opens when every tenant has finished its warm-up
    // waves (enter + the HEFT miss of each wave shape).
    auto open_timed = [&]() noexcept {
      c0 = snapshot(rt, false);
      q0 = rt.tenant_stats(ids[0]);
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(n), open_timed);
    std::atomic<std::size_t> finished{0};  // the last one closes the region
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n; ++k) {
      threads.emplace_back([&, k] {
        const int lane = static_cast<int>(k) + 1;
        core::TenantSession& ses = *sessions[k];
        const auto& spec = specs[k];
        Rows& r = *rows[k];
        const auto cost = [&](int t, int i) {
          return jitter[k][static_cast<std::size_t>(t * spec.width + i)];
        };
        bool arrived = false;
        try {
          {
            ScopedSpan s("enter", root.id(), -1, lane);
            for (auto& row : r.rows)
              for (auto& b : row) ses.enter_data(b.data(), b.size());
            for (int t = 0; t < warm; ++t) {
              record_step(ses, r, spec, t, lane, cost);
              ses.submit_wait();
            }
            ses.wait();
          }
          if (a.inject == "throw" && k == 0)
            throw std::runtime_error("injected failure");
          sync.arrive_and_wait();
          arrived = true;
          for (int t = warm; t < spec.steps; ++t) {
            {
              ScopedSpan s("record", root.id(), t, lane);
              record_step(ses, r, spec, t, lane, cost);
            }
            const std::int64_t start = now_ns();
            {
              ScopedSpan s("submit", root.id(), t, lane);
              Tracer::get().set_anchor(lane, t, s.id());
              // A full queue refuses the wave (an admission rejection) and
              // leaves it recorded; then block until there is room.
              try {
                ses.submit();
              } catch (const core::AdmissionError&) {
                ses.submit_wait();
              }
            }
            if (plans[k].closed_loop) {
              {
                ScopedSpan s("wait", root.id(), t, lane);
                ses.wait();
              }
              rep.wave_ms.push_back(ns_to_ms(now_ns() - start));
            }
          }
          ses.wait();
          t_end[k] = now_ns();
          if (finished.fetch_add(1) + 1 == n) c1 = snapshot(rt, false);
          if (k == 0) q1 = rt.tenant_stats(ids[0]);
          const auto final_row = static_cast<std::size_t>((spec.steps - 1) % 2);
          for (std::size_t p = 0; p < 2; ++p)
            for (auto& b : r.rows[p]) ses.exit_data(b.data(), p == final_row);
          ses.submit_wait();
          ses.wait();
        } catch (const std::exception& e) {
          errors[k] = e.what();
          if (!arrived) sync.arrive_and_drop();
        }
        ses.close();  // the serve loop ends once every session has closed
      });
    }
    std::exception_ptr serve_error;
    try {
      rt.serve_tenants();
    } catch (...) {
      serve_error = std::current_exception();
    }
    for (auto& th : threads) th.join();
    if (serve_error) std::rethrow_exception(serve_error);
  };
  const core::RuntimeStats stats = core::launch(base_options(), head);

  std::int64_t last = 0;
  for (std::int64_t t : t_end) last = std::max(last, t);
  rep.setup_s = ns_to_s(c0.t_ns - t_launch);
  rep.makespan_s = rep.elapsed_s = ns_to_s(last - c0.t_ns);
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t expect = taskbench::expected_checksum(specs[k]);
    if (a.wrong_oracle) expect ^= 1;
    if (!errors[k].empty() || rows[k]->checksum(specs[k]) != expect) {
      rep.failed += timed;
      rep.error = errors[k].empty()
                      ? "tenant " + std::to_string(k) +
                            " checksum differs from the serial oracle"
                      : errors[k];
    }
  }
  // Head-thread counters come from the whole launch (the control thread is
  // inside serve_tenants while the timed region runs).
  layer_counters(rep, c0, c0, c1, stats, rep.attempted, rep.tasks);
  // HEFT estimates are per wave, not per tenant.
  rep.layers["heft.makespan_over_estimate"] = 0.0;
  rep.layers["tenant.queue_wait_ms"] =
      ratio(ns_to_ms(q1.queue_wait_ns - q0.queue_wait_ns),
            static_cast<double>(q1.completed_waves - q0.completed_waves));
  // Dispatch here is the latency tenant's wait for its submitted wave.
  span_layers(rep, "wait", static_cast<std::int64_t>(timed) * plans[0].width,
              c0.t_ns, last);
  return rep;
}

/// Task Bench FFT reference rows for the same shape (no jitter): the
/// sequential runner and the Charm++-like runner on 4 nodes.
int run_reference(const Options& a) {
  taskbench::TaskBenchSpec spec = fft_spec(a.short_mode);
  const std::uint64_t expect = taskbench::expected_checksum(spec);
  const taskbench::RunResult seq = taskbench::run_sequential(spec);
  const taskbench::RunResult charm =
      taskbench::run_named("charm", spec, kWorkers, bench::bench_network());
  const bool ok = seq.checksum == expect && charm.checksum == expect;
  std::printf("{\"ok\": %s, \"sequential_s\": %.9g, \"charm_s\": %.9g}\n",
              ok ? "true" : "false", seq.wall_s, charm.wall_s);
  return ok ? 0 : 1;
}

// --- output -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

void print_rep(const Rep& rep, double rss_mb, int threads_peak, bool trace) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"ok\": " << (rep.failed == 0 && rep.error.empty() ? "true" : "false")
    << ", \"error\": \"" << json_escape(rep.error) << '"'
    << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
    << ", \"setup_s\": " << rep.setup_s
    << ", \"makespan_s\": " << rep.makespan_s
    << ", \"elapsed_s\": " << rep.elapsed_s << ", \"tasks\": " << rep.tasks
    << ", \"peak_rss_mb\": " << rss_mb << ", \"wave_ms\": [";
  for (std::size_t i = 0; i < rep.wave_ms.size(); ++i)
    o << (i ? ", " : "") << rep.wave_ms[i];
  o << "], \"layers\": {";
  bool first = true;
  for (const auto& [k, v] : rep.layers) {
    o << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  if (trace)
    o << (first ? "" : ", ") << "\"process.threads_peak\": " << threads_peak;
  o << "}, \"spans\": {";
  first = true;
  for (const auto& [k, s] : rep.spans) {
    o << (first ? "" : ", ") << '"' << k << "\": {\"count\": " << s.count
      << ", \"total_ms\": " << s.total_ms << ", \"self_ms\": " << s.self_ms
      << '}';
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

bool parse(int argc, char** argv, Options& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--rep") a.rep = std::stoi(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--inject") a.inject = val();
    else if (k == "--short") a.short_mode = true;
    else if (k == "--wrong-oracle") a.wrong_oracle = true;
    else if (k == "--reference") a.reference = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a.reference || !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options a;
  try {
    if (!parse(argc, argv, a))
      throw std::invalid_argument("--workload is required");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ompc_bench: %s\n", e.what());
    return 2;
  }
  if (a.reference) return run_reference(a);
  const std::int64_t planned = timed_waves(a);
  if (planned == 0) {
    std::fprintf(stderr, "ompc_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("{\"planned_waves\": %lld}\n", static_cast<long long>(planned));
  std::fflush(stdout);
  if (a.inject == "hang")
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));

  if (a.trace) Tracer::get().enable();
  ThreadSampler sampler(a.trace);
  Rep rep;
  try {
    if (a.workload == "taskbench_fft") rep = run_fft(a);
    else if (a.workload == "dispatch_waves") rep = run_dispatch(a);
    else if (a.workload == "halo3d_ft") rep = run_halo(a);
    else rep = run_tenants(a);
  } catch (const std::exception& e) {
    rep = Rep{};
    rep.attempted = planned;
    rep.failed = planned;
    rep.error = e.what();
  }
  const int threads_peak = sampler.stop();
  if (a.trace) {
    rep.spans = Tracer::get().summarize();
    if (!a.trace_out.empty() && !Tracer::get().write_chrome(a.trace_out, a.rep))
      std::fprintf(stderr, "ompc_bench: cannot write %s\n",
                   a.trace_out.c_str());
  }
  print_rep(rep, peak_rss_mb(), threads_peak, a.trace);
  return rep.failed == 0 && rep.error.empty() ? 0 : 1;
}
