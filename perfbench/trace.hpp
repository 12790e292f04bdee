// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code: around its calls
// into the runtime (launch, enter, record, wait_all, teardown) and inside
// the kernels it registers. Each span carries the wave it belongs to and
// the id of the span that caused it. Tracing off costs one branch per site.
// When the run ends the spans are written as Chrome trace-event JSON and
// summarised per span name as total and self time, where self time is the
// span's duration minus the part of it that its children cover.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t wave = -1;  ///< wave index, -1 when not tied to one wave
  int lane = 0;            ///< tenant stream (0 on single-tenant workloads)
  int id = -1;
  int parent = -1;         ///< -1 for the root span
  int tid = 0;             ///< small per-thread number
};

struct SpanSummary {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool on() const noexcept { return on_; }
  void enable() noexcept { on_ = true; }

  int next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stores a finished span and returns its id (-1 when tracing is off).
  int add(Span s) {
    if (!on_) return -1;
    if (s.id < 0) s.id = next_id();
    s.tid = thread_number();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return s.id;
  }

  /// Names `span` as the parent of the kernels of wave (`lane`, `wave`).
  void set_anchor(int lane, std::int64_t wave, int span) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    anchors_[{lane, wave}] = span;
  }
  int anchor(int lane, std::int64_t wave) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = anchors_.find({lane, wave});
    return it == anchors_.end() ? -1 : it->second;
  }

  /// Sum of the durations of spans named `name` inside [from, to).
  double total_ms(const std::string& name, std::int64_t from = 0,
                  std::int64_t to = INT64_MAX) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t ns = 0;
    for (const Span& s : spans_)
      if (name == s.name && s.start_ns >= from && s.end_ns <= to)
        ns += s.end_ns - s.start_ns;
    return ompc::ns_to_ms(ns);
  }

  /// Per-name count, total and self time.
  std::map<std::string, SpanSummary> summarize() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    std::map<std::string, SpanSummary> out;
    for (const Span& s : spans_) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::int64_t covered = 0;
      if (auto it = kids.find(s.id); it != kids.end()) {
        // Union of the children's intervals, clipped to the parent: kernels
        // of one wave overlap on different workers.
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      SpanSummary& sum = out[s.name];
      ++sum.count;
      sum.total_ms += ompc::ns_to_ms(dur);
      sum.self_ms += ompc::ns_to_ms(dur - covered);
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "complete" event (ph X).
  /// `pid` separates repetitions when several files are merged.
  bool write_chrome(const std::string& path, int pid) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = INT64_MAX;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                   "\"parent\":%d,\"wave\":%lld,\"lane\":%d}}%s\n",
                   s.name, pid, s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, static_cast<long long>(s.wave), s.lane,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;

  static int thread_number() {
    static std::atomic<int> next{1};
    thread_local const int n = next.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  bool on_ = false;
  std::atomic<int> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::pair<int, std::int64_t>, int> anchors_;
};

/// Records [construction, destruction) as one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int parent, std::int64_t wave = -1,
             int lane = 0) {
    if (!Tracer::get().on()) return;
    span_.name = name;
    span_.parent = parent;
    span_.wave = wave;
    span_.lane = lane;
    span_.id = Tracer::get().next_id();
    span_.start_ns = ompc::now_ns();
  }
  ~ScopedSpan() {
    if (span_.id < 0) return;
    span_.end_ns = ompc::now_ns();
    Tracer::get().add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// -1 when tracing is off.
  int id() const noexcept { return span_.id; }

 private:
  Span span_;
};

}  // namespace perfbench
