// timing.hpp — the benchmark's clocks, build guard and span recorder.
//
// Wall time is std::chrono::steady_clock.  CPU time is the whole process
// (CLOCK_PROCESS_CPUTIME_ID: every thread, the shard workers included),
// never the calling thread alone — a main-thread clock hides the worker
// lanes' work and makes a sharded round look cheaper than it is.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
inline constexpr bool kOptimized = true;
#else
inline constexpr bool kOptimized = false;
#endif

/// Seconds on the steady wall clock (arbitrary epoch).
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by every thread of this process.
inline double process_cpu_now() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds consumed by the calling thread only.
inline double thread_cpu_now() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set size of this process so far, in MB.  VmHWM rather
/// than getrusage: ru_maxrss carries the parent's peak across exec, so a
/// small program launched from a larger one would report the parent's.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB, where /proc is absent
}

/// In-memory span recorder.  A span is (name, start, end, parent); spans
/// nest by scope, and a disabled tracer records nothing.  Spans are kept
/// until the run ends and then summarised and written out.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root span
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, wall_now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = wall_now();
    stack_.pop_back();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
