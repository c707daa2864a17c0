// In-memory spans for the traced run. The benchmark opens a span around
// each call it makes into a layer's public entry point; the boot wrapper
// opens one per kernel boot from whatever thread the layer boots on. Spans
// stay in memory and are written out once, when the run ends.

#ifndef PIPEBENCH_SPANS_H_
#define PIPEBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "fuzzer/orchestrator.h"
#include "util/status.h"

namespace pipebench {

struct Span {
  int id = 0;
  int parent = -1;  ///< Enclosing span's id; -1 at the top level.
  int round = -1;   ///< Session round the span belongs to; -1 for none.
  std::string name;
  double start = 0;  ///< Seconds since the recorder was created.
  double end = 0;
};

/// Thread-safe span store. Begin/End may be called from any thread; the
/// "current" span is the driver thread's innermost open span, which
/// spans opened from worker threads (kernel boots) take as their parent.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Seconds since construction.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span under the current span and makes it current. Driver
  /// thread only.
  int Begin(const std::string& name, int round = -1);
  /// Closes `id` and makes its parent current again. Driver thread only.
  void End(int id);

  /// Records a finished span under the current span, from any thread.
  void Record(const std::string& name, double start, double end);

  /// A copy of every span recorded so far.
  std::vector<Span> Snapshot() const;

  /// Writes every span as one JSON document.
  kernelgpt::util::Status WriteJson(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int> current_{-1};
  std::atomic<int> current_round_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_; index == id.
};

/// RAII helper for SpanRecorder::Begin/End on the driver thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int round = -1)
      : rec_(rec), id_(rec->Begin(name, round)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Wraps a BootFn so every boot records a "boot" span (no-op wrapper when
/// `rec` is null).
kernelgpt::fuzzer::Orchestrator::BootFn TimedBoot(
    kernelgpt::fuzzer::Orchestrator::BootFn boot, SpanRecorder* rec);

/// Spans named `name`, optionally only those whose parent is named
/// `parent_name` ("" matches any parent).
std::vector<Span> Select(const std::vector<Span>& spans,
                         const std::string& name,
                         const std::string& parent_name = "");

/// Sum of durations.
double TotalSeconds(const std::vector<Span>& spans);

/// Durations in seconds, in recording order.
std::vector<double> Durations(const std::vector<Span>& spans);

}  // namespace pipebench

#endif  // PIPEBENCH_SPANS_H_
