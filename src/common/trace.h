#ifndef MWSJ_COMMON_TRACE_H_
#define MWSJ_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mwsj {

/// A low-overhead span/event tracer producing Chrome `trace_event` JSON
/// (loadable in chrome://tracing or https://ui.perfetto.dev).
///
/// Design constraints, in order:
///   * near-zero cost when no tracer is attached (`TraceSpan` with a null
///     tracer is a pointer test) or when the tracer is disabled (one
///     predicted branch, no allocation);
///   * thread-safe emission without contention: every emitting thread owns
///     a private event buffer, registered once under a mutex on the
///     thread's first event and appended to lock-free afterwards — pool
///     workers recording per-chunk/per-reducer spans never share cachelines;
///   * monotonic timestamps (steady clock, microseconds since the tracer's
///     construction), so spans from different threads interleave correctly.
///
/// Spans are recorded as Chrome "B"/"E" phase-event pairs. Because a span
/// begins and ends on the same thread (RAII via `TraceSpan`), the B/E
/// events of each thread form a properly nested sequence, which is what
/// the Chrome trace format requires per `tid`.
///
/// Export (`ToJson` / `WriteJson`) must not run concurrently with
/// emission; call it after the traced run has completed.
class Tracer {
 public:
  /// A disabled tracer records nothing and exports an empty event list;
  /// it exists so benches can measure the disabled-path overhead.
  explicit Tracer(bool enabled = true);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread. Pair with EndSpan on the same
  /// thread; prefer the RAII `TraceSpan` wrapper. `name` and `category`
  /// are copied. No-op when disabled.
  void BeginSpan(std::string_view name, std::string_view category);

  /// Closes the most recently opened span of the calling thread.
  /// `args_json` is an optional JSON object *body* (no braces), e.g.
  /// `"records": 12, "cell": 3`, attached to the closing event.
  void EndSpan(std::string_view args_json = {});

  /// Total events recorded so far across all threads. Safe to call while
  /// other threads are emitting: sums each buffer's atomically published
  /// committed-event count instead of touching the (unsynchronized) event
  /// vectors. Takes the registry lock; intended for tests, not hot paths.
  int64_t event_count() const EXCLUDES(mu_);

  /// Serializes every recorded event as a Chrome trace JSON document:
  /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Deterministic for
  /// a deterministic event sequence (events grouped by tid in registration
  /// order, each thread's events in emission order).
  std::string ToJson() const EXCLUDES(mu_);

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const EXCLUDES(mu_);

 private:
  struct Event {
    char phase;  // 'B' or 'E'.
    double ts_us;
    std::string name;      // Empty for 'E' (closes the innermost span).
    std::string category;  // Empty for 'E'.
    std::string args;      // JSON object body, may be empty.
  };
  struct ThreadBuffer {
    int tid = 0;
    /// Appended only by the owning thread; read by export after quiescence.
    std::vector<Event> events;
    /// Count of fully constructed events, published with release by the
    /// owning thread after each append so event_count() can read it (with
    /// acquire) concurrently with emission.
    std::atomic<int64_t> committed{0};
  };

  ThreadBuffer* BufferForThisThread() EXCLUDES(mu_);
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const bool enabled_;
  const uint64_t id_;  // Process-unique, never reused: keys the TLS cache.
  const std::chrono::steady_clock::time_point epoch_;

  mutable Mutex mu_;  // Guards buffers_ (registration and export).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
};

/// RAII span: begins on construction, ends on destruction. Null or
/// disabled tracer makes every member a no-op, so instrumented code needs
/// no `if (tracer)` guards.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string_view name, std::string_view category)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->BeginSpan(name, category);
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now instead of at scope exit (e.g. to exclude
  /// trailing bookkeeping from the measured interval). Idempotent; AddArg
  /// after End is a no-op.
  void End() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(args_);
      tracer_ = nullptr;
    }
  }

  /// Attaches `"key": value` to the span's closing event. No-op when the
  /// span is not recording (callers can skip building expensive values by
  /// checking recording() first).
  void AddArg(std::string_view key, int64_t value);
  void AddArg(std::string_view key, double value);
  void AddArg(std::string_view key, std::string_view value);

  bool recording() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;  // Null when not recording (or after End()).
  std::string args_;
};

}  // namespace mwsj

#endif  // MWSJ_COMMON_TRACE_H_
