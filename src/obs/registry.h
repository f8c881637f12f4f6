#ifndef KGQ_OBS_REGISTRY_H_
#define KGQ_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"
#include "obs/json_writer.h"

namespace kgq {
namespace obs {

/// True when the layer is compiled in (the default). A `-DKGQ_OBS=OFF`
/// CMake configure drops the definition of KGQ_OBS_ENABLED and every
/// KGQ_* macro in obs.h expands to nothing; the classes below still
/// exist (direct use keeps working), only the macro call sites vanish.
#if defined(KGQ_OBS_ENABLED)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// Monotonically increasing event count. Increments are relaxed atomic
/// adds: exact under arbitrary concurrency, never a synchronization
/// point.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-observed value (e.g. "DP configs materialized by the most
/// recent Count call"). Set/Add are relaxed atomics.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram of non-negative integer samples (durations in
/// nanoseconds, frontier sizes, queue depths...).
///
/// Bucket boundaries are powers of two and are part of the public
/// contract (tests pin them): bucket 0 holds the value 0, bucket i ≥ 1
/// holds [2^(i-1), 2^i - 1]. A recorded sample costs a handful of
/// relaxed atomic adds plus two relaxed CAS loops for min/max.
class Histogram {
 public:
  /// Buckets 0..64: zero, then one per bit width.
  static constexpr size_t kNumBuckets = 65;

  /// The bucket a value lands in: 0 for 0, bit_width(v) otherwise.
  static size_t BucketIndex(uint64_t v) {
    return v == 0 ? 0 : static_cast<size_t>(64 - __builtin_clzll(v));
  }

  /// Inclusive upper bound of bucket i (0 for bucket 0, 2^i - 1 else;
  /// bucket 64 saturates at UINT64_MAX).
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~0ull;
    return (1ull << i) - 1;
  }

  /// Records `times` samples of value `v` (none when times is 0) — the
  /// same state as `times` single Record(v) calls, at the cost of one.
  void Record(uint64_t v, uint64_t times = 1) {
    if (times == 0) return;
    buckets_[BucketIndex(v)].fetch_add(times, std::memory_order_relaxed);
    count_.fetch_add(times, std::memory_order_relaxed);
    sum_.fetch_add(v * times, std::memory_order_relaxed);
    UpdateMin(v);
    UpdateMax(v);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  uint64_t Min() const {
    uint64_t m = min_.load(std::memory_order_relaxed);
    return m == ~0ull ? 0 : m;
  }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t c = Count();
    return c == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(c);
  }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  void UpdateMin(uint64_t v) {
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(uint64_t v) {
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kNumBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

/// Aggregated statistics of one span path ("analytics.pagerank", or
/// nested: "e2.delay_sweep/reach_table.build").
struct SpanStat {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> min_ns{~0ull};
  std::atomic<uint64_t> max_ns{0};
};

/// Process-wide, thread-safe home of every metric. Metric objects are
/// created on first use and are *never removed* — call sites may cache
/// the returned pointers (the KGQ_* macros do, in a function-local
/// static) and keep using them for the life of the process. Reset()
/// zeroes values but keeps the objects, so cached pointers stay valid.
///
/// Runtime switch: collection is on by default (when compiled in) and
/// controlled by SetEnabled / the KGQ_OBS environment variable
/// ("0"/"off" disables). Every macro call site checks Enabled() with
/// one relaxed atomic load before touching anything else.
///
/// Environment:
///   KGQ_OBS=0|off     start with runtime collection disabled
///   KGQ_OBS_DUMP=path write the JSON report to `path` at process exit
class Registry {
 public:
  /// The singleton (never destroyed; safe to use from atexit hooks).
  static Registry& Get();

  /// One relaxed atomic load — the entire cost of a disabled-at-runtime
  /// macro call site.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Find-or-create. Stable pointers; name is the registry key.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Records one completed span occurrence. `path` is '/'-joined from
  /// the enclosing spans of the recording thread; individual span names
  /// must not contain '/'.
  void RecordSpan(std::string_view path, uint64_t duration_ns);

  /// Snapshot accessors (0 / nullptr-style defaults when absent).
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  /// nullptr when the histogram does not exist.
  const Histogram* FindHistogram(std::string_view name) const;
  /// Number of completed occurrences of a span path (0 if never seen).
  uint64_t SpanCount(std::string_view path) const;

  /// Zeroes every metric value; keeps all objects (cached pointers stay
  /// valid). Used by tests and by benches that want per-phase reports.
  void Reset();

  /// Writes the registry as one JSON object:
  ///   {"enabled": ..., "counters": {...}, "gauges": {...},
  ///    "histograms": {...}, "spans": [...]}
  /// Span paths are exported as a tree ("children" arrays), rebuilt
  /// from the '/'-joined paths. Keys are sorted for stable diffs.
  void WriteJson(JsonWriter* w) const;

  /// Writes `{"obs": {...}}` to `out` — the standalone report shape of
  /// the KGQ_OBS_DUMP env hook.
  void WriteReport(std::ostream& out) const;

  /// WriteReport to a file; returns false when the file cannot be
  /// opened.
  bool DumpToFile(const std::string& path) const;

 private:
  Registry();

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, std::unique_ptr<SpanStat>> spans_;

  static std::atomic<bool> enabled_;
};

/// RAII trace span. Construction stamps the steady clock and pushes the
/// name onto the calling thread's span stack; destruction records the
/// duration under the '/'-joined path of all open spans on this thread,
/// giving nested (parent/child) aggregation for free. When collection
/// is disabled at construction time the span is inert (no clock read,
/// no allocation).
///
/// `name` must outlive the span (string literals in practice) and must
/// not contain '/'.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  size_t prev_len_ = 0;    // Thread path length to restore on close.
  uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace obs
}  // namespace kgq

#endif  // KGQ_OBS_REGISTRY_H_
