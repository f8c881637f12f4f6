#ifndef KGQ_OBS_QUANTILE_H_
#define KGQ_OBS_QUANTILE_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace kgq {
namespace obs {

/// Exact quantiles over a bounded window of samples — the shared
/// percentile machinery behind `{"op":"stats"}`/`{"op":"metrics"}` and
/// the serving bench. The registry's log-bucketed histograms answer
/// "what order of magnitude"; this answers "what exactly is p99", which
/// is what latency SLOs are quoted in.
///
/// Semantics:
///  * Up to `capacity` samples are retained verbatim. Beyond that the
///    window is a ring — each new sample overwrites the oldest — so
///    quantiles track the most recent `capacity` observations with
///    bounded memory.
///  * Quantile(p) is the nearest-rank percentile over the current
///    window, using the exact formula the benches have always used
///    (PercentileOfSorted), so a bench phase and a served stats line
///    computed from the same samples agree to the byte.
///
/// Thread-safe: one mutex around the window. Recording is O(1); reading
/// copies the window once and selects each rank with nth_element (an
/// introspection surface, not a hot path).
class QuantileReservoir {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  explicit QuantileReservoir(size_t capacity = kDefaultCapacity);

  /// Adds one sample (overwriting the oldest once the window is full).
  void Record(uint64_t sample);

  /// Nearest-rank percentile of the current window; p in [0, 100].
  /// 0 when no samples have been recorded.
  uint64_t Quantile(double p) const;

  /// Quantile(p) for each p of `ps`, in order, from one copy of the
  /// window.
  std::vector<uint64_t> Quantiles(const std::vector<double>& ps) const;

  /// Samples ever recorded (including ones that have aged out).
  uint64_t TotalCount() const;
  /// Samples currently held (min(TotalCount, capacity)).
  size_t WindowSize() const;
  size_t capacity() const { return capacity_; }

  /// A copy of the current window, unsorted — the offline-recompute
  /// surface the metrics tests verify Quantile() against.
  std::vector<uint64_t> Samples() const;

  void Reset();

  /// The nearest-rank formula over an already sorted vector:
  /// index round(p/100 * (n-1)), clamped; 0 for an empty vector.
  static uint64_t PercentileOfSorted(const std::vector<uint64_t>& sorted,
                                     double p);

 private:
  /// The index PercentileOfSorted reads for p over n > 0 samples.
  static size_t RankOf(size_t n, double p);

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<uint64_t> window_;
  size_t next_ = 0;      // Ring cursor once the window is full.
  uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace kgq

#endif  // KGQ_OBS_QUANTILE_H_
