#include "obs/quantile.h"

#include <algorithm>

namespace kgq {
namespace obs {

QuantileReservoir::QuantileReservoir(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void QuantileReservoir::Record(uint64_t sample) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (window_.size() < capacity_) {
    window_.push_back(sample);
    return;
  }
  window_[next_] = sample;
  next_ = (next_ + 1) % capacity_;
}

uint64_t QuantileReservoir::Quantile(double p) const {
  return Quantiles({p})[0];
}

std::vector<uint64_t> QuantileReservoir::Quantiles(
    const std::vector<double>& ps) const {
  std::vector<uint64_t> window = Samples();
  std::vector<uint64_t> out(ps.size(), 0);
  if (window.empty()) return out;
  // Each rank's element is what a full sort would put there.
  for (size_t i = 0; i < ps.size(); ++i) {
    auto nth = window.begin() +
               static_cast<ptrdiff_t>(RankOf(window.size(), ps[i]));
    std::nth_element(window.begin(), nth, window.end());
    out[i] = *nth;
  }
  return out;
}

uint64_t QuantileReservoir::TotalCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t QuantileReservoir::WindowSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.size();
}

std::vector<uint64_t> QuantileReservoir::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_;
}

void QuantileReservoir::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  window_.clear();
  next_ = 0;
  total_ = 0;
}

size_t QuantileReservoir::RankOf(size_t n, double p) {
  size_t idx =
      static_cast<size_t>(p * static_cast<double>(n - 1) / 100.0 + 0.5);
  return idx >= n ? n - 1 : idx;
}

uint64_t QuantileReservoir::PercentileOfSorted(
    const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[RankOf(sorted.size(), p)];
}

}  // namespace obs
}  // namespace kgq
