#include "plan/row_table.h"

#include <algorithm>
#include <array>
#include <utility>

namespace kgq {

void RowTable::Truncate(size_t rows) {
  if (rows >= size_) return;
  size_ = rows;
  data_.resize(rows * arity_);
}

void RowTable::SortUnique() {
  const size_t width = arity_;
  const size_t n = size_;
  if (n <= 1) return;
  if (width == 0) {  // Every row is the empty row.
    size_ = 1;
    return;
  }
  // One read of the rows counts every 8-bit digit of every column:
  // count[4 * c + k][d] rows hold d in byte k of column c.
  std::vector<std::array<size_t, 256>> count(4 * width);
  for (size_t r = 0; r < n; ++r) {
    const NodeId* row = data_.data() + r * width;
    for (size_t c = 0; c < width; ++c) {
      for (size_t k = 0; k < 4; ++k) {
        ++count[4 * c + k][(row[c] >> (8 * k)) & 0xFFu];
      }
    }
  }
  std::vector<NodeId> scratch(data_.size());
  const NodeId* src = data_.data();
  NodeId* dst = scratch.data();
  NodeId* other = data_.data();
  // One stable counting pass per digit, least significant first: the
  // last column's bytes, then the one before it, and so on. A digit
  // that is the same in every row (every byte above a column's largest
  // value, for one) leaves the order as it is: its pass is skipped.
  for (size_t col = width; col-- > 0;) {
    for (size_t k = 0; k < 4; ++k) {
      std::array<size_t, 256>& start = count[4 * col + k];
      const unsigned shift = 8 * k;
      if (start[(src[col] >> shift) & 0xFFu] == n) continue;
      size_t sum = 0;
      for (size_t& slot : start) sum += std::exchange(slot, sum);
      for (size_t r = 0; r < n; ++r) {
        const NodeId* row = src + r * width;
        NodeId* out = dst + start[(row[col] >> shift) & 0xFFu]++ * width;
        for (size_t c = 0; c < width; ++c) out[c] = row[c];
      }
      src = dst;
      std::swap(dst, other);
    }
  }
  // Drop duplicates — adjacent now — while the rows land in data_
  // (in place when the last pass already wrote there).
  NodeId* out = data_.data();
  size_t kept = 0;
  for (size_t r = 0; r < n; ++r) {
    const NodeId* row = src + r * width;
    if (kept > 0 && std::equal(row, row + width, out + (kept - 1) * width)) {
      continue;
    }
    if (row != out + kept * width) std::copy_n(row, width, out + kept * width);
    ++kept;
  }
  size_ = kept;
  data_.resize(kept * width);
}

RowTable::operator std::vector<std::vector<NodeId>>() const {
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    std::span<const NodeId> row = (*this)[i];
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

}  // namespace kgq
