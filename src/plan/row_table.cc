#include "plan/row_table.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

namespace kgq {
namespace {

/// One stable counting pass of the sort: a row's bucket is
/// Key(v) of its value v in projected column `col`, one of `buckets`.
struct KeyPass {
  size_t col;
  NodeId min;
  unsigned shift;
  NodeId mask;
  size_t buckets;

  size_t Key(NodeId v) const { return ((v - min) >> shift) & mask; }
};

/// Counts rows [lo, hi) of `src` (rows of `src_width` values) per
/// bucket of their value in column `col` into count[0 .. buckets).
void CountKeys(const NodeId* src, size_t src_width, size_t col, size_t lo,
               size_t hi, KeyPass pass, size_t* count) {
  std::fill_n(count, pass.buckets, size_t{0});
  for (size_t r = lo; r < hi; ++r) ++count[pass.Key(src[r * src_width + col])];
}

/// Moves rows [lo, hi) of `src` to their slots in `dst`, row r's at
/// next[bucket of r]++; each written row holds src row r's values at
/// `cols` (the identity when null).
void ScatterRows(const NodeId* src, size_t src_width, size_t col,
                 const size_t* cols, size_t lo, size_t hi, KeyPass pass,
                 size_t* next, NodeId* dst, size_t width) {
  for (size_t r = lo; r < hi; ++r) {
    const NodeId* row = src + r * src_width;
    NodeId* out = dst + next[pass.Key(row[col])]++ * width;
    if (cols == nullptr) {
      for (size_t i = 0; i < width; ++i) out[i] = row[i];
    } else {
      for (size_t i = 0; i < width; ++i) out[i] = row[cols[i]];
    }
  }
}

}  // namespace

void RowTable::Truncate(size_t rows) {
  if (rows >= size_) return;
  size_ = rows;
  data_.resize(rows * arity_);
}

RowTable SortUniqueProjection(RowTable input, const std::vector<size_t>& cols,
                              const ParallelOptions& parallel) {
  const size_t n = input.size_;
  const size_t width = cols.size();
  const size_t in_width = input.arity_;
  RowTable out(width);
  if (n == 0) return out;
  if (width == 0) {  // Every row is the empty row.
    out.size_ = 1;
    return out;
  }
  // Contiguous row chunks, at least kParallelGrain rows each; chunk k
  // is rows [k * step, (k + 1) * step).
  const size_t chunks = std::max<size_t>(
      1, std::min(parallel.ResolveThreads(), n / RowTable::kParallelGrain));
  const size_t step = (n + chunks - 1) / chunks;
  auto for_chunks = [&](auto&& body) {
    ParallelFor(
        0, chunks, 1,
        [&](size_t lo, size_t hi) {
          for (size_t k = lo; k < hi; ++k) {
            body(k, k * step, std::min(n, (k + 1) * step));
          }
        },
        parallel);
  };

  // Each projected column's [min, max], per chunk and then merged.
  std::vector<NodeId> bounds(2 * width * chunks);
  const NodeId* in = input.data_.data();
  for_chunks([&](size_t k, size_t lo, size_t hi) {
    // Up to eight columns per read of the rows, their bounds in local
    // arrays the row reads cannot alias.
    for (size_t first = 0; first < width; first += 8) {
      const size_t group = std::min<size_t>(8, width - first);
      NodeId lows[8], highs[8];
      std::fill_n(lows, group, std::numeric_limits<NodeId>::max());
      std::fill_n(highs, group, NodeId{0});
      for (size_t r = lo; r < hi; ++r) {
        const NodeId* row = in + r * in_width;
        for (size_t i = 0; i < group; ++i) {
          const NodeId v = row[cols[first + i]];
          lows[i] = std::min(lows[i], v);
          highs[i] = std::max(highs[i], v);
        }
      }
      std::copy_n(lows, group, bounds.begin() + 2 * width * k + first);
      std::copy_n(highs, group,
                  bounds.begin() + 2 * width * k + width + first);
    }
  });
  for (size_t k = 1; k < chunks; ++k) {
    for (size_t i = 0; i < 2 * width; ++i) {
      NodeId& into = bounds[i];
      const NodeId from = bounds[2 * width * k + i];
      into = i < width ? std::min(into, from) : std::max(into, from);
    }
  }

  // The passes, last column first. A constant column takes none. A
  // pass may use as many buckets as a chunk has rows (at least 256, at
  // most 2^16): a column whose range fits takes one pass over exactly
  // its range, a wider one the fewest equal digits that fit.
  const uint64_t pays = std::max<uint64_t>(256, n / chunks);
  const unsigned max_bits =
      std::min<unsigned>(16, static_cast<unsigned>(std::bit_width(pays)) - 1);
  std::vector<KeyPass> passes;
  for (size_t c = width; c-- > 0;) {
    const NodeId min = bounds[c];
    const uint64_t range = bounds[width + c] - min;
    if (range == 0) continue;
    if (range < pays && range < (uint64_t{1} << 16)) {
      passes.push_back({c, min, 0, std::numeric_limits<NodeId>::max(),
                        static_cast<size_t>(range + 1)});
      continue;
    }
    const unsigned bits = static_cast<unsigned>(std::bit_width(range));
    const unsigned digits = (bits + max_bits - 1) / max_bits;
    const unsigned digit = (bits + digits - 1) / digits;
    for (unsigned shift = 0; shift < bits; shift += digit) {
      passes.push_back({c, min, shift,
                        static_cast<NodeId>((uint64_t{1} << digit) - 1),
                        static_cast<size_t>(std::min(
                            uint64_t{1} << digit, (range >> shift) + 1))});
    }
  }
  // Until a pass has moved the rows they are the input's, read through
  // `cols`; the identity projection needs no gather at all.
  bool gathered = in_width == width;
  for (size_t i = 0; i < width && gathered; ++i) gathered = cols[i] == i;
  if (!gathered && passes.empty()) {
    passes.push_back({0, 0, 0, 0, 1});  // One bucket: a plain gather.
  }

  size_t max_buckets = 0;
  for (const KeyPass& pass : passes) {
    max_buckets = std::max(max_buckets, pass.buckets);
  }
  std::vector<size_t> offsets(chunks * max_buckets);
  RowTable::Buffer input_rows = std::move(input.data_);
  RowTable::Buffer scratch;
  RowTable::Buffer* from = &input_rows;
  RowTable::Buffer* to = &scratch;
  for (const KeyPass& pass : passes) {
    const NodeId* src = from->data();
    const size_t src_width = gathered ? width : in_width;
    const size_t key_col = gathered ? pass.col : cols[pass.col];
    // Chunk k counts its rows per bucket into offsets[k * buckets ..].
    for_chunks([&](size_t k, size_t lo, size_t hi) {
      CountKeys(src, src_width, key_col, lo, hi, pass,
                offsets.data() + k * pass.buckets);
    });
    // Bucket by bucket, chunk by chunk: each count becomes its chunk's
    // first slot in that bucket.
    size_t sum = 0;
    bool one_bucket = false;
    for (size_t d = 0; d < pass.buckets; ++d) {
      const size_t before = sum;
      for (size_t k = 0; k < chunks; ++k) {
        size_t& slot = offsets[k * pass.buckets + d];
        sum += std::exchange(slot, sum);
      }
      one_bucket = one_bucket || sum - before == n;
    }
    if (gathered && one_bucket) continue;  // The order stays as it is.
    to->resize(n * width);
    NodeId* dst = to->data();
    for_chunks([&](size_t k, size_t lo, size_t hi) {
      ScatterRows(src, src_width, key_col, gathered ? nullptr : cols.data(),
                  lo, hi, pass, offsets.data() + k * pass.buckets, dst, width);
    });
    gathered = true;
    std::swap(from, to);
  }

  // Drop duplicates, adjacent now, in place from the first one on.
  NodeId* rows = from->data();
  auto repeats = [&](size_t r, size_t of) {
    return std::equal(rows + r * width, rows + (r + 1) * width,
                      rows + of * width);
  };
  std::vector<size_t> first_repeat(chunks, n);
  for_chunks([&](size_t k, size_t lo, size_t hi) {
    for (size_t r = std::max<size_t>(lo, 1); r < hi; ++r) {
      if (repeats(r, r - 1)) {
        first_repeat[k] = r;
        break;
      }
    }
  });
  size_t kept = *std::min_element(first_repeat.begin(), first_repeat.end());
  for (size_t r = kept; r < n; ++r) {
    if (repeats(r, kept - 1)) continue;
    std::copy_n(rows + r * width, width, rows + kept * width);
    ++kept;
  }
  out.data_ = std::move(*from);
  out.data_.resize(kept * width);
  out.size_ = kept;
  return out;
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
