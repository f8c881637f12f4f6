#ifndef KGQ_PLAN_ROW_TABLE_H_
#define KGQ_PLAN_ROW_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "graph/multigraph.h"
#include "util/thread_pool.h"

namespace kgq {

/// std::allocator, except that a value-initialized element (what
/// std::vector::resize appends) is left uninitialized: a RowTable
/// writes every value it sizes for before reading it, so zero-filling
/// a large buffer first would be one more write of every row.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A table of fixed-width node-id rows in one flat buffer: row i is
/// data()[i * arity() .. (i + 1) * arity()). The row count is kept
/// explicitly, so zero-arity rows work — a BGP ASK answer that holds is
/// one row of no columns.
///
/// Every result that leaves the executor is a RowTable (RowSet,
/// QueryResult, serve's QueryAnswer): appending a row is one copy into
/// the buffer, copying a table is one memcpy, and a renderer reads the
/// values front to back.
class RowTable {
 public:
  /// Rows per chunk below which the row passes that take a thread
  /// budget (SortUniqueProjection, the executor's built join,
  /// RenderAnswer) run sequentially on the calling thread: a chunk
  /// never holds fewer rows than this, so a smaller table is one chunk.
  /// Each parallel pass waits for a pool thread to wake, which a chunk
  /// of this many rows outweighs.
  static constexpr size_t kParallelGrain = 32768;

  RowTable() = default;
  explicit RowTable(size_t arity) : arity_(arity) {}
  /// `rows` rows whose values are unset until written through
  /// MutableRow.
  RowTable(size_t arity, size_t rows)
      : arity_(arity), size_(rows), data_(rows * arity) {}

  size_t arity() const { return arity_; }
  /// The row count.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const NodeId> operator[](size_t i) const {
    return {data_.data() + i * arity_, arity_};
  }

  /// Appends one row of arity() values read from `row` (unread when the
  /// arity is 0).
  void Append(const NodeId* row) {
    const size_t at = data_.size();
    data_.resize(at + arity_);
    for (size_t i = 0; i < arity_; ++i) data_[at + i] = row[i];
    ++size_;
  }
  /// Appends one row of zeros and returns its arity() values to fill in.
  NodeId* NewRow() {
    data_.resize(data_.size() + arity_, NodeId{0});
    ++size_;
    return data_.data() + (size_ - 1) * arity_;
  }
  /// Row i's arity() values, writable.
  NodeId* MutableRow(size_t i) { return data_.data() + i * arity_; }
  void Reserve(size_t rows) { data_.reserve(rows * arity_); }
  /// Keeps the first `rows` rows (no-op when there are fewer).
  void Truncate(size_t rows);

  using Buffer = std::vector<NodeId, UninitializedAllocator<NodeId>>;

  /// The flat buffer: size() * arity() values, row-major.
  const Buffer& data() const { return data_; }

  /// Nested-row equality: same row count, same values in the same order.
  /// (Equal buffers of a nonzero row count imply equal arities.)
  friend bool operator==(const RowTable& a, const RowTable& b) {
    return a.size_ == b.size_ && a.data_ == b.data_;
  }

  /// Copies the rows out as one vector per row. Implicit only because
  /// kgqbench/harness/main.cc passes QueryResult::rows and RowSet::rows
  /// to its reference renderer AnswerTail(const Rows&), which takes
  /// nested rows; make it explicit (or delete it) once the harness
  /// reads a RowTable. Nothing in the library converts.
  operator std::vector<std::vector<NodeId>>() const;  // NOLINT: implicit.

 private:
  friend RowTable SortUniqueProjection(RowTable input,
                                       const std::vector<size_t>& cols,
                                       const ParallelOptions& parallel);

  size_t arity_ = 0;
  size_t size_ = 0;
  Buffer data_;
};

/// Runs body(k, lo, hi) once for every chunk k, rows [lo, hi), of
/// [0, rows) cut into RowTable::kParallelGrain rows, on `parallel`; a
/// single chunk runs on the calling thread.
template <typename Body>
void ForEachRowChunk(size_t rows, const ParallelOptions& parallel,
                     Body&& body) {
  constexpr size_t kGrain = RowTable::kParallelGrain;
  ParallelFor(
      0, (rows + kGrain - 1) / kGrain, 1,
      [&](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k) {
          body(k, k * kGrain, std::min(rows, (k + 1) * kGrain));
        }
      },
      parallel);
}

/// The rows of `input` projected onto `cols` (input column indices, in
/// output order; one may repeat), sorted lexicographically, without
/// duplicates. The result is the same at every thread count.
///
/// LSD radix sort, last projected column first, over two buffers: the
/// consumed input's and one scratch buffer, each pass reading one and
/// writing the other. The first pass that moves rows gathers the
/// projected columns as it scatters, so no separate projected copy is
/// made. A column whose values all agree takes no pass. Otherwise its
/// values are keyed by their offset from the column's minimum, and a
/// pass may use as many buckets as a chunk has rows (at least 256, at
/// most 2^16):
///  - a column whose [min, max] range fits takes one stable counting
///    pass over exactly that range;
///  - a wider one takes the fewest equal digits of its offset that fit,
///    so a small table costs O(rows + 256) per pass.
/// A digit that is the same on every row is skipped too.
///
/// Each count and scatter pass runs over contiguous row chunks, one per
/// thread of `parallel` with at least RowTable::kParallelGrain rows
/// each, and every chunk keeps its own bucket offsets: chunk k's rows of
/// a bucket land after those of chunks 0..k-1, which is the order the
/// sequential pass writes. Duplicates, then adjacent, are dropped in
/// place at the end.
RowTable SortUniqueProjection(RowTable input, const std::vector<size_t>& cols,
                              const ParallelOptions& parallel);

}  // namespace kgq

#endif  // KGQ_PLAN_ROW_TABLE_H_
