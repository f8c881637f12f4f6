#ifndef KGQ_PLAN_ROW_TABLE_H_
#define KGQ_PLAN_ROW_TABLE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "graph/multigraph.h"

namespace kgq {

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
  RowTable() = default;
  explicit RowTable(size_t arity) : arity_(arity) {}

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
    if (arity_ > 0) data_.insert(data_.end(), row, row + arity_);
    ++size_;
  }
  /// Appends one row of zeros and returns its arity() values to fill in.
  NodeId* NewRow() {
    data_.resize(data_.size() + arity_);
    ++size_;
    return data_.data() + (size_ - 1) * arity_;
  }
  void Reserve(size_t rows) { data_.reserve(rows * arity_); }
  /// Keeps the first `rows` rows (no-op when there are fewer).
  void Truncate(size_t rows);

  /// Sorts the rows lexicographically and removes duplicates. LSD radix
  /// sort with 8-bit digits, last column first: one read of the rows
  /// counts every digit, then each digit that varies takes one stable
  /// scatter pass. A digit that is the same in every row — each byte
  /// above a column's largest value, for one — is skipped, so a column
  /// runs only the passes its values need and small answers cost
  /// O(rows + 256) per pass, with no size threshold. Duplicates, then
  /// adjacent, are dropped in the copy that ends the sort.
  void SortUnique();

  /// The flat buffer: size() * arity() values, row-major.
  const std::vector<NodeId>& data() const { return data_; }

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
  size_t arity_ = 0;
  size_t size_ = 0;
  std::vector<NodeId> data_;
};

}  // namespace kgq

#endif  // KGQ_PLAN_ROW_TABLE_H_
