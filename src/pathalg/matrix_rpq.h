#ifndef KGQ_PATHALG_MATRIX_RPQ_H_
#define KGQ_PATHALG_MATRIX_RPQ_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/csr_snapshot.h"
#include "pathalg/options.h"
#include "rpq/path_nfa.h"
#include "util/bitset.h"
#include "util/thread_pool.h"

namespace kgq {

/// Linear-algebra RPQ backend: regular-path evaluation as boolean
/// sparse matrix products over per-label adjacency matrices crossed
/// with the NFA — the LAGraph-style engine. Two layers:
///
///  * a boolean-semiring SpGEMM/SpMV kernel over CSR matrices with
///    complement masking (generalized from the gnn/spmm aggregation:
///    the semiring is (∨, ∧) instead of (+, ×), and an optional mask
///    drops output entries already present in a "visited" matrix);
///  * an RPQ evaluator running the product-graph fixpoint: one frontier
///    bit-matrix per automaton state, advanced by one masked product
///    per NFA transition per iteration, so multi-source reachability
///    costs one SpGEMM sweep per frontier generation instead of one
///    BFS per source — and 64 sources share every word-level OR.
///
/// Both entry points are bit-identical to the PathNfa configuration-BFS
/// engine (pairs.cc); tests/test_regex_fuzz.cc runs the five-way
/// differential (reference / Glushkov / Thompson / CSR-NFA / matrix)
/// and tests/test_matrix_rpq.cc pins the kernel goldens.
///
/// obs: counters matrix_rpq.spgemm.entries (adjacency entries scanned —
/// the nnz traffic) and matrix_rpq.spgemm.word_ops (64-bit OR/AND-NOT
/// ops — the boolean flops); histogram matrix_rpq.fixpoint_iterations;
/// spans matrix_rpq.eval and matrix_rpq.reach_table.

// ---------------------------------------------------------------------
// Boolean sparse matrix (CSR) + semiring kernels

/// A boolean sparse matrix in CSR form: per row, a strictly ascending
/// run of column indices; every stored entry is `true`. The canonical
/// (sorted, deduplicated) form makes equality bitwise.
struct BoolCsr {
  size_t num_rows = 0;
  size_t num_cols = 0;
  std::vector<size_t> offsets;   ///< num_rows + 1 row boundaries.
  std::vector<uint32_t> cols;    ///< Ascending within each row.

  /// Builds from an (unordered, possibly duplicated) entry list.
  static BoolCsr FromEntries(size_t rows, size_t cols,
                             std::vector<std::pair<uint32_t, uint32_t>> es);

  /// The n×n identity (the length-0 path relation).
  static BoolCsr Identity(size_t n);

  /// Extracts one label's adjacency matrix from a snapshot: entry
  /// (u, v) iff some edge u→v carries `label` (transposed: v→u rows).
  /// A label absent from the snapshot yields the empty matrix.
  static BoolCsr FromSnapshotLabel(const CsrSnapshot& snap, LabelId label,
                                   bool transpose = false);

  size_t nnz() const { return cols.size(); }
  bool Test(size_t r, size_t c) const;
  bool operator==(const BoolCsr&) const = default;
};

/// One label's adjacency matrix by *spelling*: FindLabel +
/// FromSnapshotLabel, or the n×n empty matrix when no edge carries the
/// label. The shared per-label constructor used by the matrix RPQ
/// engine, the CFPQ fixpoint (pathalg/cfpq_matrix.h) and the serve
/// layer's closure views (serve/view_cache.cc).
BoolCsr BoolCsrForLabel(const CsrSnapshot& snap, std::string_view label,
                        bool transpose = false);

/// C = A ×_bool B over the (∨, ∧) semiring: C(i, j) ⟺ ∃k A(i, k) ∧
/// B(k, j). With `complement_mask`, entries present in the mask are
/// dropped from C (the ⟨C, ¬M⟩ masked product the fixpoint uses to keep
/// only unvisited configurations). Gustavson's algorithm with a bitmap
/// accumulator, parallel over output rows; the sorted-CSR output is
/// schedule-independent.
BoolCsr BoolSpGemm(const BoolCsr& a, const BoolCsr& b,
                   const BoolCsr* complement_mask = nullptr,
                   const ParallelOptions& par = {});

/// y = A ×_bool x: y(i) ⟺ ∃k A(i, k) ∧ x(k), minus the bits of
/// `complement_mask` when given. x.size() must equal a.num_cols.
Bitset BoolSpMv(const BoolCsr& a, const Bitset& x,
                const Bitset* complement_mask = nullptr);

/// The delta-SpGEMM step of incremental transitive-closure maintenance:
/// (frontier ×_bool adj) \ visited — the configurations reached by
/// extending only the *new* facts one step, minus everything already
/// known. Iterating Δ' = BoolSpGemmDelta(Δ, A, R); R ∪= Δ' from the
/// frontier of inserted facts converges to the same closure a
/// from-scratch fixpoint computes, touching only rows the delta can
/// still grow. obs: counter matrix_rpq.spgemm.delta_rows tallies the
/// nonempty frontier rows each call expands.
BoolCsr BoolSpGemmDelta(const BoolCsr& frontier, const BoolCsr& adj,
                        const BoolCsr& visited,
                        const ParallelOptions& par = {});

/// C = A ∨ B elementwise (same shape). Canonical-CSR output, linear
/// merge per row.
BoolCsr BoolUnion(const BoolCsr& a, const BoolCsr& b);

// ---------------------------------------------------------------------
// Dense bit-matrix (the frontier representation)

/// Row-major dense boolean matrix packed 64 columns per word — the
/// frontier/visited representation of the fixpoint: rows are graph
/// nodes, columns are sources, so one word-level OR advances 64 source
/// searches at once.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        words_(rows * words_per_row_, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t words_per_row() const { return words_per_row_; }

  bool Test(size_t r, size_t c) const {
    return (Row(r)[c >> 6] >> (c & 63)) & 1u;
  }
  void Set(size_t r, size_t c) { Row(r)[c >> 6] |= 1ull << (c & 63); }

  uint64_t* Row(size_t r) { return words_.data() + r * words_per_row_; }
  const uint64_t* Row(size_t r) const {
    return words_.data() + r * words_per_row_;
  }

  bool RowAny(size_t r) const;
  void ZeroRow(size_t r);
  void ZeroAll();

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

// ---------------------------------------------------------------------
// Product-graph fixpoint evaluator

/// Multi-source existential reachability on the matrix engine, as a
/// sources × nodes relation: row i holds, ascending, the nodes
/// reachable from sources[i] via some conforming path — row for row
/// the targets of ReachableFrom(nfa, sources[i], opts). `opts.engine`
/// is ignored (this *is* the matrix engine); start/end/avoid are
/// honored. The frontiers stay nodes × sources bits per automaton
/// state; the result is sized by its pairs. The per-label partitions
/// of the compiled view's CSR are the operands of the products.
BoolCsr MatrixPairRelation(const PathNfa& nfa,
                           const std::vector<NodeId>& sources,
                           const PathQueryOptions& opts = {});

/// MatrixPairRelation as one Bitset of num_nodes bits per source.
std::vector<Bitset> MatrixReachFromAll(const PathNfa& nfa,
                                       const std::vector<NodeId>& sources,
                                       const PathQueryOptions& opts = {});

/// Single-source convenience (a 1-row MatrixReachFromAll).
Bitset MatrixReachableFrom(const PathNfa& nfa, NodeId start,
                           const PathQueryOptions& opts = {});

/// All-pairs on the matrix engine: result[a] = ReachableFrom(a), every
/// node a source — the bulk workload the engine exists for.
std::vector<Bitset> MatrixAllPairs(const PathNfa& nfa,
                                   const PathQueryOptions& opts = {});

/// Matrix construction of the backward ReachTable layers: fills `table`
/// (size (max_len+1) · num_nodes, layer-major — the ReachTable layout)
/// with masks bit-identical to the scalar per-step construction. Layer
/// j is one product sweep over layer j-1 per NFA transition instead of
/// a per-node step scan.
void MatrixReachTableLayers(const PathNfa& nfa, size_t max_len,
                            const PathQueryOptions& opts,
                            std::vector<PathNfa::StateMask>* table);

}  // namespace kgq

#endif  // KGQ_PATHALG_MATRIX_RPQ_H_
