#ifndef KGQ_GNN_OPTIONS_H_
#define KGQ_GNN_OPTIONS_H_

#include "util/thread_pool.h"

namespace kgq {

/// How the dense half of a neural kernel computes. The two backends are
/// arithmetically identical — every output element is produced by the
/// same sequence of floating-point operations — so the choice can only
/// change speed, never a bit of the result (tests/test_gnn_differential
/// enforces this).
enum class GnnBackend {
  /// The reference: one node at a time, per-row matrix·vector products —
  /// the shape of the textbook AC-GNN definition.
  kNodeLoop,
  /// Batched: all node features at once through the blocked GEMM of
  /// gnn/matrix.h plus a whole-matrix SpMM aggregation (gnn/spmm.h).
  kGemm,
};

/// Execution knobs shared by the neural kernels (AC-GNN forward,
/// logic→GNN evaluation, GNN training forward passes). Every kernel
/// aggregates over the graph's CsrSnapshot:
///
///   CsrSnapshot snap = CsrSnapshot::FromGraph(g);  // once per graph
///   GnnOptions opts;
///   opts.parallel.num_threads = 4;         // 1 = sequential reference
///   Matrix out = *gnn.Run(snap, x, opts);  // bit-identical either way
///
/// Every backend × thread-count combination is bit-identical.
struct GnnOptions {
  GnnBackend backend = GnnBackend::kGemm;

  /// Thread count for the row-parallel phases; the usual contract
  /// (0 = hardware, 1 = calling thread only, any value bit-identical).
  ParallelOptions parallel;
};

}  // namespace kgq

#endif  // KGQ_GNN_OPTIONS_H_
