#ifndef KGQ_GNN_SPMM_H_
#define KGQ_GNN_SPMM_H_

#include <string>

#include "gnn/matrix.h"
#include "graph/csr_snapshot.h"
#include "util/thread_pool.h"

namespace kgq {

/// Sparse aggregation A·H — the message-passing half of an AC-GNN
/// layer: agg->row(v) += Σ features.row(u) over the edges incident to v
/// (in-edges when `incoming`, out-edges otherwise), restricted to edge
/// label `rel` ("" = every edge). Labeled relations scan one contiguous
/// label partition per node instead of filtering the full adjacency.
///
/// Determinism contract: work is parallelized over *destination* rows
/// (each row owned by one chunk), and within a row the neighbor rows
/// are added in ascending edge id — exactly the order of the node-loop
/// reference (the CsrSnapshot ordering guarantee), so the result is
/// bit-identical across backends and thread counts.
///
/// `agg` must be pre-shaped (num_nodes × features.cols()); entries are
/// accumulated into (callers usually SetZero() first). An unknown label
/// aggregates nothing.
void SpmmAggregateCsr(const CsrSnapshot& snap, const Matrix& features,
                      const std::string& rel, bool incoming, Matrix* agg,
                      const ParallelOptions& par = {});

}  // namespace kgq

#endif  // KGQ_GNN_SPMM_H_
