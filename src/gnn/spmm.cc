#include "gnn/spmm.h"

#include <optional>

#include "obs/obs.h"

namespace kgq {

namespace {

/// Destination-row tile of the parallel scatter; boundaries depend only
/// on the node count.
constexpr size_t kRowTile = 32;

inline void AddRow(const double* src, double* dst, size_t cols) {
  for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
}

}  // namespace

void SpmmAggregateCsr(const CsrSnapshot& snap, const Matrix& features,
                      const std::string& rel, bool incoming, Matrix* agg,
                      const ParallelOptions& par) {
  KGQ_COUNTER_ADD("gnn.spmm.rows", snap.num_nodes());
  std::optional<LabelId> want =
      rel.empty() ? std::nullopt : snap.FindLabel(rel);
  if (!rel.empty() && !want.has_value()) return;
  const size_t cols = features.cols();
  ParallelFor(
      0, snap.num_nodes(), kRowTile,
      [&](size_t lo, size_t hi) {
        size_t nnz = 0;
        for (NodeId v = lo; v < hi; ++v) {
          CsrSnapshot::Span span =
              want.has_value()
                  ? (incoming ? snap.InForLabel(v, *want)
                              : snap.OutForLabel(v, *want))
                  : (incoming ? snap.In(v) : snap.Out(v));
          double* dst = agg->row(v);
          for (const CsrSnapshot::Entry& a : span) {
            AddRow(features.row(a.neighbor), dst, cols);
          }
          nnz += span.size();
        }
        KGQ_COUNTER_ADD("gnn.spmm.nnz", nnz);
      },
      par);
}

}  // namespace kgq
