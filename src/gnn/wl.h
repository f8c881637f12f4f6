#ifndef KGQ_GNN_WL_H_
#define KGQ_GNN_WL_H_

#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"
#include "util/thread_pool.h"

namespace kgq {

/// Result of 1-dimensional Weisfeiler–Lehman color refinement.
struct WlResult {
  /// Stable color per node (dense ids in discovery order).
  std::vector<uint32_t> colors;
  uint32_t num_colors = 0;
  /// Refinement rounds until the partition stabilized.
  size_t rounds = 0;
};

/// Execution knobs for WL refinement (same contract as GnnOptions: any
/// configuration returns identical colors, color ids and round count).
struct WlOptions {
  /// Thread count for the per-round signature build (the interning pass
  /// stays sequential — color ids are first-appearance order).
  ParallelOptions parallel;
};

/// 1-WL color refinement on a labeled graph (Section 4.3): the initial
/// color is the node label; each round recolors a node by its current
/// color plus the multiset of (edge label, direction, neighbor color)
/// triples over its incident edges. Stops when the partition stops
/// splitting (≤ n rounds). Neighbor signatures read the graph's
/// CsrSnapshot, built once per call.
///
/// Two nodes with equal stable colors cannot be distinguished by *any*
/// AC-GNN (Morris et al. / Xu et al., combined with Barceló et al. this
/// also bounds the logic the networks capture) — an invariant the test
/// suite checks against random networks.
WlResult WlColorRefinement(const LabeledGraph& graph, const WlOptions& opts);
inline WlResult WlColorRefinement(const LabeledGraph& graph) {
  return WlColorRefinement(graph, WlOptions{});
}

/// Canonical fingerprint of the stable color histogram. Non-isomorphic
/// graphs usually differ; 1-WL-equivalent graphs (e.g. two triangles vs
/// one hexagon, unlabeled) collide by design — that *failure* is exactly
/// the expressiveness boundary of Section 4.3.
uint64_t WlGraphFingerprint(const LabeledGraph& graph);

}  // namespace kgq

#endif  // KGQ_GNN_WL_H_
