#ifndef KGQ_ANALYTICS_PAGERANK_H_
#define KGQ_ANALYTICS_PAGERANK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "util/thread_pool.h"

namespace kgq {

/// Parameters of the power iteration.
struct PageRankOptions {
  double damping = 0.85;
  size_t max_iterations = 100;
  double tolerance = 1e-10;  ///< L1 change threshold for early stop.
  /// Thread budget for the block-parallel iterations. Each iteration
  /// pulls over in-edges (race-free) and reduces the dangling mass and
  /// the L1 delta with a deterministic tree, so results are identical
  /// for every thread count.
  ParallelOptions parallel;
};

/// PageRank by power iteration with uniform teleport; dangling mass is
/// redistributed uniformly. Scores sum to 1. Each node gathers over its
/// CSR in view, in ascending edge id.
std::vector<double> PageRank(const CsrSnapshot& g,
                             const PageRankOptions& opts = {});

/// Fixed-point scale of the integer PageRank lattice: ranks are
/// integers in units of 2^-40 of the total probability mass.
inline constexpr int64_t kPageRankScale = int64_t{1} << 40;

/// Result of the integer fixed-point PageRank (the serving layer's
/// epoch-deterministic variant).
struct PageRankFixpoint {
  /// The least fixpoint of the floor-rounded update, at kPageRankScale.
  /// A canonical value: it depends only on the graph, not on the start
  /// vector, iteration schedule, or thread count.
  std::vector<int64_t> rank;
  size_t iterations = 0;  ///< update sweeps until the fixpoint held still
  bool warm = false;      ///< true iff the warm path produced the result
};

/// Integer PageRank as a monotone lattice map: one sweep computes
///
///   F(x)[v] = floor(15*S/(100n)) + floor(85*dangling(x)/(100n))
///           + sum over in-edges (u,v) of floor(85*x[u] / (100*outdeg(u)))
///
/// with S = kPageRankScale and every intermediate in 128-bit integers.
/// F is monotone, so Kleene iteration from 0 terminates at the least
/// fixpoint — the canonical per-graph value both entry points return.
/// Integer sums are associative, so the result is bit-identical for
/// every ParallelOptions thread count.
PageRankFixpoint PageRankFixpointCold(const CsrSnapshot& csr,
                                      const ParallelOptions& par = {});

/// Warm restart from a previous epoch's fixpoint. Computes a provable
/// per-node damage bound D (the fixpoint of a ceil-rounded system
/// seeded by the deleted edges, out-degree increases, and node-count
/// growth), starts from max(0, prev_rank - D) — a guaranteed lower
/// bound of the new fixpoint — and join-ascends x = max(x, F(x)), which
/// by Knaster–Tarski terminates at exactly the least fixpoint
/// PageRankFixpointCold(csr) returns.
///
/// `prev` / `prev_rank` are the previous epoch's graph and fixpoint;
/// `deleted_edges` lists the (from, to) pairs of edges present in
/// `prev` but not in `csr`, one entry per deleted edge instance
/// (parallel edges each count). If the damage fixpoint fails to
/// converge within its round cap the call falls back to the cold sweep
/// (result.warm = false).
PageRankFixpoint PageRankFixpointWarm(
    const CsrSnapshot& prev, const std::vector<int64_t>& prev_rank,
    const CsrSnapshot& csr,
    const std::vector<std::pair<NodeId, NodeId>>& deleted_edges,
    const ParallelOptions& par = {});

/// Hub and authority scores (Kleinberg's HITS), L2-normalized.
struct HitsScores {
  std::vector<double> hub;
  std::vector<double> authority;
};
HitsScores Hits(const CsrSnapshot& g, size_t iterations = 50);

}  // namespace kgq

#endif  // KGQ_ANALYTICS_PAGERANK_H_
