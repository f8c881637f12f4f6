#ifndef KGQ_ANALYTICS_BETWEENNESS_H_
#define KGQ_ANALYTICS_BETWEENNESS_H_

#include <vector>

#include "analytics/shortest_paths.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "pathalg/fpras.h"
#include "rpq/regex.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgq {

/// Classical betweenness centrality (Freeman):
///   bc(x) = Σ_{a≠x, b≠x} |S_{a,b}(x)| / |S_{a,b}|
/// over all ordered pairs with S_{a,b} ≠ ∅, computed with Brandes'
/// dependency-accumulation algorithm in O(nm) over the CSR adjacency.
/// Source-parallel: each thread accumulates dependencies into a private
/// vector and partials are merged in a fixed order, so the result is
/// identical for every thread count.
std::vector<double> BetweennessCentrality(const CsrSnapshot& g,
                                          EdgeDirection dir,
                                          const ParallelOptions& par = {});

/// Brandes-style pivot sampling: run the dependency accumulation from
/// `num_pivots` random sources only and scale by n/num_pivots — the
/// classic scalable approximation (Brandes–Pich). Converges to
/// BetweennessCentrality as num_pivots → n. Pivots are drawn up front
/// from `rng`, then processed source-parallel: a fixed seed reproduces
/// bit-identically at any thread count.
std::vector<double> ApproxBetweennessCentrality(
    const CsrSnapshot& g, EdgeDirection dir, size_t num_pivots, Rng* rng,
    const ParallelOptions& par = {});

/// Knobs for the regex-constrained centrality computations.
struct BcrOptions {
  /// Pairs (a, b) with no conforming path within this many hops are
  /// treated as unconnected.
  size_t max_path_length = 16;
  /// Approximate variant only: fraction of ordered pairs sampled
  /// (results are scaled by the inverse); 1.0 = all pairs.
  double pair_fraction = 1.0;
  /// Approximate variant only: FPRAS budgets for the path counts.
  FprasOptions fpras;
  /// Thread budget for the source-parallel sweep. Exact bc_r is
  /// bit-identical at every thread count; the approximate variant is
  /// bit-identical at every thread count for a fixed rng seed.
  ParallelOptions parallel;
};

/// Regex-constrained betweenness centrality of Section 4.2:
///   bc_r(x) = Σ_{a≠x, b≠x} |S_{a,b,r}(x)| / |S_{a,b,r}|
/// where S_{a,b,r} is the set of *shortest* paths from a to b that
/// conform to r. Exact: per source, a configuration BFS finds the
/// conforming distances; per pair, paths are counted with the exact
/// (determinized) DP, and through-counts are obtained as
/// total − count(avoiding x) for each candidate x. Ground truth for
/// small/medium graphs. Every configuration BFS, enumeration and FPRAS
/// pass scans the contiguous adjacency of the view's CSR
/// (GraphView::csr()).
Result<std::vector<double>> RegexBetweenness(const GraphView& view,
                                             const Regex& regex,
                                             const BcrOptions& opts = {});

/// Randomized approximation of bc_r (the tutorial's headline application
/// of the Section 4.1 toolbox): same structure, but pair-sampled and
/// with the FPRAS substituted for the exact counts.
Result<std::vector<double>> RegexBetweennessApprox(const GraphView& view,
                                                   const Regex& regex,
                                                   const BcrOptions& opts,
                                                   Rng* rng);

}  // namespace kgq

#endif  // KGQ_ANALYTICS_BETWEENNESS_H_
