#ifndef KGQ_PATHALG_OPTIONS_H_
#define KGQ_PATHALG_OPTIONS_H_

#include "graph/multigraph.h"
#include "util/thread_pool.h"

namespace kgq {

/// Which physical engine evaluates saturating (existential) queries —
/// ReachableFrom / PairRelation (and its AllPairs / CountPairs wrappers)
/// and the ReachTable layers.
enum class PathEngine {
  /// Product-configuration BFS per source over the PathNfa. A
  /// multi-source call reuses one search scratch per thread, so each
  /// source costs what it reaches.
  kNfa,
  /// Boolean-semiring matrix fixpoint (pathalg/matrix_rpq): one masked
  /// SpGEMM per iteration covers every source at once, 64 sources per
  /// machine word; its operands are the label partitions of the view's
  /// CSR. A multi-source call with a start restriction runs kNfa.
  kMatrix,
  /// Decided per call from observed density (PairRelation only): the
  /// NFA engine runs a deterministic strided sample of up to 64
  /// sources, stopping once their visited nodes total n. The call goes
  /// to kMatrix iff the graph has at least 64 nodes, no start
  /// restriction is set and the sample's mean reach is at least n/64 —
  /// one frontier word's worth, the matrix engine's break-even; otherwise
  /// the NFA engine finishes the remaining sources and keeps the
  /// sampled rows. The choice depends only on the graph and the query,
  /// never on the thread count. A single source (ReachableFrom) and
  /// the ReachTable layers treat it as kNfa.
  kAuto,
};

/// Restrictions shared by all path algorithms. The unrestricted problem
/// of Section 4.1 uses the defaults; the bc_r computation of Section 4.2
/// uses all three fields (paths from a to b, optionally avoiding x —
/// through-x counts are computed as total minus avoiding).
struct PathQueryOptions {
  /// If set, only paths with start(p) == start.
  NodeId start = kNoNode;
  /// If set, only paths with end(p) == end.
  NodeId end = kNoNode;
  /// If set, only paths that never visit this node.
  NodeId avoid = kNoNode;
  /// Thread budget for the parallel phases (ReachTable layers,
  /// multi-source pair evaluation). Results are identical for every
  /// thread count; see ParallelOptions.
  ParallelOptions parallel;
  /// Physical engine for the saturating entry points. Every engine is
  /// bit-identical (tests/test_regex_fuzz.cc four-way); kMatrix is the
  /// raw-speed play for dense bulk multi-source workloads, kAuto picks
  /// between the two from a sample.
  PathEngine engine = PathEngine::kNfa;
};

}  // namespace kgq

#endif  // KGQ_PATHALG_OPTIONS_H_
