#ifndef KGQ_SERVE_VIEW_CACHE_H_
#define KGQ_SERVE_VIEW_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/components.h"
#include "pathalg/matrix_rpq.h"
#include "serve/delta_store.h"
#include "util/thread_pool.h"

namespace kgq {
namespace serve {

/// Per-epoch materialized analytics views with delta-based maintenance.
///
/// Each view is computed lazily on first request against an epoch and
/// cached together with the EpochPtr it was computed at. When a request
/// arrives for a *newer* epoch whose EpochDelta is based on the cached
/// epoch, the view is advanced from its previous value instead of
/// recomputed:
///
///   * components — union-find over the inserted edges seeded with the
///     previous assignment, then a canonical relabel (discovery order ==
///     ascending minimum node id). Any deleted edge forces a full
///     recompute (WeaklyConnectedComponentsCsr) — counted as fallback.
///   * pagerank — integer fixed-point PageRank warm-restarted from the
///     previous epoch's vector via the provable damage bound
///     (PageRankFixpointWarm); handles deletes without fallback. The
///     kernel histograms pagerank.warm_iterations per epoch.
///   * reachability — per-label positive-length transitive closure
///     R = A⁺ as a BoolCsr keyed by label *spelling* (dense label ids
///     shift across epochs). Labels untouched by the delta carry their
///     closure over by pointer — the per-label partition reuse; labels
///     with only inserts advance by delta-SpGEMM over the frontier of
///     new facts (BoolSpGemmDelta); labels with deletes recompute.
///
/// Every maintained value is bit-identical to the from-scratch
/// computation at the same epoch (the view differential suite pins
/// this), so hit/advance/rebuild is invisible in responses.
///
/// obs: counters serve.view.hit (value already current, including
/// untouched-label carries), serve.view.advance (delta-maintained),
/// serve.view.rebuild (computed from scratch), serve.view.fallback
/// (delete-forced or cap-forced recompute).
///
/// Thread-safe; one mutex serializes view maintenance (requests for a
/// current value still pay only a map lookup + shared_ptr copy).
class ViewCache {
 public:
  explicit ViewCache(ParallelOptions parallel = {})
      : parallel_(parallel) {}

  /// Weakly connected components of `snap`'s graph. Component ids are
  /// discovery-order (the id of a component is the rank of its minimum
  /// node id), identical to WeaklyConnectedComponentsCsr on the epoch's
  /// CSR.
  std::shared_ptr<const ComponentAssignment> Components(const EpochPtr& snap);

  /// Integer fixed-point PageRank (kPageRankScale units); the canonical
  /// least-fixpoint value of the epoch's graph.
  std::shared_ptr<const std::vector<int64_t>> PageRank(const EpochPtr& snap);

  /// Positive-length reachability closure R = A⁺ of `label`'s adjacency
  /// at `snap`'s epoch. A label with no edges yields the empty matrix.
  std::shared_ptr<const BoolCsr> Reachability(const EpochPtr& snap,
                                              std::string_view label);

 private:
  struct ComponentsEntry {
    EpochPtr snap;  // epoch the value is current at
    std::shared_ptr<const ComponentAssignment> value;
  };
  struct PageRankEntry {
    EpochPtr snap;
    std::shared_ptr<const std::vector<int64_t>> value;
  };
  struct ReachEntry {
    EpochPtr snap;
    std::shared_ptr<const BoolCsr> closure;
  };

  /// True when `snap` carries a delta based exactly on the cached epoch
  /// (the only window the incremental paths can bridge).
  static bool CanAdvance(const EpochPtr& cached, const EpochPtr& snap);

  ParallelOptions parallel_;
  std::mutex mu_;
  ComponentsEntry components_;
  PageRankEntry pagerank_;
  std::map<std::string, ReachEntry, std::less<>> reach_;
};

}  // namespace serve
}  // namespace kgq

#endif  // KGQ_SERVE_VIEW_CACHE_H_
