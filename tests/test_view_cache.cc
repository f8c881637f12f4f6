// Differential suite for the materialized-view cache (serve/view_cache):
// across 32 seeds of randomized insert/delete/publish histories, every
// view served from the cache — components maintained by union-find,
// PageRank warm-restarted from the previous epoch, per-label reachability
// advanced by delta-SpGEMM — must be bit-identical to a from-scratch
// computation at the same epoch, at 1 and at 4 maintenance threads. The
// references deliberately take independent code paths: a union-find over
// the epoch's edge list for components, the cold Kleene fixpoint for
// PageRank, an unmasked SpGEMM/union loop for closures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/components.h"
#include "analytics/pagerank.h"
#include "pathalg/matrix_rpq.h"
#include "serve/delta_store.h"
#include "serve/view_cache.h"
#include "util/rng.h"

namespace kgq {
namespace serve {
namespace {

/// Reference closure R = A⁺ by the plain Kleene iteration
/// R ← A ∪ R·A — unmasked BoolSpGemm + BoolUnion, a code path disjoint
/// from the BoolSpGemmDelta frontier loop the view cache runs.
BoolCsr RefClosure(const CsrSnapshot& csr, std::string_view label) {
  std::optional<LabelId> id = csr.FindLabel(label);
  BoolCsr adj = id.has_value()
                    ? BoolCsr::FromSnapshotLabel(csr, *id)
                    : BoolCsr::FromEntries(csr.num_nodes(),
                                           csr.num_nodes(), {});
  BoolCsr r = adj;
  while (true) {
    BoolCsr next = BoolUnion(adj, BoolSpGemm(r, adj));
    if (next == r) return r;
    r = std::move(next);
  }
}

/// Reference components: a union-find over the snapshot's edge list
/// (ToEdgeList, not the Out/In views the BFS walks), each component
/// numbered by the rank of its minimum node id.
std::vector<uint32_t> RefComponents(const CsrSnapshot& csr) {
  std::vector<NodeId> parent(csr.num_nodes());
  std::iota(parent.begin(), parent.end(), NodeId{0});
  auto find = [&](NodeId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const CsrSnapshot::EdgeRecord& e : csr.ToEdgeList()) {
    NodeId a = find(e.from), b = find(e.to);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> rank_of_root(csr.num_nodes(), 0);
  std::vector<uint32_t> component(csr.num_nodes());
  uint32_t next = 0;
  for (NodeId v = 0; v < csr.num_nodes(); ++v) {
    NodeId root = find(v);
    if (root == v) rank_of_root[v] = next++;
    component[v] = rank_of_root[root];
  }
  return component;
}

void RunDifferential(size_t num_threads) {
  const std::vector<std::string> kLabels = {"a", "b", "c"};
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed + 1000 * num_threads);
    DeltaStore store;
    ViewCache views(ParallelOptions{num_threads});
    std::set<EdgeKey> live;
    size_t nodes = 0;

    // Seed graph: a couple of chains so closures are nontrivial.
    for (size_t i = 0; i < 12; ++i) {
      store.AddNode(i % 2 == 0 ? "even" : "odd");
      ++nodes;
    }
    auto ins = [&](NodeId f, NodeId t, const std::string& l) {
      if (store.InsertEdge(f, t, l).value()) live.insert({f, t, l});
    };
    for (NodeId i = 0; i + 1 < 12; ++i) {
      ins(i, i + 1, kLabels[i % kLabels.size()]);
    }

    const size_t rounds = 6 + rng.Below(6);
    for (size_t round = 0; round < rounds; ++round) {
      const size_t writes = 1 + rng.Below(8);
      for (size_t w = 0; w < writes; ++w) {
        const uint64_t pick = rng.Below(100);
        if (pick < 12) {
          store.AddNode(rng.Bernoulli(0.5) ? "even" : "odd");
          ++nodes;
        } else if (pick < 70) {
          ins(static_cast<NodeId>(rng.Below(nodes)),
              static_cast<NodeId>(rng.Below(nodes)),
              kLabels[rng.Below(kLabels.size())]);
        } else if (!live.empty()) {
          auto it = live.begin();
          std::advance(it, rng.Below(live.size()));
          ASSERT_TRUE(store.DeleteEdge(it->from, it->to, it->label).value());
          live.erase(it);
        }
      }
      EpochPtr snap = store.Publish();

      // Occasionally skip maintaining the views for an epoch, so the
      // next request exercises the rebuild (non-adjacent-epoch) path.
      if (rng.Below(100) < 15) continue;

      // Components: cache vs CSR BFS vs union-find over the edge list.
      auto comp = views.Components(snap);
      ComponentAssignment want_csr = WeaklyConnectedComponentsCsr(*snap->csr);
      ASSERT_EQ(comp->num_components, want_csr.num_components)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(comp->component, want_csr.component)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(comp->component, RefComponents(*snap->csr))
          << "seed " << seed << " round " << round;

      // PageRank: the maintained vector is the canonical least fixpoint.
      auto rank = views.PageRank(snap);
      PageRankFixpoint cold = PageRankFixpointCold(*snap->csr);
      ASSERT_EQ(*rank, cold.rank) << "seed " << seed << " round " << round;

      // Reachability: every label (plus one the graph never uses).
      for (const std::string& label : kLabels) {
        auto closure = views.Reachability(snap, label);
        ASSERT_TRUE(*closure == RefClosure(*snap->csr, label))
            << "seed " << seed << " round " << round << " label " << label;
      }
      ASSERT_EQ(views.Reachability(snap, "absent")->nnz(), 0u);

      // Re-requesting at the same epoch serves the identical object.
      ASSERT_EQ(views.Components(snap), comp);
      ASSERT_EQ(views.PageRank(snap), rank);
    }
  }
}

TEST(ViewCacheDifferential, MaintainedViewsMatchFromScratchSingleThread) {
  RunDifferential(1);
}

TEST(ViewCacheDifferential, MaintainedViewsMatchFromScratchFourThreads) {
  RunDifferential(4);
}

TEST(ViewCache, EmptyPublishCarriesViewsByPointer) {
  DeltaStore store;
  ViewCache views;
  store.AddNode("n");
  store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(0, 1, "e").value());
  EpochPtr one = store.Publish();
  auto comp1 = views.Components(one);
  auto rank1 = views.PageRank(one);
  auto reach1 = views.Reachability(one, "e");

  EpochPtr two = store.Publish();  // empty: same content, new epoch
  EXPECT_EQ(views.Components(two), comp1);
  EXPECT_EQ(views.PageRank(two), rank1);
  EXPECT_EQ(views.Reachability(two, "e"), reach1);
}

TEST(ViewCache, UntouchedLabelClosureIsShared) {
  DeltaStore store;
  ViewCache views;
  for (int i = 0; i < 4; ++i) store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(0, 1, "keep").value());
  ASSERT_TRUE(store.InsertEdge(1, 2, "churn").value());
  EpochPtr one = store.Publish();
  auto keep1 = views.Reachability(one, "keep");

  // Touch only "churn": the "keep" closure must carry over by pointer.
  ASSERT_TRUE(store.InsertEdge(2, 3, "churn").value());
  EpochPtr two = store.Publish();
  auto keep2 = views.Reachability(two, "keep");
  EXPECT_EQ(keep2, keep1);
  ASSERT_TRUE(*views.Reachability(two, "churn") ==
              RefClosure(*two->csr, "churn"));
}

TEST(ViewCache, WarmPageRankHandlesDeletes) {
  // A delete-heavy transition: warm restart must still land on the
  // exact cold fixpoint (the damage bound covers deletions natively).
  DeltaStore store;
  ViewCache views;
  const size_t n = 30;
  for (size_t i = 0; i < n; ++i) store.AddNode("n");
  Rng rng(7);
  std::vector<EdgeKey> live;
  for (int i = 0; i < 120; ++i) {
    EdgeKey e{static_cast<NodeId>(rng.Below(n)),
              static_cast<NodeId>(rng.Below(n)), "e"};
    if (store.InsertEdge(e.from, e.to, e.label).value()) live.push_back(e);
  }
  EpochPtr one = store.Publish();
  (void)views.PageRank(one);

  for (int i = 0; i < 25 && !live.empty(); ++i) {
    ASSERT_TRUE(store
                    .DeleteEdge(live.back().from, live.back().to,
                                live.back().label)
                    .value());
    live.pop_back();
  }
  EpochPtr two = store.Publish();
  auto warm = views.PageRank(two);
  ASSERT_EQ(*warm, PageRankFixpointCold(*two->csr).rank);
}

}  // namespace
}  // namespace serve
}  // namespace kgq
