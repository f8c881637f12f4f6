// Unit + differential suite for the serving write path (serve/delta_store).
//
// The differential half pins the canonical-materialization guarantee: a
// published epoch is bit-identical to a from-scratch
// CsrSnapshot::FromLabeledEdges build over the same logical edge set —
// for 32 seeds of randomized insert/delete/publish histories including
// duplicate inserts and deletions of absent edges.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "graph/labeled_graph.h"
#include "rpq/test_eval.h"
#include "rpq/test_expr.h"
#include "serve/delta_store.h"
#include "util/rng.h"

namespace kgq {
namespace serve {
namespace {

TEST(DeltaStore, StartsAtEmptyPublishedEpochZero) {
  DeltaStore store;
  EXPECT_EQ(store.CurrentEpoch(), 0u);
  EpochPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->graph().num_nodes(), 0u);
  EXPECT_EQ(snap->graph().num_edges(), 0u);
  EXPECT_EQ(snap->csr->num_edges(), 0u);
}

TEST(DeltaStore, DuplicateInsertAndAbsentDeleteAreNoOps) {
  DeltaStore store;
  NodeId a = store.AddNode("person");
  NodeId b = store.AddNode("bus");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  auto first = store.InsertEdge(a, b, "rides");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto dup = store.InsertEdge(a, b, "rides");
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(*dup);  // Set semantics: already live.
  EXPECT_EQ(store.NumLiveEdges(), 1u);

  auto absent = store.DeleteEdge(b, a, "rides");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);  // Absent edge: no-op, not an error.
  EXPECT_EQ(store.NumLiveEdges(), 1u);

  auto live = store.DeleteEdge(a, b, "rides");
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(*live);
  EXPECT_EQ(store.NumLiveEdges(), 0u);
}

TEST(DeltaStore, EdgeWritesRequireExistingEndpoints) {
  DeltaStore store;
  store.AddNode("only");
  EXPECT_FALSE(store.InsertEdge(0, 1, "x").ok());
  EXPECT_FALSE(store.InsertEdge(7, 0, "x").ok());
  EXPECT_FALSE(store.DeleteEdge(0, 1, "x").ok());
  EXPECT_EQ(store.NumLiveEdges(), 0u);
}

TEST(DeltaStore, WritesInvisibleUntilPublish) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EXPECT_EQ(store.Acquire()->graph().num_nodes(), 0u);
  EXPECT_EQ(store.PendingOps(), 3u);

  EpochPtr snap = store.Publish();
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->graph().num_nodes(), 2u);
  EXPECT_EQ(snap->graph().num_edges(), 1u);
  EXPECT_EQ(store.PendingOps(), 0u);
  EXPECT_EQ(store.Acquire(), snap);
}

TEST(DeltaStore, AcquiredEpochSurvivesLaterWrites) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EpochPtr one = store.Publish();

  ASSERT_TRUE(store.DeleteEdge(a, b, "e").ok());
  store.AddNode("late");
  EpochPtr two = store.Publish();

  // The pinned epoch still shows the old state, untouched.
  EXPECT_EQ(one->epoch, 1u);
  EXPECT_EQ(one->graph().num_nodes(), 2u);
  EXPECT_EQ(one->graph().num_edges(), 1u);
  EXPECT_EQ(two->epoch, 2u);
  EXPECT_EQ(two->graph().num_nodes(), 3u);
  EXPECT_EQ(two->graph().num_edges(), 0u);
}

TEST(DeltaStore, LogicalEdgesAreCanonicallyOrdered) {
  DeltaStore store;
  for (int i = 0; i < 3; ++i) store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(2, 0, "b").ok());
  ASSERT_TRUE(store.InsertEdge(0, 1, "z").ok());
  ASSERT_TRUE(store.InsertEdge(0, 1, "a").ok());
  std::vector<EdgeKey> edges = store.LogicalEdges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1, "a"}));
  EXPECT_EQ(edges[1], (EdgeKey{0, 1, "z"}));
  EXPECT_EQ(edges[2], (EdgeKey{2, 0, "b"}));
}

TEST(DeltaStore, PendingOpsResetAcrossPublishes) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EXPECT_EQ(store.PendingOps(), 3u);
  store.Publish();
  EXPECT_EQ(store.PendingOps(), 0u);

  // No-op writes do not count as pending; applied ones do — including
  // an insert later cancelled by a delete (ops, not net effect).
  ASSERT_FALSE(*store.InsertEdge(a, b, "e"));
  EXPECT_EQ(store.PendingOps(), 0u);
  ASSERT_TRUE(*store.InsertEdge(b, a, "e"));
  ASSERT_TRUE(*store.DeleteEdge(b, a, "e"));
  EXPECT_EQ(store.PendingOps(), 2u);
  store.Publish();
  EXPECT_EQ(store.PendingOps(), 0u);
}

TEST(DeltaStore, LogicalEdgesUnderInterleavedInsertDeleteOfSameKey) {
  DeltaStore store;
  store.AddNode("n");
  store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  EXPECT_TRUE(store.LogicalEdges().empty());
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  std::vector<EdgeKey> edges = store.LogicalEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1, "e"}));
}

TEST(DeltaStore, DeleteThenReinsertWithinOneEpochIsAnEmptyPublish) {
  DeltaStore store;
  store.AddNode("n");
  store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EpochPtr base = store.Publish();

  // Net delta cancels to nothing: the next publish must share the
  // previous epoch's materialization wholesale and keep its content
  // version (the query cache stays warm across it).
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EpochPtr next = store.Publish();
  EXPECT_EQ(next->epoch, base->epoch + 1);
  EXPECT_EQ(next->content_version, base->content_version);
  EXPECT_EQ(next->csr, base->csr);  // shared pointer, not a copy
  EXPECT_TRUE(next->delta.inserted.empty());
  EXPECT_TRUE(next->delta.deleted.empty());
  EXPECT_EQ(next->delta.nodes_added, 0u);
}

TEST(DeltaStore, ContentVersionBumpsOnlyOnContentChange) {
  DeltaStore store;
  EpochPtr empty = store.Publish();
  EXPECT_EQ(empty->content_version, 0u);  // still the empty graph

  store.AddNode("n");
  EpochPtr one = store.Publish();
  EXPECT_EQ(one->content_version, empty->content_version + 1);

  EpochPtr two = store.Publish();  // nothing pending
  EXPECT_EQ(two->epoch, one->epoch + 1);
  EXPECT_EQ(two->content_version, one->content_version);
}

// ---------------------------------------------------------------------------
// Delta-log netting within one epoch, against hand-computed deltas.

std::vector<CsrSnapshot::EdgeRecord> Records(
    std::initializer_list<CsrSnapshot::EdgeRecord> records) {
  return records;
}

TEST(DeltaStoreNetting, InsertDeleteInsertNetsToOneInsert) {
  DeltaStore store;
  store.AddNode("n");
  store.AddNode("n");
  EpochPtr base = store.Publish();
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EXPECT_EQ(store.PendingOps(), 3u);
  EpochPtr next = store.Publish();
  EXPECT_EQ(next->delta.inserted, Records({{0, 1, "e"}}));
  EXPECT_TRUE(next->delta.deleted.empty());
  EXPECT_EQ(next->content_version, base->content_version + 1);
  EXPECT_EQ(next->num_edges(), 1u);
  EXPECT_EQ(store.PendingOps(), 0u);
}

TEST(DeltaStoreNetting, DeleteAndReinsertOfABaseEdgeNetsToNothing) {
  DeltaStore store;
  for (int i = 0; i < 3; ++i) store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(1, 2, "f"));
  EpochPtr base = store.Publish();

  // 0->1 deleted and re-inserted twice (cancels); 1->2 deleted,
  // re-inserted and deleted again (nets to a delete); 2->0 inserted and
  // deleted (cancels).
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(1, 2, "f"));
  ASSERT_TRUE(*store.InsertEdge(1, 2, "f"));
  ASSERT_TRUE(*store.DeleteEdge(1, 2, "f"));
  ASSERT_TRUE(*store.InsertEdge(2, 0, "e"));
  ASSERT_TRUE(*store.DeleteEdge(2, 0, "e"));
  EXPECT_EQ(store.PendingOps(), 9u);
  EpochPtr next = store.Publish();
  EXPECT_TRUE(next->delta.inserted.empty());
  EXPECT_EQ(next->delta.deleted, Records({{1, 2, "f"}}));
  EXPECT_EQ(next->content_version, base->content_version + 1);

  // Only the cancelling part: an empty publish, content version kept.
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EXPECT_EQ(store.PendingOps(), 2u);
  EpochPtr same = store.Publish();
  EXPECT_TRUE(same->delta.inserted.empty());
  EXPECT_TRUE(same->delta.deleted.empty());
  EXPECT_EQ(same->content_version, next->content_version);
  EXPECT_EQ(same->csr, next->csr);
}

TEST(DeltaStoreNetting, NoOpWritesNeitherLogNorCount) {
  DeltaStore store;
  for (int i = 0; i < 3; ++i) store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EpochPtr base = store.Publish();

  // Repeated inserts of a live edge and deletes of an absent one.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(*store.InsertEdge(0, 1, "e"));
    ASSERT_FALSE(*store.DeleteEdge(1, 0, "e"));
  }
  EXPECT_EQ(store.PendingOps(), 0u);
  EXPECT_EQ(store.WritesNoop(), 6u);
  EpochPtr same = store.Publish();
  EXPECT_TRUE(same->delta.inserted.empty());
  EXPECT_TRUE(same->delta.deleted.empty());
  EXPECT_EQ(same->content_version, base->content_version);

  // Mixed with effective writes: only those count, and the delta lists
  // come out canonical whatever the write order.
  ASSERT_TRUE(*store.InsertEdge(2, 0, "b"));
  ASSERT_FALSE(*store.InsertEdge(2, 0, "b"));
  ASSERT_TRUE(*store.InsertEdge(0, 2, "z"));
  ASSERT_TRUE(*store.InsertEdge(0, 2, "a"));
  ASSERT_FALSE(*store.DeleteEdge(2, 1, "b"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_FALSE(*store.DeleteEdge(0, 1, "e"));
  EXPECT_EQ(store.PendingOps(), 4u);
  EpochPtr next = store.Publish();
  EXPECT_EQ(next->delta.inserted,
            Records({{0, 2, "a"}, {0, 2, "z"}, {2, 0, "b"}}));
  EXPECT_EQ(next->delta.deleted, Records({{0, 1, "e"}}));
  EXPECT_EQ(next->content_version, base->content_version + 1);
}

// ---------------------------------------------------------------------------
// Differential: every published epoch == the from-scratch build.

/// Reference model: plain node-label list + std::set of edge keys.
struct RefModel {
  std::vector<std::string> nodes;
  std::set<EdgeKey> edges;
};

/// Builds the canonical materialization the way a cold start would:
/// LabeledGraph from scratch, snapshot via FromLabeledEdges.
void BuildReference(const RefModel& ref, LabeledGraph* graph,
                    CsrSnapshot* csr) {
  for (const std::string& label : ref.nodes) graph->AddNode(label);
  for (const EdgeKey& e : ref.edges) {
    ASSERT_TRUE(graph->AddEdge(e.from, e.to, e.label).ok());
  }
  *csr = CsrSnapshot::FromLabeledEdges(
      graph->topology(),
      [graph](EdgeId e) { return graph->EdgeLabelString(e); });
}

void ExpectSnapshotsIdentical(const EpochSnapshot& got,
                              const LabeledGraph& want_graph,
                              const CsrSnapshot& want_csr) {
  ASSERT_EQ(got.graph().num_nodes(), want_graph.num_nodes());
  ASSERT_EQ(got.graph().num_edges(), want_graph.num_edges());
  for (NodeId n = 0; n < got.graph().num_nodes(); ++n) {
    ASSERT_EQ(got.graph().NodeLabelString(n), want_graph.NodeLabelString(n));
  }
  // Edge lists compare in edge-id order — materialization order itself
  // is part of the contract (it determines label interning).
  ASSERT_EQ(got.csr->ToEdgeList(), want_csr.ToEdgeList());
  ASSERT_EQ(got.csr->num_labels(), want_csr.num_labels());
  for (LabelId l = 0; l < got.csr->num_labels(); ++l) {
    ASSERT_EQ(got.csr->LabelName(l), want_csr.LabelName(l));
    ASSERT_EQ(got.csr->CountForLabel(l), want_csr.CountForLabel(l));
  }
  // graph() ↔ csr is the pairing EpochGraphView hands to kernels as
  // trusted: pin every edge's endpoints and label and every node label.
  ASSERT_EQ(got.csr->num_nodes(), got.graph().num_nodes());
  ASSERT_EQ(got.csr->num_edges(), got.graph().num_edges());
  const EpochGraphView view = got.View();
  ASSERT_EQ(&view.csr(), got.csr.get());
  for (EdgeId e = 0; e < got.num_edges(); ++e) {
    ASSERT_EQ(got.csr->EdgeSource(e), got.graph().EdgeSource(e));
    ASSERT_EQ(got.csr->EdgeTarget(e), got.graph().EdgeTarget(e));
    const std::string& label = got.csr->LabelName(got.csr->EdgeLabel(e));
    ASSERT_EQ(got.graph().EdgeLabelString(e), label) << "edge " << e;
    ASSERT_TRUE(view.EdgeLabelIs(e, label)) << "edge " << e;
  }
  for (NodeId n = 0; n < got.num_nodes(); ++n) {
    ASSERT_EQ(got.graph().NodeLabelString(n), got.nodes.label(n))
        << "node " << n;
  }
  // Canonical edge order makes every label-partition span sorted by
  // neighbor — the property the executor's ordered scans and probes
  // rely on. The incremental merge must keep it (and derive it exactly,
  // which the member-wise comparison below also pins).
  ASSERT_TRUE(got.csr->label_spans_sorted());
  ASSERT_TRUE(want_csr.label_spans_sorted());
  // The strongest form: every member of the snapshot (offset arrays,
  // partitioned views, interning tables) compares equal — bit-identity
  // of the incremental merge with the from-scratch build.
  ASSERT_TRUE(*got.csr == want_csr);
}

TEST(DeltaStoreDifferential, PublishedEpochsMatchFromScratchBuilds) {
  const std::vector<std::string> kLabels = {"a", "b", "c", "rides"};
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    DeltaStore store;  // incremental publication (the default)
    DeltaStore full(DeltaStoreOptions{/*incremental_publish=*/false});
    RefModel ref;
    uint64_t published = 0;

    const size_t ops = 60 + rng.Below(120);
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t pick = rng.Below(100);
      if (pick < 20 || ref.nodes.empty()) {
        const std::string& label = kLabels[rng.Below(kLabels.size())];
        NodeId id = store.AddNode(label);
        ASSERT_EQ(full.AddNode(label), id) << "seed " << seed;
        ASSERT_EQ(id, ref.nodes.size()) << "seed " << seed;
        ref.nodes.push_back(label);
      } else if (pick < 60) {
        EdgeKey e{static_cast<NodeId>(rng.Below(ref.nodes.size())),
                  static_cast<NodeId>(rng.Below(ref.nodes.size())),
                  kLabels[rng.Below(kLabels.size())]};
        auto applied = store.InsertEdge(e.from, e.to, e.label);
        ASSERT_TRUE(applied.ok()) << "seed " << seed;
        ASSERT_TRUE(full.InsertEdge(e.from, e.to, e.label).ok());
        // Duplicate inserts happen naturally: applied iff it was new.
        EXPECT_EQ(*applied, ref.edges.insert(e).second) << "seed " << seed;
      } else if (pick < 90) {
        // Half the deletes target a random (mostly absent) key, half an
        // actually live edge.
        EdgeKey e;
        if (!ref.edges.empty() && rng.Bernoulli(0.5)) {
          auto it = ref.edges.begin();
          std::advance(it, rng.Below(ref.edges.size()));
          e = *it;
        } else {
          e = EdgeKey{static_cast<NodeId>(rng.Below(ref.nodes.size())),
                      static_cast<NodeId>(rng.Below(ref.nodes.size())),
                      kLabels[rng.Below(kLabels.size())]};
        }
        auto applied = store.DeleteEdge(e.from, e.to, e.label);
        ASSERT_TRUE(applied.ok()) << "seed " << seed;
        ASSERT_TRUE(full.DeleteEdge(e.from, e.to, e.label).ok());
        EXPECT_EQ(*applied, ref.edges.erase(e) > 0) << "seed " << seed;
      } else {
        EpochPtr snap = store.Publish();
        ASSERT_EQ(snap->epoch, ++published) << "seed " << seed;
        LabeledGraph want_graph;
        CsrSnapshot want_csr;
        BuildReference(ref, &want_graph, &want_csr);
        ExpectSnapshotsIdentical(*snap, want_graph, want_csr);
        // The from-scratch publication path must agree member-for-member
        // with the incremental merge — the cross-path differential.
        EpochPtr fsnap = full.Publish();
        ASSERT_TRUE(*fsnap->csr == *snap->csr) << "seed " << seed;
      }
    }

    // Final publish: the end state must round-trip too.
    EpochPtr snap = store.Publish();
    ASSERT_EQ(snap->epoch, published + 1) << "seed " << seed;
    LabeledGraph want_graph;
    CsrSnapshot want_csr;
    BuildReference(ref, &want_graph, &want_csr);
    ExpectSnapshotsIdentical(*snap, want_graph, want_csr);

    // History independence: replaying only the *surviving* state in
    // canonical order publishes a bit-identical epoch.
    DeltaStore replay;
    for (const std::string& label : ref.nodes) replay.AddNode(label);
    for (const EdgeKey& e : ref.edges) {
      ASSERT_TRUE(replay.InsertEdge(e.from, e.to, e.label).ok());
    }
    EpochPtr replayed = replay.Publish();
    ExpectSnapshotsIdentical(*replayed, snap->graph(), *snap->csr);
  }
}

// ---------------------------------------------------------------------------
// The epoch view answers from the CSR and the node table exactly what a
// LabeledGraphView over the materialized graph answers.

/// Label tests over the spellings in play: node labels, edge labels,
/// "rides" (both), "zzz" (neither), and Not/And/Or/True trees of them.
std::vector<TestPtr> ViewTests() {
  std::vector<TestPtr> tests;
  for (const char* label : {"person", "bus", "rides", "knows", "zzz"}) {
    tests.push_back(TestExpr::Label(label));
  }
  TestPtr rides = TestExpr::Label("rides");
  TestPtr person = TestExpr::Label("person");
  TestPtr knows = TestExpr::Label("knows");
  TestPtr zzz = TestExpr::Label("zzz");
  tests.push_back(TestExpr::True());
  tests.push_back(TestExpr::Not(rides));
  tests.push_back(TestExpr::Not(zzz));
  tests.push_back(TestExpr::And(TestExpr::Not(person), TestExpr::True()));
  tests.push_back(TestExpr::Or(rides, person));
  tests.push_back(TestExpr::Or(knows, TestExpr::And(rides, TestExpr::Not(zzz))));
  tests.push_back(TestExpr::Not(TestExpr::Or(TestExpr::Not(TestExpr::True()),
                                             TestExpr::Or(rides, knows))));
  return tests;
}

void ExpectViewsAgree(const EpochSnapshot& snap) {
  const EpochGraphView got = snap.View();
  const std::vector<TestPtr> tests = ViewTests();
  // Answer from the epoch view first: none of it may build graph() (the
  // constructor's full build pre-seeds epoch 0's).
  const bool prebuilt = snap.lazy_graph->graph != nullptr;
  std::vector<Bitset> node_sets;
  std::vector<Bitset> edge_sets;
  for (const TestPtr& t : tests) {
    node_sets.push_back(MatchNodes(got, *t));
    edge_sets.push_back(MatchEdges(got, *t));
  }
  const size_t nodes = got.num_nodes();
  const size_t edges = got.num_edges();
  ASSERT_EQ(snap.lazy_graph->graph != nullptr, prebuilt);

  const LabeledGraphView want(snap.graph());
  ASSERT_EQ(nodes, want.num_nodes());
  ASSERT_EQ(edges, want.num_edges());
  for (size_t i = 0; i < tests.size(); ++i) {
    SCOPED_TRACE(tests[i]->ToString());
    ASSERT_EQ(node_sets[i], MatchNodes(want, *tests[i]));
    ASSERT_EQ(edge_sets[i], MatchEdges(want, *tests[i]));
    const BoundTest bound(got, *tests[i]);
    for (NodeId n = 0; n < nodes; ++n) {
      ASSERT_EQ(bound.MatchesNode(n), EvalNodeTest(want, *tests[i], n));
      ASSERT_EQ(EvalNodeTest(got, *tests[i], n),
                EvalNodeTest(want, *tests[i], n));
    }
    for (EdgeId e = 0; e < edges; ++e) {
      ASSERT_EQ(bound.MatchesEdge(e), EvalEdgeTest(want, *tests[i], e));
      ASSERT_EQ(EvalEdgeTest(got, *tests[i], e),
                EvalEdgeTest(want, *tests[i], e));
    }
  }
}

TEST(DeltaStoreViews, EpochViewMatchesLabeledGraphView) {
  const std::vector<std::string> kNodeLabels = {"person", "bus", "rides"};
  const std::vector<std::string> kEdgeLabels = {"rides", "knows", "stops"};
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(100 + seed);
    DeltaStore store;
    ExpectViewsAgree(*store.Acquire());  // The empty epoch 0.
    size_t num_nodes = 0;
    for (int round = 0; round < 5; ++round) {
      const size_t add = 1 + rng.Below(6);
      for (size_t i = 0; i < add; ++i) {
        store.AddNode(kNodeLabels[rng.Below(kNodeLabels.size())]);
        ++num_nodes;
      }
      for (size_t i = 0, n = rng.Below(20); i < n; ++i) {
        // Edges only among the older nodes, so the newest ones are
        // trailing nodes without edges.
        const size_t span = num_nodes > add ? num_nodes - add : 1;
        const NodeId from = static_cast<NodeId>(rng.Below(span));
        const NodeId to = static_cast<NodeId>(rng.Below(span));
        const std::string& label = kEdgeLabels[rng.Below(kEdgeLabels.size())];
        if (rng.Bernoulli(0.3)) {
          ASSERT_TRUE(store.DeleteEdge(from, to, label).ok());
        } else {
          ASSERT_TRUE(store.InsertEdge(from, to, label).ok());
        }
      }
      EpochPtr snap = store.Publish();
      ASSERT_EQ(snap->csr->num_nodes(), num_nodes);
      ExpectViewsAgree(*snap);
      if (HasFatalFailure()) return;
    }
  }
}

// Readers of pinned epochs race a writer that grows the node table past
// several buffer moves and adds new label spellings (TSan-checked in CI
// via the `delta` clause of the tsan job's -R regex).
TEST(DeltaStoreViews, NodeTableGrowsUnderPinnedReaders) {
  constexpr size_t kNodes = 5000;
  auto label_of = [](size_t n) {
    return n % 3 == 0 ? std::string("person")
                      : "l" + std::to_string(n / 700);
  };
  constexpr int kReaders = 3;
  DeltaStore store;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (started < kReaders) std::this_thread::yield();
    for (size_t n = 0; n < kNodes; ++n) {
      store.AddNode(label_of(n));
      if (n % 37 == 0) store.Publish();
    }
    store.Publish();
    done = true;
  });
  const TestPtr person = TestExpr::Label("person");
  std::vector<std::thread> readers;
  std::atomic<size_t> reads{0};
  std::atomic<size_t> mismatches{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ++started;
      while (!done) {
        ++reads;
        EpochPtr snap = store.Acquire();
        const EpochGraphView view = snap->View();
        const Bitset people = MatchNodes(view, *person);
        for (NodeId n = 0; n < snap->num_nodes(); ++n) {
          if (snap->nodes.label(n) != label_of(n) ||
              people.Test(n) != (n % 3 == 0)) {
            ++mismatches;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.Acquire()->num_nodes(), kNodes);
}

}  // namespace
}  // namespace serve
}  // namespace kgq
