// Unit tests for CsrSnapshot construction itself: round-trip back to
// the edge list, per-label partition boundaries, in/out view symmetry,
// and degenerate graphs (0 nodes, 0 edges, single label, self-loops,
// parallel edges, isolated nodes).

#include "graph/csr_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/labeled_graph.h"
#include "graph/vector_graph.h"
#include "util/rng.h"

namespace kgq {
namespace {

LabeledGraph DiamondWithExtras() {
  // 0 →a 1 →b 3, 0 →b 2 →a 3, a self-loop on 1, a parallel a-edge 0→1,
  // and an isolated node 4.
  LabeledGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode("n");
  (void)g.AddEdge(0, 1, "a");  // e0
  (void)g.AddEdge(1, 3, "b");  // e1
  (void)g.AddEdge(0, 2, "b");  // e2
  (void)g.AddEdge(2, 3, "a");  // e3
  (void)g.AddEdge(1, 1, "a");  // e4 self-loop
  (void)g.AddEdge(0, 1, "a");  // e5 parallel to e0
  return g;
}

TEST(CsrSnapshot, RoundTripsToTheOriginalEdgeList) {
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  ASSERT_EQ(snap.num_nodes(), g.num_nodes());
  ASSERT_EQ(snap.num_edges(), g.num_edges());
  std::vector<CsrSnapshot::EdgeRecord> list = snap.ToEdgeList();
  ASSERT_EQ(list.size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(list[e].from, g.EdgeSource(e)) << "edge " << e;
    EXPECT_EQ(list[e].to, g.EdgeTarget(e)) << "edge " << e;
    EXPECT_EQ(list[e].label, g.EdgeLabelString(e)) << "edge " << e;
    EXPECT_EQ(snap.EdgeSource(e), g.EdgeSource(e));
    EXPECT_EQ(snap.EdgeTarget(e), g.EdgeTarget(e));
    EXPECT_EQ(snap.LabelName(snap.EdgeLabel(e)), g.EdgeLabelString(e));
  }
}

TEST(CsrSnapshot, OutViewMatchesInsertionOrder) {
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const std::vector<EdgeId>& expect = g.OutEdges(n);
    CsrSnapshot::Span got = snap.Out(n);
    ASSERT_EQ(got.size(), expect.size()) << "node " << n;
    ASSERT_EQ(snap.OutDegree(n), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].edge, expect[i]);
      EXPECT_EQ(got[i].neighbor, g.EdgeTarget(expect[i]));
    }
    const std::vector<EdgeId>& expect_in = g.InEdges(n);
    CsrSnapshot::Span got_in = snap.In(n);
    ASSERT_EQ(got_in.size(), expect_in.size()) << "node " << n;
    ASSERT_EQ(snap.InDegree(n), expect_in.size());
    for (size_t i = 0; i < expect_in.size(); ++i) {
      EXPECT_EQ(got_in[i].edge, expect_in[i]);
      EXPECT_EQ(got_in[i].neighbor, g.EdgeSource(expect_in[i]));
    }
  }
}

TEST(CsrSnapshot, InOutViewsAreSymmetric) {
  Rng rng(99);
  LabeledGraph g = ErdosRenyi(25, 120, {"p", "q"}, {"a", "b", "c"}, &rng);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  // Every edge appears exactly once in Out(source) and once in
  // In(target), with matching labels; total entries = m on both sides.
  std::vector<int> out_seen(g.num_edges(), 0), in_seen(g.num_edges(), 0);
  size_t out_total = 0, in_total = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const CsrSnapshot::Entry& a : snap.Out(n)) {
      ++out_seen[a.edge];
      ++out_total;
      EXPECT_EQ(snap.EdgeSource(a.edge), n);
      EXPECT_EQ(snap.EdgeTarget(a.edge), a.neighbor);
      EXPECT_EQ(a.label, snap.EdgeLabel(a.edge));
    }
    for (const CsrSnapshot::Entry& a : snap.In(n)) {
      ++in_seen[a.edge];
      ++in_total;
      EXPECT_EQ(snap.EdgeTarget(a.edge), n);
      EXPECT_EQ(snap.EdgeSource(a.edge), a.neighbor);
      EXPECT_EQ(a.label, snap.EdgeLabel(a.edge));
    }
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(out_seen[e], 1) << "edge " << e;
    EXPECT_EQ(in_seen[e], 1) << "edge " << e;
  }
}

TEST(CsrSnapshot, LabelPartitionsTileEachNode) {
  Rng rng(7);
  LabeledGraph g = ErdosRenyi(20, 150, {"p"}, {"a", "b", "c", "d"}, &rng);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  ASSERT_LE(snap.num_labels(), 4u);

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    // The partitioned view is sorted by (label, edge id) and tiles the
    // node's adjacency exactly.
    CsrSnapshot::Span part = snap.OutPartitioned(n);
    ASSERT_EQ(part.size(), snap.OutDegree(n));
    for (size_t i = 1; i < part.size(); ++i) {
      bool ordered = part[i - 1].label < part[i].label ||
                     (part[i - 1].label == part[i].label &&
                      part[i - 1].edge < part[i].edge);
      EXPECT_TRUE(ordered) << "node " << n << " position " << i;
    }

    // Per-label spans are disjoint, label-pure, and their union is the
    // node's out set.
    std::set<EdgeId> from_partitions;
    size_t covered = 0;
    for (LabelId l = 0; l < snap.num_labels(); ++l) {
      CsrSnapshot::Span span = snap.OutForLabel(n, l);
      covered += span.size();
      for (const CsrSnapshot::Entry& a : span) {
        EXPECT_EQ(a.label, l);
        EXPECT_EQ(snap.EdgeLabel(a.edge), l);
        EXPECT_TRUE(from_partitions.insert(a.edge).second)
            << "edge " << a.edge << " in two partitions";
      }
    }
    EXPECT_EQ(covered, snap.OutDegree(n));
    std::set<EdgeId> full;
    for (const CsrSnapshot::Entry& a : snap.Out(n)) full.insert(a.edge);
    EXPECT_EQ(from_partitions, full) << "node " << n;

    // Same tiling on the in side.
    size_t in_covered = 0;
    for (LabelId l = 0; l < snap.num_labels(); ++l) {
      for (const CsrSnapshot::Entry& a : snap.InForLabel(n, l)) {
        EXPECT_EQ(a.label, l);
        ++in_covered;
      }
    }
    EXPECT_EQ(in_covered, snap.InDegree(n));
  }
}

TEST(CsrSnapshot, FindLabelAgreesWithEdgeLabels) {
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  ASSERT_EQ(snap.num_labels(), 2u);
  auto a = snap.FindLabel("a");
  auto b = snap.FindLabel("b");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(snap.LabelName(*a), "a");
  EXPECT_EQ(snap.LabelName(*b), "b");
  EXPECT_FALSE(snap.FindLabel("missing").has_value());

  // Node 0 has three a-edges? No: e0, e5 are "a", e2 is "b".
  EXPECT_EQ(snap.OutForLabel(0, *a).size(), 2u);
  EXPECT_EQ(snap.OutForLabel(0, *b).size(), 1u);
}

TEST(CsrSnapshot, EmptyGraph) {
  LabeledGraph g;
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  EXPECT_EQ(snap.num_nodes(), 0u);
  EXPECT_EQ(snap.num_edges(), 0u);
  EXPECT_EQ(snap.num_labels(), 0u);
  EXPECT_TRUE(snap.ToEdgeList().empty());
}

TEST(CsrSnapshot, NodesButNoEdges) {
  LabeledGraph g;
  g.AddNode("p");
  g.AddNode("q");
  g.AddNode("p");
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  EXPECT_EQ(snap.num_nodes(), 3u);
  EXPECT_EQ(snap.num_edges(), 0u);
  EXPECT_EQ(snap.num_labels(), 0u);  // The label set is empty.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(snap.Out(n).empty());
    EXPECT_TRUE(snap.In(n).empty());
    EXPECT_EQ(snap.OutDegree(n), 0u);
    EXPECT_EQ(snap.InDegree(n), 0u);
  }
  EXPECT_FALSE(snap.FindLabel("a").has_value());
}

TEST(CsrSnapshot, SingleLabelGraph) {
  LabeledGraph g = Cycle(4, "n", "e");
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  ASSERT_EQ(snap.num_labels(), 1u);
  auto e = snap.FindLabel("e");
  ASSERT_TRUE(e.has_value());
  for (NodeId n = 0; n < 4; ++n) {
    // With one label the partition *is* the adjacency.
    ASSERT_EQ(snap.OutForLabel(n, *e).size(), snap.OutDegree(n));
    ASSERT_EQ(snap.InForLabel(n, *e).size(), snap.InDegree(n));
  }
}

TEST(CsrSnapshot, SelfLoopAppearsInBothViews) {
  LabeledGraph g;
  g.AddNode("p");
  (void)g.AddEdge(0, 0, "a");
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  ASSERT_EQ(snap.Out(0).size(), 1u);
  ASSERT_EQ(snap.In(0).size(), 1u);
  EXPECT_EQ(snap.Out(0)[0].edge, 0u);
  EXPECT_EQ(snap.Out(0)[0].neighbor, 0u);
  EXPECT_EQ(snap.In(0)[0].neighbor, 0u);
}

TEST(CsrSnapshot, FromTopologyUsesOnePseudoLabel) {
  Multigraph g(3);
  (void)g.AddEdge(0, 1);
  (void)g.AddEdge(1, 2);
  (void)g.AddEdge(0, 1);  // parallel
  CsrSnapshot snap = CsrSnapshot::FromTopology(g);
  ASSERT_EQ(snap.num_labels(), 1u);
  EXPECT_EQ(snap.OutForLabel(0, 0).size(), 2u);
  EXPECT_EQ(snap.ToEdgeList(),
            (std::vector<CsrSnapshot::EdgeRecord>{
                {0, 1, ""}, {1, 2, ""}, {0, 1, ""}}));
}

TEST(CsrSnapshot, FromVectorGraphUsesFeatureRowZero) {
  VectorGraph g(2);
  NodeId n0 = *g.AddNodeFromStrings({"p", "x"});
  NodeId n1 = *g.AddNodeFromStrings({"q", "y"});
  (void)g.AddEdgeFromStrings(n0, n1, {"a", "z"});
  (void)g.AddEdgeFromStrings(n1, n0, {"b", "z"});
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  ASSERT_EQ(snap.num_labels(), 2u);
  ASSERT_TRUE(snap.FindLabel("a").has_value());
  ASSERT_TRUE(snap.FindLabel("b").has_value());
  EXPECT_FALSE(snap.FindLabel("z").has_value());  // Row 1 is not a label.
}

TEST(CsrSnapshot, RandomGraphsRoundTrip) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(1234 + seed);
    size_t n = rng.Below(30);
    size_t m = n == 0 ? 0 : rng.Below(4 * n);
    LabeledGraph g = ErdosRenyi(n, m, {"p", "q"}, {"a", "b", "c"}, &rng);
    CsrSnapshot snap = CsrSnapshot::FromGraph(g);
    ASSERT_EQ(snap.num_nodes(), g.num_nodes()) << "seed " << seed;
    std::vector<CsrSnapshot::EdgeRecord> list = snap.ToEdgeList();
    ASSERT_EQ(list.size(), g.num_edges()) << "seed " << seed;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(list[e].from, g.EdgeSource(e));
      ASSERT_EQ(list[e].to, g.EdgeTarget(e));
      ASSERT_EQ(list[e].label, g.EdgeLabelString(e));
    }
    // Degrees agree everywhere.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(snap.OutDegree(v), g.topology().OutDegree(v));
      ASSERT_EQ(snap.InDegree(v), g.topology().InDegree(v));
    }
  }
}

// The accessors the query planner's cardinality estimator reads:
// LabelFrequency by dense id and by spelling.
TEST(CsrSnapshot, LabelFrequencyCountsEdgesPerLabel) {
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  // DiamondWithExtras has 4 "a" edges (e0, e3, e4, e5) and 2 "b" edges.
  ASSERT_TRUE(snap.FindLabel("a").has_value());
  ASSERT_TRUE(snap.FindLabel("b").has_value());
  EXPECT_EQ(snap.LabelFrequency(*snap.FindLabel("a")), 4u);
  EXPECT_EQ(snap.LabelFrequency(*snap.FindLabel("b")), 2u);
  EXPECT_EQ(snap.LabelFrequency("a"), 4u);
  EXPECT_EQ(snap.LabelFrequency("b"), 2u);
  // Unknown spellings are "no edges", not an error.
  EXPECT_EQ(snap.LabelFrequency("zzz"), 0u);

  // The by-name accessor agrees with CountForLabel and sums to m.
  size_t total = 0;
  for (LabelId l = 0; l < snap.num_labels(); ++l) {
    EXPECT_EQ(snap.LabelFrequency(l), snap.CountForLabel(l));
    total += snap.LabelFrequency(l);
  }
  EXPECT_EQ(total, snap.num_edges());
}

TEST(CsrSnapshot, AbsentLabelsCountZeroEverywhere) {
  // Labels the snapshot has never seen — by spelling, by out-of-range
  // id, and by sentinel id — must read as "no edges" from every
  // accessor a cost rule might probe, never index out of range.
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  EXPECT_FALSE(snap.FindLabel("zzz").has_value());
  EXPECT_EQ(snap.LabelFrequency("zzz"), 0u);

  const LabelId past_end = static_cast<LabelId>(snap.num_labels());
  EXPECT_EQ(snap.CountForLabel(past_end), 0u);
  EXPECT_EQ(snap.LabelFrequency(past_end), 0u);
  EXPECT_EQ(snap.CountForLabel(past_end + 7), 0u);
  // The all-ones sentinel ids (kNoLabel and the PathNfa atom sentinels
  // live up there) are far past any real label space.
  EXPECT_EQ(snap.CountForLabel(static_cast<LabelId>(~0u)), 0u);
  EXPECT_EQ(snap.LabelFrequency(static_cast<LabelId>(~0u)), 0u);

  // Partition lookups for bogus labels are empty spans, not UB.
  for (NodeId n = 0; n < snap.num_nodes(); ++n) {
    EXPECT_EQ(snap.OutForLabel(n, past_end).size(), 0u);
    EXPECT_EQ(snap.InForLabel(n, past_end).size(), 0u);
  }
}

TEST(CsrSnapshot, LabelFrequencyMatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    LabeledGraph g =
        ErdosRenyi(40, 160, {"p", "q"}, {"a", "b", "c"}, &rng);
    CsrSnapshot snap = CsrSnapshot::FromGraph(g);
    std::map<std::string, size_t> expected;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      expected[g.EdgeLabelString(e)]++;
    }
    for (const auto& [name, count] : expected) {
      EXPECT_EQ(snap.LabelFrequency(name), count) << "seed " << seed;
    }
  }
}

// FromLabeledEdges — the factory the RdfGraphView constructor uses — must
// behave exactly like FromGraph when fed the same labeling.
TEST(CsrSnapshot, FromLabeledEdgesMatchesFromGraph) {
  LabeledGraph g = DiamondWithExtras();
  CsrSnapshot direct = CsrSnapshot::FromGraph(g);
  CsrSnapshot indirect = CsrSnapshot::FromLabeledEdges(
      g.topology(), [&](EdgeId e) { return g.EdgeLabelString(e); });

  ASSERT_EQ(indirect.num_nodes(), g.num_nodes());
  EXPECT_EQ(indirect.num_labels(), direct.num_labels());
  EXPECT_EQ(indirect.ToEdgeList(), direct.ToEdgeList());
  EXPECT_EQ(indirect.LabelFrequency("a"), direct.LabelFrequency("a"));
  EXPECT_EQ(indirect.LabelFrequency("b"), direct.LabelFrequency("b"));
}

// ---------------------------------------------------------------------
// The sortedness property: every label-partition span sorted by
// neighbor.

/// Snapshot of `edges` in the given edge-id order over `n` nodes.
CsrSnapshot FromEdges(size_t n,
                      const std::vector<CsrSnapshot::EdgeRecord>& edges) {
  Multigraph g(n);
  for (const CsrSnapshot::EdgeRecord& e : edges) {
    EXPECT_TRUE(g.AddEdge(e.from, e.to).ok());
  }
  return CsrSnapshot::FromLabeledEdges(
      g, [&](EdgeId e) { return edges[e].label; });
}

TEST(CsrSnapshot, CanonicalInputHasSortedLabelSpans) {
  Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    const size_t n = 5 + rng.Below(20);
    std::vector<CsrSnapshot::EdgeRecord> edges;
    for (size_t i = 0, m = rng.Below(80); i < m; ++i) {
      edges.push_back({static_cast<NodeId>(rng.Below(n)),
                       static_cast<NodeId>(rng.Below(n)),
                       rng.Bernoulli(0.5) ? "a" : "b"});
    }
    // Canonical (from, to, label) order, parallel edges included.
    std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
      return std::tie(x.from, x.to, x.label) < std::tie(y.from, y.to, y.label);
    });
    CsrSnapshot snap = FromEdges(n, edges);
    EXPECT_TRUE(snap.label_spans_sorted()) << "round " << round;
    // The property as stated, checked span by span.
    for (NodeId v = 0; v < n; ++v) {
      for (LabelId l = 0; l < snap.num_labels(); ++l) {
        for (CsrSnapshot::Span span :
             {snap.OutForLabel(v, l), snap.InForLabel(v, l)}) {
          for (size_t i = 1; i < span.size(); ++i) {
            ASSERT_LE(span[i - 1].neighbor, span[i].neighbor);
          }
        }
      }
    }
  }
  EXPECT_TRUE(CsrSnapshot().label_spans_sorted());
}

TEST(CsrSnapshot, OutOfOrderInputHasUnsortedLabelSpans) {
  // Out side: node 0's a-span lists target 2 before target 1.
  EXPECT_FALSE(FromEdges(3, {{0, 2, "a"}, {0, 1, "a"}}).label_spans_sorted());
  // In side only: every out-span has one edge, but node 0's a-span on
  // the in side lists source 2 before source 1.
  EXPECT_FALSE(FromEdges(3, {{2, 0, "a"}, {1, 0, "a"}}).label_spans_sorted());
  // Different labels never share a span: this order is fine.
  EXPECT_TRUE(FromEdges(3, {{0, 2, "a"}, {0, 1, "b"}}).label_spans_sorted());
  // Insertion-ordered FromGraph input breaks it too.
  EXPECT_FALSE(
      CsrSnapshot::FromGraph(DiamondWithExtras()).label_spans_sorted());
}

}  // namespace
}  // namespace kgq
