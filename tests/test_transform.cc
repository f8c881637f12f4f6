#include "graph/transform.h"

#include <gtest/gtest.h>

#include "analytics/components.h"
#include "datasets/figure2.h"
#include "gnn/wl.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

namespace kgq {
namespace {

TEST(TransformTest, InducedSubgraphKeepsInternalEdges) {
  LabeledGraph g = Figure2Labeled();
  Bitset keep(g.num_nodes());
  keep.Set(fig2::kJuan);
  keep.Set(fig2::kAna);
  keep.Set(fig2::kBus);
  Subgraph sub = InducedSubgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  // Internal edges: Juan→bus rides, Juan→Ana contact, Juan→Ana lives.
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  EXPECT_EQ(sub.node_origin,
            (std::vector<NodeId>{fig2::kJuan, fig2::kAna, fig2::kBus}));
  for (size_t i = 0; i < sub.edge_origin.size(); ++i) {
    EdgeId orig = sub.edge_origin[i];
    EXPECT_EQ(sub.graph.EdgeLabelString(static_cast<EdgeId>(i)),
              g.EdgeLabelString(orig));
  }
}

TEST(TransformTest, InducedSubgraphEmptyAndFull) {
  LabeledGraph g = Figure2Labeled();
  Bitset none(g.num_nodes());
  EXPECT_EQ(InducedSubgraph(g, none).graph.num_nodes(), 0u);
  Bitset all(g.num_nodes());
  all.SetAll();
  Subgraph full = InducedSubgraph(g, all);
  EXPECT_EQ(full.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(full.graph.num_edges(), g.num_edges());
}

TEST(TransformTest, ReverseSwapsQueryDirections) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraph rev = ReverseGraph(g);
  EXPECT_EQ(rev.EdgeSource(fig2::kJuanRides), fig2::kBus);
  EXPECT_EQ(rev.EdgeTarget(fig2::kJuanRides), fig2::kJuan);
  // rides on g ≡ rides^- on reverse(g): same pair sets.
  LabeledGraphView view(g), rview(rev);
  RegexPtr fwd = *ParseRegex("rides");
  RegexPtr bwd = *ParseRegex("rides^-");
  PathNfa nfa_f = *PathNfa::Compile(view, *fwd);
  PathNfa nfa_b = *PathNfa::Compile(rview, *bwd);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(ReachableFrom(nfa_f, n), ReachableFrom(nfa_b, n)) << n;
  }
}

TEST(TransformTest, ReverseIsInvolution) {
  Rng rng(4);
  LabeledGraph g = ErdosRenyi(15, 40, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraph rr = ReverseGraph(ReverseGraph(g));
  ASSERT_EQ(rr.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(rr.EdgeSource(e), g.EdgeSource(e));
    EXPECT_EQ(rr.EdgeTarget(e), g.EdgeTarget(e));
    EXPECT_EQ(rr.EdgeLabelString(e), g.EdgeLabelString(e));
  }
}

TEST(TransformTest, FilterEdgesByLabel) {
  LabeledGraph g = Figure2Labeled();
  std::optional<ConstId> rides = g.dict().Find("rides");
  ASSERT_TRUE(rides.has_value());
  Subgraph sub = FilterEdges(
      g, [&](EdgeId e) { return g.EdgeLabel(e) == *rides; });
  EXPECT_EQ(sub.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
    EXPECT_EQ(sub.graph.EdgeLabelString(e), "rides");
  }
}

TEST(TransformTest, DisjointUnionIntegratesGraphs) {
  LabeledGraph a = Cycle(3, "x", "e");
  LabeledGraph b = Cycle(4, "y", "f");
  LabeledGraph u = DisjointUnion(a, b);
  EXPECT_EQ(u.num_nodes(), 7u);
  EXPECT_EQ(u.num_edges(), 7u);
  EXPECT_EQ(u.NodeLabelString(0), "x");
  EXPECT_EQ(u.NodeLabelString(3), "y");
  auto wcc = WeaklyConnectedComponentsCsr(CsrSnapshot::FromGraph(u));
  EXPECT_EQ(wcc.num_components, 2u);
}

TEST(TransformTest, UnionedTrianglesMatchHexagonFingerprintStory) {
  // Build "two triangles" via DisjointUnion and reproduce the classic
  // 1-WL collision with the hexagon.
  LabeledGraph triangle = Cycle(3, "n", "e");
  LabeledGraph two = DisjointUnion(triangle, triangle);
  EXPECT_EQ(WlGraphFingerprint(two),
            WlGraphFingerprint(Cycle(6, "n", "e")));
}

}  // namespace
}  // namespace kgq
