#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/densest.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "graph/generators.h"

namespace kgq {
namespace {

Multigraph Topo(const LabeledGraph& g) { return g.topology(); }

// ---------------------------------------------------------- shortest paths

TEST(ShortestPathsTest, GridDistances) {
  LabeledGraph g = Grid(4, 3, "n", "e");  // Right/down directed edges.
  auto dist = BfsDistances(g.topology(), 0, EdgeDirection::kDirected);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[3], 3u);        // Right edge of the first row.
  EXPECT_EQ(dist[11], 3u + 2u);  // Bottom-right corner: 3 right + 2 down.
  // Directed grid: nothing reaches node 0 except itself.
  auto back = BfsDistances(g.topology(), 11, EdgeDirection::kDirected);
  EXPECT_EQ(back[0], kUnreachable);
  auto undirected = BfsDistances(g.topology(), 11, EdgeDirection::kUndirected);
  EXPECT_EQ(undirected[0], 5u);
}

TEST(ShortestPathsTest, CountsOnGrid) {
  LabeledGraph g = Grid(3, 3, "n", "e");
  auto counts = CountShortestPaths(g.topology(), 0, EdgeDirection::kDirected);
  // Paths to (x,y) = C(x+y, x) in a grid.
  EXPECT_EQ(counts.count[8], 6.0);  // (2,2): C(4,2).
  EXPECT_EQ(counts.count[4], 2.0);  // (1,1).
  EXPECT_EQ(counts.count[2], 1.0);  // (2,0).
}

TEST(ShortestPathsTest, ParallelEdgesMultiplyCounts) {
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  g.AddEdge(0, 1).value();
  g.AddEdge(1, 2).value();
  auto counts = CountShortestPaths(g, 0, EdgeDirection::kDirected);
  EXPECT_EQ(counts.count[2], 2.0);  // Two parallel first hops.
}

TEST(ShortestPathsTest, DiameterOfCycle) {
  LabeledGraph g = Cycle(7, "n", "e");
  EXPECT_EQ(Diameter(g.topology(), EdgeDirection::kDirected), 6u);
  EXPECT_EQ(Diameter(g.topology(), EdgeDirection::kUndirected), 3u);
  Multigraph empty;
  EXPECT_FALSE(Diameter(empty, EdgeDirection::kDirected).has_value());
}

// -------------------------------------------------------------- components

TEST(ComponentsTest, WeakComponents) {
  Multigraph g(6);
  g.AddEdge(0, 1).value();
  g.AddEdge(2, 1).value();  // 0,1,2 weakly connected.
  g.AddEdge(3, 4).value();  // 3,4 connected; 5 isolated.
  ComponentAssignment wcc =
      WeaklyConnectedComponentsCsr(CsrSnapshot::FromTopology(g));
  EXPECT_EQ(wcc.num_components, 3u);
  EXPECT_EQ(wcc.component[0], wcc.component[1]);
  EXPECT_EQ(wcc.component[1], wcc.component[2]);
  EXPECT_EQ(wcc.component[3], wcc.component[4]);
  EXPECT_NE(wcc.component[0], wcc.component[3]);
  EXPECT_NE(wcc.component[5], wcc.component[0]);
}

TEST(ComponentsTest, StrongComponentsCycleAndTail) {
  Multigraph g(5);
  g.AddEdge(0, 1).value();
  g.AddEdge(1, 2).value();
  g.AddEdge(2, 0).value();  // 3-cycle.
  g.AddEdge(2, 3).value();  // Tail 3 → 4.
  g.AddEdge(3, 4).value();
  ComponentAssignment scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 3u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_NE(scc.component[3], scc.component[0]);
  EXPECT_NE(scc.component[4], scc.component[3]);
}

TEST(ComponentsTest, StrongComponentsOnLargeCycleNoOverflow) {
  // Deep recursion would crash a recursive Tarjan; ours is iterative.
  LabeledGraph g = Cycle(200000, "n", "e");
  ComponentAssignment scc = StronglyConnectedComponents(g.topology());
  EXPECT_EQ(scc.num_components, 1u);
}

// ---------------------------------------------------------------- pagerank

TEST(PageRankTest, SumsToOneAndRanksHubs) {
  Rng rng(5);
  LabeledGraph g = BarabasiAlbert(200, 3, {"n"}, {"e"}, &rng);
  std::vector<double> pr = PageRank(CsrSnapshot::FromGraph(g));
  double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Preferential attachment: early nodes should dominate the tail.
  double early = pr[0] + pr[1] + pr[2];
  double late = pr[197] + pr[198] + pr[199];
  EXPECT_GT(early, late);
}

TEST(PageRankTest, SymmetricCycleIsUniform) {
  LabeledGraph g = Cycle(10, "n", "e");
  std::vector<double> pr = PageRank(CsrSnapshot::FromGraph(g));
  for (double v : pr) EXPECT_NEAR(v, 0.1, 1e-9);
}

TEST(PageRankTest, DanglingMassHandled) {
  Multigraph g(2);
  g.AddEdge(0, 1).value();  // Node 1 dangles.
  std::vector<double> pr = PageRank(CsrSnapshot::FromTopology(g));
  EXPECT_NEAR(pr[0] + pr[1], 1.0, 1e-9);
  EXPECT_GT(pr[1], pr[0]);  // 1 receives everything 0 emits.
}

TEST(HitsTest, StarHubAndAuthority) {
  // One hub pointing at three authorities.
  Multigraph g(4);
  g.AddEdge(0, 1).value();
  g.AddEdge(0, 2).value();
  g.AddEdge(0, 3).value();
  HitsScores scores = Hits(CsrSnapshot::FromTopology(g));
  EXPECT_GT(scores.hub[0], 0.99);
  EXPECT_NEAR(scores.hub[1], 0.0, 1e-9);
  EXPECT_NEAR(scores.authority[1], scores.authority[2], 1e-9);
  EXPECT_NEAR(scores.authority[0], 0.0, 1e-9);
}

// -------------------------------------------------------------- clustering

TEST(ClusteringTest, TriangleIsFullyClustered) {
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  g.AddEdge(1, 2).value();
  g.AddEdge(2, 0).value();
  std::vector<double> c = ClusteringCoefficients(g);
  for (double v : c) EXPECT_EQ(v, 1.0);
  EXPECT_EQ(AverageClusteringCoefficient(g), 1.0);
}

TEST(ClusteringTest, PathHasNoTriangles) {
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  g.AddEdge(1, 2).value();
  EXPECT_EQ(AverageClusteringCoefficient(g), 0.0);
}

TEST(ClusteringTest, ParallelEdgesAndLoopsIgnored) {
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  g.AddEdge(0, 1).value();  // Parallel.
  g.AddEdge(1, 2).value();
  g.AddEdge(2, 0).value();
  g.AddEdge(1, 1).value();  // Self-loop.
  std::vector<double> c = ClusteringCoefficients(g);
  EXPECT_EQ(c[1], 1.0);
}

TEST(ClusteringTest, LabelPropagationFindsTwoCliques) {
  // Two 6-cliques joined by one bridge edge.
  Multigraph g(12);
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) {
      g.AddEdge(i, j).value();
      g.AddEdge(i + 6, j + 6).value();
    }
  }
  g.AddEdge(0, 6).value();
  Rng rng(11);
  std::vector<uint32_t> comm = LabelPropagationCommunities(g, 50, &rng);
  std::set<uint32_t> left(comm.begin(), comm.begin() + 6);
  std::set<uint32_t> right(comm.begin() + 6, comm.end());
  EXPECT_EQ(left.size(), 1u);
  EXPECT_EQ(right.size(), 1u);
  EXPECT_NE(*left.begin(), *right.begin());
}

// ----------------------------------------------------------------- densest

TEST(DensestTest, CliquePlusTailFindsClique) {
  // 5-clique (density 2.0) plus a long tail.
  Multigraph g(10);
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) g.AddEdge(i, j).value();
  }
  for (NodeId i = 5; i < 10; ++i) g.AddEdge(i - 1, i).value();
  DenseSubgraph greedy = DensestSubgraphPeel(g);
  DenseSubgraph exact = DensestSubgraphExact(g);
  EXPECT_EQ(exact.density, 2.0);
  EXPECT_EQ(greedy.density, 2.0);
  EXPECT_EQ(std::set<NodeId>(greedy.nodes.begin(), greedy.nodes.end()),
            (std::set<NodeId>{0, 1, 2, 3, 4}));
}

TEST(DensestTest, GreedyWithinFactorTwoOfExact) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g = ErdosRenyi(12, 30, {"n"}, {"e"}, &rng);
    DenseSubgraph greedy = DensestSubgraphPeel(Topo(g));
    DenseSubgraph exact = DensestSubgraphExact(Topo(g));
    EXPECT_GE(greedy.density * 2.0 + 1e-9, exact.density) << trial;
    EXPECT_LE(greedy.density, exact.density + 1e-9) << trial;
  }
}

TEST(DensestTest, EmptyGraph) {
  Multigraph g;
  EXPECT_EQ(DensestSubgraphPeel(g).density, 0.0);
  EXPECT_TRUE(DensestSubgraphPeel(g).nodes.empty());
}

}  // namespace
}  // namespace kgq
