#include "analytics/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/figure2.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "rpq/parser.h"
#include "rpq/reference_eval.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

// Brute-force classical betweenness from the definition, for validation.
std::vector<double> BruteForceBc(const Multigraph& g, EdgeDirection dir) {
  size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    auto fwd = CountShortestPaths(g, a, dir);
    for (NodeId b = 0; b < n; ++b) {
      if (b == a || fwd.dist[b] == kUnreachable || fwd.dist[b] == 0) continue;
      // σ_ab(x): via the standard identity σ_ab(x) = σ_ax · σ_xb when
      // d(a,x) + d(x,b) = d(a,b).
      auto from_b = CountShortestPaths(g, b, dir == EdgeDirection::kDirected
                                                  ? EdgeDirection::kDirected
                                                  : EdgeDirection::kUndirected);
      for (NodeId x = 0; x < n; ++x) {
        if (x == a || x == b) continue;
        // For directed graphs we need distances *to* b, so recompute
        // from x instead.
        auto from_x = CountShortestPaths(g, x, dir);
        if (fwd.dist[x] == kUnreachable || from_x.dist[b] == kUnreachable) {
          continue;
        }
        if (fwd.dist[x] + from_x.dist[b] != fwd.dist[b]) continue;
        bc[x] += fwd.count[x] * from_x.count[b] / fwd.count[b];
      }
    }
  }
  return bc;
}

TEST(BetweennessTest, PathGraphMiddleDominates) {
  Multigraph g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1).value();
  std::vector<double> bc = BetweennessCentrality(
      CsrSnapshot::FromTopology(g), EdgeDirection::kDirected);
  // Directed path a→b→c→d→e: interior node x on all pairs crossing it.
  EXPECT_EQ(bc[0], 0.0);
  EXPECT_EQ(bc[4], 0.0);
  EXPECT_EQ(bc[2], 4.0);  // Pairs (0..1)×(3..4) = 4, each σ=1.
  EXPECT_EQ(bc[1], 3.0);  // (0,2),(0,3),(0,4).
}

TEST(BetweennessTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    LabeledGraph g = ErdosRenyi(12, 28, {"n"}, {"e"}, &rng);
    for (EdgeDirection dir :
         {EdgeDirection::kDirected, EdgeDirection::kUndirected}) {
      std::vector<double> fast =
          BetweennessCentrality(CsrSnapshot::FromGraph(g), dir);
      std::vector<double> brute = BruteForceBc(g.topology(), dir);
      ASSERT_EQ(fast.size(), brute.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], brute[i], 1e-6) << "trial " << trial;
      }
    }
  }
}

// Brute-force bc_r straight from the Section 4.2 definition, using the
// reference evaluator.
std::vector<double> BruteForceBcr(const GraphView& view, const Regex& r,
                                  size_t max_len) {
  size_t n = view.num_nodes();
  std::vector<Path> all = EvalReference(view, r, max_len);
  std::vector<double> bc(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (b == a) continue;
      // Shortest conforming a→b paths.
      size_t best = max_len + 1;
      for (const Path& p : all) {
        if (p.Start() == a && p.End() == b) best = std::min(best, p.Length());
      }
      if (best == 0 || best > max_len) continue;
      std::vector<const Path*> shortest;
      for (const Path& p : all) {
        if (p.Start() == a && p.End() == b && p.Length() == best) {
          shortest.push_back(&p);
        }
      }
      for (NodeId x = 0; x < n; ++x) {
        if (x == a || x == b) continue;
        double through = 0.0;
        for (const Path* p : shortest) {
          if (p->Contains(x)) through += 1.0;
        }
        bc[x] += through / static_cast<double>(shortest.size());
      }
    }
  }
  return bc;
}

TEST(BetweennessTest, PivotSamplingConverges) {
  Rng gen(12);
  LabeledGraph g = BarabasiAlbert(150, 3, {"n"}, {"e"}, &gen);
  const CsrSnapshot csr = CsrSnapshot::FromGraph(g);
  std::vector<double> exact =
      BetweennessCentrality(csr, EdgeDirection::kUndirected);
  // All pivots = exact (up to float noise).
  Rng full_rng(1);
  std::vector<double> full = ApproxBetweennessCentrality(
      csr, EdgeDirection::kUndirected, g.num_nodes(), &full_rng);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(full[i], exact[i], 1e-6);
  }
  // A quarter of the pivots still ranks the top node correctly and has
  // bounded aggregate error.
  Rng quarter_rng(2);
  std::vector<double> approx = ApproxBetweennessCentrality(
      csr, EdgeDirection::kUndirected, 40, &quarter_rng);
  size_t top_exact =
      std::max_element(exact.begin(), exact.end()) - exact.begin();
  size_t top_approx =
      std::max_element(approx.begin(), approx.end()) - approx.begin();
  EXPECT_EQ(top_exact, top_approx);
  double num = 0, den = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    num += std::fabs(approx[i] - exact[i]);
    den += exact[i];
  }
  EXPECT_LT(num / den, 0.35);
}

TEST(BetweennessTest, PivotSamplingEdgeCases) {
  CsrSnapshot empty;
  Rng rng(1);
  EXPECT_TRUE(ApproxBetweennessCentrality(empty, EdgeDirection::kDirected, 5,
                                          &rng)
                  .empty());
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  auto zero = ApproxBetweennessCentrality(CsrSnapshot::FromTopology(g),
                                          EdgeDirection::kDirected, 0, &rng);
  for (double v : zero) EXPECT_EQ(v, 0.0);
}

TEST(RegexBetweennessTest, MatchesBruteForceOnFigure2) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  for (const std::string q :
       {"?person/rides/?bus/rides^-/?person",
        "(rides+rides^-+contact+lives)*",
        "(contact+contact^-)*"}) {
    RegexPtr regex = Parse(q);
    BcrOptions opts;
    opts.max_path_length = 6;
    Result<std::vector<double>> got = RegexBetweenness(view, *regex, opts);
    ASSERT_TRUE(got.ok()) << q;
    std::vector<double> want = BruteForceBcr(view, *regex, 6);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i], want[i], 1e-9) << q << " node " << i;
    }
  }
}

TEST(RegexBetweennessTest, BusIsCentralForTransportQuery) {
  // The paper's Section 4.2 example: with r = ?person/rides/?bus/
  // rides^-/?person, the centrality of the bus counts only its role as a
  // transport service; the company and ownership edges contribute 0.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<std::vector<double>> bc = RegexBetweenness(
      view, *Parse("?person/rides/?bus/rides^-/?person"), {});
  ASSERT_TRUE(bc.ok());
  EXPECT_GT((*bc)[fig2::kBus], 0.0);
  // Juan, Rosa: endpoints only. Company: never on a conforming path.
  EXPECT_EQ((*bc)[fig2::kCompany], 0.0);
  EXPECT_EQ((*bc)[fig2::kJuan], 0.0);
  // σ over person pairs (Juan, Ana... wait: Ana does not ride) —
  // conforming pairs are (Juan,Rosa),(Rosa,Juan), each with a single
  // shortest path through the bus: bc = 2.
  EXPECT_EQ((*bc)[fig2::kBus], 2.0);
}

TEST(RegexBetweennessTest, LabelsChangeTheRanking) {
  // Classical bc on the undirected topology ranks by pure connectivity;
  // the regex restriction can demote a topologically central node.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<double> classic = BetweennessCentrality(
      CsrSnapshot::FromGraph(g), EdgeDirection::kUndirected);
  Result<std::vector<double>> transport = RegexBetweenness(
      view, *Parse("?person/rides/?bus/rides^-/?person"), {});
  ASSERT_TRUE(transport.ok());
  // Classically Ana has centrality (she bridges Rosa to Juan), but for
  // the transport query she is worthless.
  EXPECT_GT(classic[fig2::kAna], 0.0);
  EXPECT_EQ((*transport)[fig2::kAna], 0.0);
}

TEST(RegexBetweennessTest, ApproxTracksExact) {
  Rng rng(67);
  LabeledGraph g = ErdosRenyi(14, 40, {"p", "b"}, {"r", "c"}, &rng);
  LabeledGraphView view(g);
  RegexPtr regex = Parse("(r+c/c^-)*");
  BcrOptions opts;
  opts.max_path_length = 6;
  Result<std::vector<double>> exact = RegexBetweenness(view, *regex, opts);
  ASSERT_TRUE(exact.ok());
  Rng approx_rng(99);
  Result<std::vector<double>> approx =
      RegexBetweennessApprox(view, *regex, opts, &approx_rng);
  ASSERT_TRUE(approx.ok());

  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < exact->size(); ++i) {
    num += std::fabs((*approx)[i] - (*exact)[i]);
    den += (*exact)[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(num / den, 0.35);  // Aggregate relative L1 error.

  // Spearman-style sanity: the top exact node should be near the top of
  // the approximate ranking.
  size_t exact_top = std::max_element(exact->begin(), exact->end()) -
                     exact->begin();
  std::vector<size_t> order(approx->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*approx)[a] > (*approx)[b];
  });
  size_t rank = std::find(order.begin(), order.end(), exact_top) -
                order.begin();
  EXPECT_LT(rank, 3u);
}

}  // namespace
}  // namespace kgq
