#include <gtest/gtest.h>

#include <cmath>

#include "datasets/figure2.h"
#include "gnn/acgnn.h"
#include "gnn/logic_to_gnn.h"
#include "gnn/matrix.h"
#include "gnn/spmm.h"
#include "gnn/wl.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "logic/modal.h"

namespace kgq {
namespace {

// ------------------------------------------------------------------ matrix

TEST(MatrixTest, MultiplyAccumulate) {
  Matrix m(2, 3);
  m.at(0, 0) = 1.0;
  m.at(0, 2) = 2.0;
  m.at(1, 1) = -1.0;
  double vec[3] = {10.0, 20.0, 30.0};
  double out[2] = {1.0, 1.0};
  m.MultiplyAccumulate(vec, out);
  EXPECT_EQ(out[0], 1.0 + 10.0 + 60.0);
  EXPECT_EQ(out[1], 1.0 - 20.0);
}

TEST(MatrixTest, GaussianFill) {
  Rng rng(3);
  Matrix m(30, 30);
  m.FillGaussian(&rng, 0.5);
  double sum = 0.0;
  for (size_t r = 0; r < 30; ++r) {
    for (size_t c = 0; c < 30; ++c) sum += m.at(r, c);
  }
  EXPECT_NE(sum, 0.0);
  EXPECT_LT(std::fabs(sum / 900.0), 0.1);  // Mean near zero.
}

// ------------------------------------------------------------------ AC-GNN

TEST(AcGnnTest, OneHotLabels) {
  LabeledGraph g = Figure2Labeled();
  Matrix x = AcGnn::OneHotLabels(g, {"person", "bus", "infected"});
  EXPECT_EQ(x.rows(), g.num_nodes());
  EXPECT_EQ(x.cols(), 3u);
  EXPECT_EQ(x.at(fig2::kJuan, 0), 1.0);
  EXPECT_EQ(x.at(fig2::kJuan, 1), 0.0);
  EXPECT_EQ(x.at(fig2::kBus, 1), 1.0);
  EXPECT_EQ(x.at(fig2::kPedro, 2), 1.0);
  EXPECT_EQ(x.at(fig2::kCompany, 0), 0.0);  // "company" not in universe.
}

TEST(AcGnnTest, DimensionValidation) {
  const CsrSnapshot g = CsrSnapshot::FromGraph(Figure2Labeled());
  AcGnn gnn(4);
  Matrix wrong(g.num_nodes(), 3);
  EXPECT_FALSE(gnn.Run(g, wrong).ok());
  AcGnn gnn2(2);
  gnn2.AddLayer(2);
  Matrix right(g.num_nodes(), 2);
  EXPECT_TRUE(gnn2.Run(g, right).ok());
  // Readout width mismatch.
  gnn2.SetReadout({1.0}, 0.0);
  EXPECT_FALSE(gnn2.Classify(g, right).ok());
}

TEST(AcGnnTest, SingleLayerCountsNeighbors) {
  // x'_v = σ(Σ_in x_u) with scalar features x = 1 everywhere: nodes with
  // at least one in-edge output 1 (truncation caps at 1).
  const CsrSnapshot g = CsrSnapshot::FromGraph(Figure2Labeled());
  AcGnn gnn(1);
  GnnLayer& layer = gnn.AddLayer(1);
  layer.in_rel.emplace_back("", Matrix(1, 1));
  layer.in_rel[0].second.at(0, 0) = 1.0;
  Matrix x(g.num_nodes(), 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) x.at(v, 0) = 1.0;
  Result<Matrix> out = gnn.Run(g, x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at(fig2::kBus, 0), 1.0);     // Many in-edges.
  EXPECT_EQ(out->at(fig2::kCompany, 0), 0.0);  // No in-edges.
}

TEST(AcGnnTest, RelationFilteredAggregation) {
  const CsrSnapshot g = CsrSnapshot::FromGraph(Figure2Labeled());
  AcGnn gnn(1);
  GnnLayer& layer = gnn.AddLayer(1);
  layer.in_rel.emplace_back("owns", Matrix(1, 1));
  layer.in_rel[0].second.at(0, 0) = 1.0;
  Matrix x(g.num_nodes(), 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) x.at(v, 0) = 1.0;
  Result<Matrix> out = gnn.Run(g, x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at(fig2::kBus, 0), 1.0);  // Owned by the company.
  EXPECT_EQ(out->at(fig2::kAna, 0), 0.0);  // In-edges, but none "owns".
}

// --------------------------------------------------------------- compiler

ModalPtr PossiblyInfectedModal() {
  return ModalFormula::And(
      ModalFormula::Label("person"),
      ModalFormula::Diamond(
          "rides", 1,
          ModalFormula::And(ModalFormula::Label("bus"),
                            ModalFormula::DiamondInv(
                                "rides", 1,
                                ModalFormula::Label("infected")))));
}

TEST(LogicToGnnTest, PaperExampleCompilesAndAgrees) {
  LabeledGraph g = Figure2Labeled();
  Result<CompiledGnn> compiled = CompileModalToGnn(*PossiblyInfectedModal());
  ASSERT_TRUE(compiled.ok());
  Result<Bitset> gnn_answer = compiled->Evaluate(g);
  ASSERT_TRUE(gnn_answer.ok());
  EXPECT_EQ(*gnn_answer, EvalModal(g, *PossiblyInfectedModal()));
  EXPECT_EQ(gnn_answer->Count(), 2u);
}

TEST(LogicToGnnTest, ExactAgreementAcrossFormulaSuite) {
  Rng rng(555);
  std::vector<ModalPtr> formulas = {
      ModalFormula::Label("p"),
      ModalFormula::True(),
      ModalFormula::Not(ModalFormula::Label("p")),
      ModalFormula::And(ModalFormula::Label("p"), ModalFormula::Label("p")),
      ModalFormula::Or(ModalFormula::Label("p"),
                       ModalFormula::Not(ModalFormula::Label("q"))),
      ModalFormula::Diamond("a", 1, ModalFormula::True()),
      ModalFormula::Diamond("a", 2, ModalFormula::Label("p")),
      ModalFormula::DiamondInv("b", 3, ModalFormula::True()),
      ModalFormula::Diamond(
          "a", 1,
          ModalFormula::And(
              ModalFormula::Label("q"),
              ModalFormula::Diamond("b", 2, ModalFormula::Label("p")))),
      ModalFormula::Not(ModalFormula::Diamond(
          "a", 1, ModalFormula::Not(ModalFormula::Label("p")))),
      ModalFormula::Diamond("", 2, ModalFormula::True()),  // Any label.
  };
  for (int trial = 0; trial < 6; ++trial) {
    LabeledGraph g = ErdosRenyi(15, 45, {"p", "q", "r"}, {"a", "b"}, &rng);
    for (const ModalPtr& f : formulas) {
      Result<CompiledGnn> compiled = CompileModalToGnn(*f);
      ASSERT_TRUE(compiled.ok()) << f->ToString();
      Result<Bitset> got = compiled->Evaluate(g);
      ASSERT_TRUE(got.ok()) << f->ToString();
      EXPECT_EQ(*got, EvalModal(g, *f))
          << "formula " << f->ToString() << " trial " << trial;
    }
  }
}

TEST(LogicToGnnTest, LayerCountMatchesReadiness) {
  // Boolean structure above diamonds costs layers too.
  ModalPtr f = ModalFormula::Not(ModalFormula::And(
      ModalFormula::Diamond("a", 1, ModalFormula::Label("p")),
      ModalFormula::True()));
  Result<CompiledGnn> compiled = CompileModalToGnn(*f);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GE(compiled->gnn.num_layers(), 3u);  // diamond → and → not.
}

// --------------------------------------------------------------------- WL

TEST(WlTest, RefinementDistinguishesByDegree) {
  // A directed star: the center differs from the leaves.
  LabeledGraph g;
  NodeId center = g.AddNode("n");
  for (int i = 0; i < 4; ++i) {
    NodeId leaf = g.AddNode("n");
    g.AddEdge(center, leaf, "e").value();
  }
  WlResult wl = WlColorRefinement(g);
  EXPECT_EQ(wl.num_colors, 2u);
  EXPECT_NE(wl.colors[center], wl.colors[1]);
  EXPECT_EQ(wl.colors[1], wl.colors[2]);
}

TEST(WlTest, CycleIsColorUniform) {
  LabeledGraph g = Cycle(6, "n", "e");
  WlResult wl = WlColorRefinement(g);
  EXPECT_EQ(wl.num_colors, 1u);
}

TEST(WlTest, LabelsSeedThePartition) {
  LabeledGraph g = Cycle(6, "n", "e");
  WlResult uniform = WlColorRefinement(g);
  EXPECT_EQ(uniform.num_colors, 1u);
  // Recolor one node: the symmetry breaks and colors spread.
  LabeledGraph g2;
  g2.AddNode("special");
  for (int i = 1; i < 6; ++i) g2.AddNode("n");
  for (int i = 0; i < 6; ++i) {
    g2.AddEdge(i, (i + 1) % 6, "e").value();
  }
  WlResult broken = WlColorRefinement(g2);
  EXPECT_GT(broken.num_colors, 1u);
}

TEST(WlTest, ClassicExpressivenessBoundary) {
  // Two triangles vs one hexagon: 1-WL cannot tell them apart (all nodes
  // 1-in 1-out, same label) although they are not isomorphic — the
  // canonical limitation inherited by GNNs (Section 4.3).
  LabeledGraph two_triangles;
  for (int i = 0; i < 6; ++i) two_triangles.AddNode("n");
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 3; ++i) {
      two_triangles.AddEdge(t * 3 + i, t * 3 + (i + 1) % 3, "e").value();
    }
  }
  LabeledGraph hexagon = Cycle(6, "n", "e");
  EXPECT_EQ(WlGraphFingerprint(two_triangles), WlGraphFingerprint(hexagon));
  // But a pentagon differs (node count, for one).
  EXPECT_NE(WlGraphFingerprint(hexagon), WlGraphFingerprint(Cycle(5, "n", "e")));
}

TEST(WlTest, FingerprintSeparatesLabelings) {
  LabeledGraph a = Cycle(4, "n", "e");
  LabeledGraph b = Cycle(4, "n", "f");  // Different edge label.
  EXPECT_NE(WlGraphFingerprint(a), WlGraphFingerprint(b));
}

TEST(WlTest, WlEquivalentNodesGetEqualGnnFeatures) {
  // Fundamental invariance (Morris et al. / Xu et al.): ANY AC-GNN maps
  // 1-WL-equivalent nodes to identical feature vectors.
  Rng rng(2718);
  for (int trial = 0; trial < 5; ++trial) {
    LabeledGraph g = ErdosRenyi(16, 40, {"p", "q"}, {"a", "b"}, &rng);
    WlResult wl = WlColorRefinement(g);

    AcGnn gnn(2);
    for (int l = 0; l < 3; ++l) {
      GnnLayer& layer = gnn.AddLayer(4);
      layer.self = Matrix(4, l == 0 ? 2 : 4);
      layer.in_rel.emplace_back("a", Matrix(4, l == 0 ? 2 : 4));
      layer.in_rel.emplace_back("b", Matrix(4, l == 0 ? 2 : 4));
      layer.out_rel.emplace_back("a", Matrix(4, l == 0 ? 2 : 4));
      layer.out_rel.emplace_back("b", Matrix(4, l == 0 ? 2 : 4));
      layer.bias.assign(4, 0.0);
    }
    gnn.Randomize(&rng);

    Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});
    Result<Matrix> out = gnn.Run(CsrSnapshot::FromGraph(g), x);
    ASSERT_TRUE(out.ok());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (wl.colors[u] != wl.colors[v]) continue;
        for (size_t c = 0; c < out->cols(); ++c) {
          ASSERT_NEAR(out->at(u, c), out->at(v, c), 1e-9)
              << "nodes " << u << "," << v << " trial " << trial;
        }
      }
    }
  }
}

// ---------------------------------------------------------- dense kernels

TEST(MatrixTest, GemmTransBHandComputed) {
  // Dyadic values only — every product and sum is exact, so the check
  // is EXPECT_EQ, not NEAR. out += x·wᵀ with x 2×2, w 3×2.
  Matrix x(2, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  x.at(1, 0) = -0.5;
  x.at(1, 1) = 4.0;
  Matrix w(3, 2);
  w.at(0, 0) = 1.0;
  w.at(0, 1) = 0.25;
  w.at(1, 0) = -2.0;
  w.at(1, 1) = 0.5;
  w.at(2, 0) = 8.0;
  w.at(2, 1) = 1.0;
  Matrix out(2, 3);
  out.at(0, 0) = 10.0;  // Accumulates, does not overwrite.
  GemmTransB(x, w, &out);
  EXPECT_EQ(out.at(0, 0), 10.0 + 1.0 * 1.0 + 2.0 * 0.25);
  EXPECT_EQ(out.at(0, 1), -2.0 + 1.0);
  EXPECT_EQ(out.at(0, 2), 8.0 + 2.0);
  EXPECT_EQ(out.at(1, 0), -0.5 + 1.0);
  EXPECT_EQ(out.at(1, 1), 1.0 + 2.0);
  EXPECT_EQ(out.at(1, 2), -4.0 + 4.0);
}

TEST(MatrixTest, GemmTransBMatchesMultiplyAccumulate) {
  // The blocked GEMM must reproduce the per-row reference bit-for-bit
  // (same per-element accumulation order), at every thread count and at
  // shapes exercising both the 4-wide blocks and the remainder columns.
  Rng rng(808);
  for (auto [n, m, k] : {std::tuple<size_t, size_t, size_t>{5, 7, 3},
                         {70, 9, 16},
                         {130, 4, 8},
                         {64, 6, 1}}) {
    Matrix x(n, k), w(m, k);
    x.FillGaussian(&rng, 1.0);
    w.FillGaussian(&rng, 1.0);
    Matrix ref(n, m);
    for (size_t i = 0; i < n; ++i) w.MultiplyAccumulate(x.row(i), ref.row(i));
    for (size_t t : {size_t{1}, size_t{4}}) {
      Matrix out(n, m);
      GemmTransB(x, w, &out, ParallelOptions{t});
      EXPECT_EQ(ref, out) << n << "x" << k << "·" << m << " threads=" << t;
    }
  }
}

TEST(MatrixTest, RandomInitThreadCountInvariant) {
  // Row r is drawn from Rng::Substream(seed, r): the fill depends only
  // on (seed, shape), never the thread count.
  Matrix a(100, 7), b(100, 7);
  a.RandomInit(0xFEED, 0.5, ParallelOptions{1});
  b.RandomInit(0xFEED, 0.5, ParallelOptions{8});
  EXPECT_EQ(a, b);
  // Different seeds diverge.
  Matrix c(100, 7);
  c.RandomInit(0xFEEE, 0.5, ParallelOptions{1});
  EXPECT_FALSE(a == c);
  // Row streams are independent of the row count: a taller matrix
  // shares its prefix rows with a shorter one.
  Matrix d(40, 7);
  d.RandomInit(0xFEED, 0.5);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t cidx = 0; cidx < 7; ++cidx) {
      ASSERT_EQ(a.at(r, cidx), d.at(r, cidx));
    }
  }
}

TEST(SpmmTest, AggregationMatchesHandComputedSums) {
  // person0 --a--> person1, person0 --a--> person2, person1 --b-->
  // person2; dyadic features, exact expectations.
  LabeledGraph g;
  g.AddNode("p");
  g.AddNode("p");
  g.AddNode("p");
  g.AddEdge(0, 1, "a").value();
  g.AddEdge(0, 2, "a").value();
  g.AddEdge(1, 2, "b").value();
  Matrix f(3, 2);
  for (NodeId v = 0; v < 3; ++v) {
    f.at(v, 0) = 1.0 + v;
    f.at(v, 1) = 0.25 * (v + 1);
  }
  const CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  auto agg = [&](const std::string& rel, bool incoming) {
    Matrix out(3, 2);
    SpmmAggregateCsr(snap, f, rel, incoming, &out);
    return out;
  };
  Matrix in_a = agg("a", true);
  EXPECT_EQ(in_a.at(0, 0), 0.0);
  EXPECT_EQ(in_a.at(1, 0), 1.0);  // From node 0.
  EXPECT_EQ(in_a.at(2, 0), 1.0);
  Matrix out_any = agg("", false);
  EXPECT_EQ(out_any.at(0, 0), 2.0 + 3.0);  // Nodes 1 and 2.
  EXPECT_EQ(out_any.at(0, 1), 0.5 + 0.75);
  EXPECT_EQ(out_any.at(1, 0), 3.0);
  EXPECT_EQ(out_any.at(2, 0), 0.0);
  // Unknown label aggregates nothing.
  Matrix ghost = agg("ghost", true);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(ghost.at(v, 0), 0.0);
}

// ------------------------------------------------------- pinned regressions

// Golden values captured from the original per-node implementation; the
// batched substrate must reproduce them exactly (EXPECT_DOUBLE_EQ = a
// few ULP of libm headroom on transcendental-dependent values; integral
// outputs are EXPECT_EQ).

TEST(AcGnnTest, PinnedForwardGolden) {
  Rng gen(4242);
  LabeledGraph g = ErdosRenyi(12, 30, {"p", "q"}, {"a", "b"}, &gen);
  AcGnn gnn(2);
  for (int l = 0; l < 2; ++l) {
    size_t in = l == 0 ? 2 : 3;
    GnnLayer& layer = gnn.AddLayer(3);
    layer.self = Matrix(3, in);
    layer.in_rel.emplace_back("a", Matrix(3, in));
    layer.in_rel.emplace_back("", Matrix(3, in));
    layer.out_rel.emplace_back("b", Matrix(3, in));
    layer.bias.assign(3, 0.0);
  }
  Rng wr(777);
  gnn.Randomize(&wr, 0.6);
  Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});
  Matrix out = *gnn.Run(CsrSnapshot::FromGraph(g), x);
  EXPECT_EQ(out.at(0, 0), 0.0);
  EXPECT_EQ(out.at(0, 1), 1.0);
  EXPECT_EQ(out.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.at(3, 1), 0.92938104190699822);
  EXPECT_DOUBLE_EQ(out.at(7, 1), 0.10603262486215814);
  EXPECT_EQ(out.at(11, 0), 0.0);
  EXPECT_EQ(out.at(11, 1), 0.0);
  EXPECT_EQ(out.at(11, 2), 1.0);
}

TEST(WlTest, PinnedColorGoldens) {
  // LayeredDag(3, 4): the refinement discovers the layers one round at
  // a time — 4 colors, one per layer, in first-appearance order.
  LabeledGraph dag = LayeredDag(3, 4, "p", "a");
  WlResult wl = WlColorRefinement(dag);
  EXPECT_EQ(wl.num_colors, 4u);
  EXPECT_EQ(wl.rounds, 3u);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(wl.colors[v], v / 4) << "node " << v;
  }
  // Cycle(8): perfectly symmetric — one color, one (stabilizing) round.
  WlResult cyc = WlColorRefinement(Cycle(8, "p", "a"));
  EXPECT_EQ(cyc.num_colors, 1u);
  EXPECT_EQ(cyc.rounds, 1u);
}

// ----------------------------------------------------- backend equivalence

TEST(AcGnnTest, BackendsBitIdentical) {
  Rng rng(606);
  LabeledGraph g = ErdosRenyi(18, 50, {"p", "q"}, {"a", "b"}, &rng);
  const CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  AcGnn gnn(2);
  for (int l = 0; l < 2; ++l) {
    size_t in = l == 0 ? 2 : 4;
    GnnLayer& layer = gnn.AddLayer(4);
    layer.self = Matrix(4, in);
    layer.in_rel.emplace_back("a", Matrix(4, in));
    layer.out_rel.emplace_back("", Matrix(4, in));
    layer.bias.assign(4, 0.0);
  }
  gnn.Randomize(&rng);
  Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});

  GnnOptions ref_opts;
  ref_opts.backend = GnnBackend::kNodeLoop;
  ref_opts.parallel.num_threads = 1;
  Matrix ref = *gnn.Run(snap, x, ref_opts);

  for (GnnBackend backend : {GnnBackend::kNodeLoop, GnnBackend::kGemm}) {
    for (size_t t : {size_t{1}, size_t{4}}) {
      GnnOptions opts;
      opts.backend = backend;
      opts.parallel.num_threads = t;
      EXPECT_EQ(ref, *gnn.Run(snap, x, opts))
          << "backend=" << static_cast<int>(backend) << " threads=" << t;
    }
  }
}

TEST(WlTest, CompiledGnnIsWlInvariantToo) {
  // Corollary chain of Section 4.3: logic ⊆ GNN ⊆ WL — so the *logic*
  // cannot separate WL-equivalent nodes either.
  Rng rng(31415);
  ModalPtr f = ModalFormula::Diamond(
      "a", 1, ModalFormula::Or(ModalFormula::Label("p"),
                               ModalFormula::DiamondInv(
                                   "b", 1, ModalFormula::Label("q"))));
  for (int trial = 0; trial < 5; ++trial) {
    LabeledGraph g = ErdosRenyi(14, 35, {"p", "q"}, {"a", "b"}, &rng);
    WlResult wl = WlColorRefinement(g);
    Bitset result = EvalModal(g, *f);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (wl.colors[u] == wl.colors[v]) {
          EXPECT_EQ(result.Test(u), result.Test(v));
        }
      }
    }
  }
}

}  // namespace
}  // namespace kgq
