#include "gnn/train.h"

#include <gtest/gtest.h>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "gnn/wl.h"
#include "logic/modal.h"

namespace kgq {
namespace {

/// Builds a training example whose targets are a modal query's answers —
/// the learnability probe of Section 4.3.
GnnExample ExampleFor(const LabeledGraph& g, const ModalFormula& f) {
  return GnnExample{&g, EvalModal(g, f)};
}

TEST(GnnTrainTest, ValidatesInput) {
  GnnTrainOptions opts;
  EXPECT_FALSE(TrainGnnClassifier({}, {"p"}, {"a"}, opts).ok());
  LabeledGraph g = Cycle(4, "p", "a");
  GnnExample bad{&g, Bitset(2)};  // Wrong target size.
  EXPECT_FALSE(TrainGnnClassifier({bad}, {"p"}, {"a"}, opts).ok());
}

TEST(GnnTrainTest, LearnsLabelQuery) {
  // Target: label p. Trivially learnable from the input features.
  Rng rng(3);
  std::vector<LabeledGraph> graphs;
  std::vector<GnnExample> train;
  ModalPtr query = ModalFormula::Label("p");
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(ErdosRenyi(20, 50, {"p", "q"}, {"a"}, &rng));
  }
  for (const LabeledGraph& g : graphs) train.push_back(ExampleFor(g, *query));

  GnnTrainOptions opts;
  opts.epochs = 150;
  Result<AcGnn> gnn = TrainGnnClassifier(train, {"p", "q"}, {"a"}, opts);
  ASSERT_TRUE(gnn.ok());

  LabeledGraph test_graph = ErdosRenyi(30, 80, {"p", "q"}, {"a"}, &rng);
  Result<double> acc = ClassifierAccuracy(*gnn, {"p", "q"},
                                          ExampleFor(test_graph, *query));
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
}

TEST(GnnTrainTest, LearnsOneHopStructuralQuery) {
  // Target: ◇^a(q) — "has an a-successor labeled q". Needs one round of
  // message passing; purely structural, invisible in the node's own
  // features.
  Rng rng(17);
  ModalPtr query = ModalFormula::Diamond("a", 1, ModalFormula::Label("q"));
  std::vector<LabeledGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(ErdosRenyi(25, 55, {"p", "q"}, {"a", "b"}, &rng));
  }
  std::vector<GnnExample> train;
  for (const LabeledGraph& g : graphs) train.push_back(ExampleFor(g, *query));

  GnnTrainOptions opts;
  opts.epochs = 500;
  opts.hidden_dim = 8;
  opts.learning_rate = 0.15;
  Result<AcGnn> gnn = TrainGnnClassifier(train, {"p", "q"}, {"a", "b"}, opts);
  ASSERT_TRUE(gnn.ok());

  // Generalization to fresh graphs.
  double total = 0.0;
  for (int i = 0; i < 4; ++i) {
    LabeledGraph test_graph = ErdosRenyi(25, 55, {"p", "q"}, {"a", "b"}, &rng);
    Result<double> acc = ClassifierAccuracy(
        *gnn, {"p", "q"}, ExampleFor(test_graph, *query));
    ASSERT_TRUE(acc.ok());
    total += *acc;
  }
  EXPECT_GT(total / 4.0, 0.9);
}

TEST(GnnTrainTest, PinnedTrainedWeightsGolden) {
  // Weights captured from the original sequential trainer; the batched
  // forward/backward substrate must land on exactly the same model.
  Rng gen(99);
  LabeledGraph g = ErdosRenyi(14, 30, {"p", "q"}, {"a"}, &gen);
  ModalPtr f = ModalFormula::Diamond("a", 1, ModalFormula::Label("q"));
  GnnExample ex{&g, EvalModal(g, *f)};
  GnnTrainOptions opts;
  opts.epochs = 40;
  opts.hidden_dim = 4;
  opts.num_layers = 1;
  AcGnn gnn = *TrainGnnClassifier({ex}, {"p", "q"}, {"a"}, opts);
  const GnnLayer& l0 = gnn.layer(0);
  EXPECT_DOUBLE_EQ(l0.self.at(0, 0), -0.43050902235594218);
  EXPECT_DOUBLE_EQ(l0.self.at(3, 1), -0.23066236970607545);
  EXPECT_DOUBLE_EQ(l0.in_rel[0].second.at(1, 0), -0.18075738766622326);
  EXPECT_DOUBLE_EQ(l0.out_rel[0].second.at(2, 1), 0.059664876850490045);
  EXPECT_DOUBLE_EQ(l0.bias[0], 0.25146976091158524);
  EXPECT_DOUBLE_EQ(l0.bias[3], 0.24067842519788477);
  Matrix in = AcGnn::OneHotLabels(g, {"p", "q"});
  EXPECT_EQ(gnn.Classify(CsrSnapshot::FromGraph(g), in)->Count(), 14u);
}

TEST(GnnTrainTest, TrainingBitIdenticalAcrossOptions) {
  // The whole trainer — init, forward, backward, update — must produce
  // the same weights under every execution configuration.
  Rng gen(99);
  LabeledGraph g = ErdosRenyi(14, 30, {"p", "q"}, {"a"}, &gen);
  ModalPtr f = ModalFormula::Diamond("a", 1, ModalFormula::Label("q"));
  GnnExample ex{&g, EvalModal(g, *f)};
  GnnTrainOptions base;
  base.epochs = 25;
  base.hidden_dim = 4;
  base.num_layers = 2;
  base.forward.backend = GnnBackend::kNodeLoop;
  base.forward.parallel.num_threads = 1;
  AcGnn ref = *TrainGnnClassifier({ex}, {"p", "q"}, {"a"}, base);

  for (GnnBackend backend : {GnnBackend::kNodeLoop, GnnBackend::kGemm}) {
    for (size_t t : {size_t{1}, size_t{4}}) {
      GnnTrainOptions opts = base;
      opts.forward.backend = backend;
      opts.forward.parallel.num_threads = t;
      AcGnn got = *TrainGnnClassifier({ex}, {"p", "q"}, {"a"}, opts);
      for (size_t l = 0; l < ref.num_layers(); ++l) {
        EXPECT_EQ(ref.layer(l).self, got.layer(l).self)
            << "layer " << l << " backend=" << static_cast<int>(backend)
            << " threads=" << t;
        EXPECT_EQ(ref.layer(l).bias, got.layer(l).bias);
        for (size_t r = 0; r < ref.layer(l).in_rel.size(); ++r) {
          EXPECT_EQ(ref.layer(l).in_rel[r].second,
                    got.layer(l).in_rel[r].second);
          EXPECT_EQ(ref.layer(l).out_rel[r].second,
                    got.layer(l).out_rel[r].second);
        }
      }
    }
  }
}

TEST(GnnTrainTest, CannotSeparateWlEquivalentNodes) {
  // The hard ceiling: targets that split a WL color class are
  // unlearnable by ANY AC-GNN — accuracy is structurally capped. Use a
  // cycle (all nodes one color) with half the nodes as targets.
  LabeledGraph g = Cycle(10, "p", "a");
  WlResult wl = WlColorRefinement(g);
  ASSERT_EQ(wl.num_colors, 1u);
  Bitset targets(g.num_nodes());
  for (NodeId v = 0; v < 5; ++v) targets.Set(v);

  GnnTrainOptions opts;
  opts.epochs = 300;
  Result<AcGnn> gnn =
      TrainGnnClassifier({GnnExample{&g, targets}}, {"p"}, {"a"}, opts);
  ASSERT_TRUE(gnn.ok());
  Result<double> acc =
      ClassifierAccuracy(*gnn, {"p"}, GnnExample{&g, targets});
  ASSERT_TRUE(acc.ok());
  // All nodes get the same embedding ⇒ the same prediction ⇒ exactly
  // half the nodes are right, whatever the training does.
  EXPECT_DOUBLE_EQ(*acc, 0.5);
}

}  // namespace
}  // namespace kgq
