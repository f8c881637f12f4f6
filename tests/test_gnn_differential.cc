// Differential harness for the neural substrate: over a population of
// seeded random graphs, every execution configuration of the neural
// kernels — dense backend (node loop vs blocked GEMM) × thread count —
// must return results *identical* to the sequential node-loop reference,
// bit-for-bit, including every floating-point accumulation. This is
// the contract that lets callers flip GnnOptions for speed without
// re-validating numerics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "embed/transe.h"
#include "gnn/acgnn.h"
#include "gnn/logic_to_gnn.h"
#include "gnn/train.h"
#include "gnn/wl.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "logic/modal.h"
#include "rdf/triple_store.h"

namespace kgq {
namespace {

constexpr size_t kThreadCounts[] = {1, 4};

/// The graph population: even seeds draw Erdős–Rényi graphs, odd seeds
/// Barabási–Albert, both over the {p,q}/{a,b} alphabets.
LabeledGraph GraphForSeed(int seed) {
  Rng rng(7000 + seed);
  if (seed % 2 == 0) {
    return ErdosRenyi(24, 60, {"p", "q"}, {"a", "b"}, &rng);
  }
  return BarabasiAlbert(26, 2, {"p", "q"}, {"a", "b"}, &rng);
}

/// A seeded random network whose relation structure rotates with the
/// seed: "a"/"b"/"" across in/out so every aggregation flavor is hit.
AcGnn NetForSeed(int seed, size_t input_dim) {
  AcGnn gnn(input_dim);
  const char* rels[] = {"a", "b", ""};
  for (int l = 0; l < 2; ++l) {
    size_t in = l == 0 ? input_dim : 5;
    GnnLayer& layer = gnn.AddLayer(5);
    layer.self = Matrix(5, in);
    layer.in_rel.emplace_back(rels[seed % 3], Matrix(5, in));
    layer.in_rel.emplace_back(rels[(seed + 1) % 3], Matrix(5, in));
    layer.out_rel.emplace_back(rels[(seed + 2) % 3], Matrix(5, in));
    layer.bias.assign(5, 0.0);
  }
  Rng wr(1234 + seed);
  gnn.Randomize(&wr, 0.7);
  return gnn;
}

/// Every (backend, threads) combination, reference first.
std::vector<GnnOptions> AllConfigs() {
  std::vector<GnnOptions> configs;
  for (GnnBackend backend : {GnnBackend::kNodeLoop, GnnBackend::kGemm}) {
    for (size_t t : kThreadCounts) {
      GnnOptions opts;
      opts.backend = backend;
      opts.parallel.num_threads = t;
      configs.push_back(opts);
    }
  }
  return configs;
}

std::string Describe(const GnnOptions& opts) {
  return std::string(opts.backend == GnnBackend::kGemm ? "gemm" : "nodeloop") +
         "@" + std::to_string(opts.parallel.num_threads);
}

class GnnDifferential : public ::testing::TestWithParam<int> {};

TEST_P(GnnDifferential, ForwardAndClassifyMatchReference) {
  int seed = GetParam();
  LabeledGraph g = GraphForSeed(seed);
  const CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  AcGnn gnn = NetForSeed(seed, 2);
  gnn.SetReadout({0.5, -0.25, 1.0, 0.125, -1.0}, 0.25);
  Matrix x = AcGnn::OneHotLabels(g, {"p", "q"});

  GnnOptions ref_opts;
  ref_opts.backend = GnnBackend::kNodeLoop;
  ref_opts.parallel.num_threads = 1;
  Matrix ref = *gnn.Run(snap, x, ref_opts);
  Bitset ref_cls = *gnn.Classify(snap, x, ref_opts);

  for (const GnnOptions& opts : AllConfigs()) {
    EXPECT_EQ(ref, *gnn.Run(snap, x, opts)) << Describe(opts);
    EXPECT_EQ(ref_cls, *gnn.Classify(snap, x, opts)) << Describe(opts);
  }

  // RunTraced's final activation is the same forward pass.
  for (size_t t : kThreadCounts) {
    GnnOptions opts;
    opts.parallel.num_threads = t;
    ForwardTrace trace = *gnn.RunTraced(snap, x, opts);
    ASSERT_EQ(trace.activations.size(), gnn.num_layers() + 1);
    ASSERT_EQ(trace.pre.size(), gnn.num_layers());
    EXPECT_EQ(ref, trace.activations.back()) << "traced@" << t;
  }
}

TEST_P(GnnDifferential, CompiledFormulaAgreesUnderEveryConfig) {
  int seed = GetParam();
  LabeledGraph g = GraphForSeed(seed);
  ModalPtr f = ModalFormula::And(
      ModalFormula::Diamond("a", 1 + seed % 2, ModalFormula::Label("q")),
      ModalFormula::Not(ModalFormula::DiamondInv("b", 1,
                                                 ModalFormula::Label("p"))));
  Result<CompiledGnn> compiled = CompileModalToGnn(*f);
  ASSERT_TRUE(compiled.ok());
  Bitset want = EvalModal(g, *f);
  for (const GnnOptions& opts : AllConfigs()) {
    Result<Bitset> got = compiled->Evaluate(g, opts);
    ASSERT_TRUE(got.ok()) << Describe(opts);
    EXPECT_EQ(want, *got) << Describe(opts);
  }
}

TEST_P(GnnDifferential, WlRefinementMatchesReference) {
  int seed = GetParam();
  LabeledGraph g = GraphForSeed(seed);
  WlOptions ref_opts;
  ref_opts.parallel.num_threads = 1;
  WlResult ref = WlColorRefinement(g, ref_opts);
  for (size_t t : kThreadCounts) {
    WlOptions opts;
    opts.parallel.num_threads = t;
    WlResult got = WlColorRefinement(g, opts);
    EXPECT_EQ(ref.colors, got.colors) << "threads=" << t;
    EXPECT_EQ(ref.num_colors, got.num_colors);
    EXPECT_EQ(ref.rounds, got.rounds);
  }
}

TEST_P(GnnDifferential, TrainedClassifierMatchesReference) {
  int seed = GetParam();
  // Smaller instances: training runs many forward/backward passes.
  Rng rng(9000 + seed);
  LabeledGraph g = ErdosRenyi(12, 28, {"p", "q"}, {"a"}, &rng);
  ModalPtr f = ModalFormula::Diamond("a", 1, ModalFormula::Label("q"));
  GnnExample ex{&g, EvalModal(g, *f)};
  GnnTrainOptions base;
  base.epochs = 10;
  base.hidden_dim = 3;
  base.num_layers = 1;
  base.seed = 0x1000 + seed;
  base.forward.backend = GnnBackend::kNodeLoop;
  base.forward.parallel.num_threads = 1;
  AcGnn ref = *TrainGnnClassifier({ex}, {"p", "q"}, {"a"}, base);
  for (const GnnOptions& opts : AllConfigs()) {
    GnnTrainOptions var = base;
    var.forward = opts;
    AcGnn got = *TrainGnnClassifier({ex}, {"p", "q"}, {"a"}, var);
    EXPECT_EQ(ref.layer(0).self, got.layer(0).self) << Describe(opts);
    EXPECT_EQ(ref.layer(0).bias, got.layer(0).bias) << Describe(opts);
    EXPECT_EQ(ref.layer(0).in_rel[0].second, got.layer(0).in_rel[0].second)
        << Describe(opts);
    EXPECT_EQ(ref.layer(0).out_rel[0].second, got.layer(0).out_rel[0].second)
        << Describe(opts);
  }
}

TEST_P(GnnDifferential, TransEMiniBatchMatchesSequentialSchedule) {
  int seed = GetParam();
  TripleStore store;
  size_t people = 10 + static_cast<size_t>(seed % 5);
  for (size_t i = 0; i < people; ++i) {
    store.Insert("person" + std::to_string(i), "worksAt",
                 "office" + std::to_string(i % 3));
    store.Insert("person" + std::to_string(i), "friendOf",
                 "person" + std::to_string((i + 1) % people));
  }
  TransEOptions opts;
  opts.epochs = 6;
  opts.dimension = 8;
  opts.batch_size = 8;
  opts.seed = 0xE5BED + static_cast<uint64_t>(seed);
  opts.parallel.num_threads = 1;
  TransEModel ref = *TransEModel::Train(store, opts);
  opts.parallel.num_threads = 4;
  TransEModel got = *TransEModel::Train(store, opts);
  for (size_t i = 0; i < people; ++i) {
    std::string person = "person" + std::to_string(i);
    ASSERT_EQ(ref.EntityVector(person), got.EntityVector(person)) << person;
  }
  for (size_t o = 0; o < 3; ++o) {
    std::string office = "office" + std::to_string(o);
    ASSERT_EQ(ref.EntityVector(office), got.EntityVector(office)) << office;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GnnDifferential, ::testing::Range(0, 32));

}  // namespace
}  // namespace kgq
