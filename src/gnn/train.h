#ifndef KGQ_GNN_TRAIN_H_
#define KGQ_GNN_TRAIN_H_

#include <string>
#include <vector>

#include "gnn/acgnn.h"
#include "graph/labeled_graph.h"
#include "util/bitset.h"
#include "util/result.h"

namespace kgq {

/// Hyperparameters for supervised AC-GNN training.
struct GnnTrainOptions {
  size_t hidden_dim = 8;
  size_t num_layers = 2;
  size_t epochs = 400;
  double learning_rate = 0.1;
  uint64_t seed = 0x9E77ull;

  /// Execution of every forward pass and of the parallelizable backward
  /// phases (backend, threads). The trained weights are bit-identical
  /// under every configuration: weight updates stay sequential in the
  /// canonical node order, and all parallel phases write thread-owned
  /// rows only.
  GnnOptions forward;
};

/// A training example: one graph plus the target set of accepted nodes.
struct GnnExample {
  const LabeledGraph* graph;
  Bitset targets;
};

/// Trains an AC-GNN node classifier by full-batch gradient descent —
/// the *learning* facet of Section 2.3 (as opposed to the compiled
/// networks of gnn/logic_to_gnn.h, whose weights come from a formula).
///
/// The network reads one-hot label features (`label_universe` order),
/// aggregates per relation in `relations`, applies truncated-ReLU
/// layers, and ends in a sigmoid readout trained with binary cross
/// entropy; Classify() then thresholds at 0.5 as usual. Combined with
/// the Section 4.3 correspondence, what such a network can possibly
/// learn is bounded by 1-WL — the tests drive both sides of that line.
/// Each example's CsrSnapshot is built once, before the first epoch.
Result<AcGnn> TrainGnnClassifier(const std::vector<GnnExample>& examples,
                                 const std::vector<std::string>& label_universe,
                                 const std::vector<std::string>& relations,
                                 const GnnTrainOptions& opts);

/// Fraction of nodes of `example` the classifier gets right (one
/// CsrSnapshot build per call).
Result<double> ClassifierAccuracy(const AcGnn& gnn,
                                  const std::vector<std::string>& universe,
                                  const GnnExample& example,
                                  const GnnOptions& opts = {});

}  // namespace kgq

#endif  // KGQ_GNN_TRAIN_H_
