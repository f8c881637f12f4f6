#ifndef KGQ_GNN_LOGIC_TO_GNN_H_
#define KGQ_GNN_LOGIC_TO_GNN_H_

#include <string>
#include <vector>

#include "gnn/acgnn.h"
#include "logic/modal.h"
#include "util/result.h"

namespace kgq {

/// A graded modal formula compiled into an AC-GNN (the constructive
/// direction of Barceló et al. 2020: graded modal logic ⊆ AC-GNN).
///
/// The network allocates one feature per distinct subformula. The input
/// encodes label atoms (one-hot); every layer recomputes each subformula
/// from its children with truncated-ReLU arithmetic:
///   ¬φ   → σ(1 − x_φ)            φ∧ψ → σ(x_φ + x_ψ − 1)
///   φ∨ψ → σ(x_φ + x_ψ)           ◇^r_{≥n} φ → σ(Σ_{r-succ} x_φ − n + 1)
/// After depth(φ) layers the root feature equals the truth value at
/// every node — *exactly*, not approximately, which the tests assert.
struct CompiledGnn {
  AcGnn gnn;
  /// Labels consumed by the input encoding, in feature order. Build the
  /// input with AcGnn::OneHotLabels(graph, input_labels) — but note the
  /// input width is the subformula count, so use Encode() instead.
  std::vector<std::string> subformulas;  ///< Printable, children-first.
  std::vector<int> label_feature;  ///< sf index → -1 or "is label atom".

  /// Input features for `graph`: one column per subformula, label-atom
  /// columns one-hot, everything else zero.
  Matrix Encode(const LabeledGraph& graph) const;

  /// Runs the network over the graph's CsrSnapshot, built once per call,
  /// and thresholds the root feature. The options pick backend / threads
  /// (gnn/options.h) — the accepted set is identical under every
  /// configuration.
  Result<Bitset> Evaluate(const LabeledGraph& graph,
                          const GnnOptions& opts = {}) const;
};

/// Compiles `formula` into an AC-GNN as above.
Result<CompiledGnn> CompileModalToGnn(const ModalFormula& formula);

}  // namespace kgq

#endif  // KGQ_GNN_LOGIC_TO_GNN_H_
