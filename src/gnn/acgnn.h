#ifndef KGQ_GNN_ACGNN_H_
#define KGQ_GNN_ACGNN_H_

#include <string>
#include <utility>
#include <vector>

#include "gnn/matrix.h"
#include "gnn/options.h"
#include "graph/csr_snapshot.h"
#include "graph/labeled_graph.h"
#include "util/bitset.h"
#include "util/result.h"

namespace kgq {

/// One aggregate-combine layer:
///   x'_v = σ( W_self·x_v
///           + Σ_r W_in[r]·(Σ_{u --r--> v} x_u)
///           + Σ_r W_out[r]·(Σ_{v --r--> u} x_u)
///           + bias )
/// with σ the *truncated ReLU* min(1, max(0, ·)) — the activation of the
/// Barceló et al. construction. Relations r are edge labels; the empty
/// label aggregates over every edge (the plain AC-GNN of the paper).
struct GnnLayer {
  Matrix self;  ///< out_dim × in_dim.
  /// Per-relation aggregation weights ("" = any edge label).
  std::vector<std::pair<std::string, Matrix>> in_rel;
  std::vector<std::pair<std::string, Matrix>> out_rel;
  std::vector<double> bias;  ///< out_dim.

  size_t in_dim() const { return self.cols(); }
  size_t out_dim() const { return self.rows(); }
};

/// Forward pass with every intermediate kept — the input of backprop
/// (gnn/train.cc) and of anyone inspecting per-layer features.
struct ForwardTrace {
  /// activations[l] is the n×dim_l input of layer l; activations.back()
  /// is the final output.
  std::vector<Matrix> activations;
  /// pre[l] is the n×dim_{l+1} pre-activation of layer l.
  std::vector<Matrix> pre;
};

/// An aggregate-combine graph neural network over labeled graphs: the
/// procedural node classifier of Section 4.3. A GNN *is* a unary query
/// (Barceló et al.): Classify() returns the set of nodes the network
/// accepts, comparable 1:1 with EvalModal / EvalFoNaive.
///
/// The forward pass reads only the graph's adjacency, edge labels and
/// node count, so it takes the graph's CsrSnapshot; node labels enter
/// through the feature matrix (OneHotLabels). Execution is configurable
/// through GnnOptions (dense backend, thread count); every
/// configuration returns bit-identical features — the option can only
/// change speed.
class AcGnn {
 public:
  /// Creates a network reading `input_dim` features per node.
  explicit AcGnn(size_t input_dim) : input_dim_(input_dim) {}

  size_t input_dim() const { return input_dim_; }
  size_t num_layers() const { return layers_.size(); }
  size_t output_dim() const {
    return layers_.empty() ? input_dim_ : layers_.back().out_dim();
  }

  /// Appends a zero-initialized layer producing `out_dim` features.
  GnnLayer& AddLayer(size_t out_dim);
  GnnLayer& layer(size_t i) { return layers_[i]; }
  const GnnLayer& layer(size_t i) const { return layers_[i]; }

  /// Linear readout: accept node v iff w·x_v + b >= 0.5.
  void SetReadout(std::vector<double> weights, double bias);

  /// Runs message passing; `features` is n×input_dim; returns the final
  /// n×output_dim feature matrix (the λ' of the paper's definition).
  Result<Matrix> Run(const CsrSnapshot& graph, const Matrix& features,
                     const GnnOptions& opts = {}) const;

  /// Runs and applies the readout, returning the accepted node set.
  Result<Bitset> Classify(const CsrSnapshot& graph, const Matrix& features,
                          const GnnOptions& opts = {}) const;

  /// Like Run, but keeps every layer's input and pre-activation — the
  /// forward half of backprop. activations.back() equals Run()'s result
  /// bit-for-bit under every GnnOptions.
  Result<ForwardTrace> RunTraced(const CsrSnapshot& graph,
                                 const Matrix& features,
                                 const GnnOptions& opts = {}) const;

  /// Fills every layer (and the readout) with Gaussian weights — used by
  /// the WL-invariance experiments: *any* AC-GNN is WL-invariant.
  void Randomize(Rng* rng, double scale = 0.7);

  /// One-hot label encoding: column j of the result is 1 exactly on the
  /// nodes labeled `universe[j]`.
  static Matrix OneHotLabels(const LabeledGraph& graph,
                             const std::vector<std::string>& universe);

 private:
  size_t input_dim_;
  std::vector<GnnLayer> layers_;
  std::vector<double> readout_weights_;
  double readout_bias_ = 0.0;
};

}  // namespace kgq

#endif  // KGQ_GNN_ACGNN_H_
