#include "gnn/acgnn.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "gnn/spmm.h"
#include "obs/obs.h"

namespace kgq {
namespace {

/// Node tile of the kNodeLoop backend; boundaries depend only on the
/// node count, and each output row is owned by one chunk.
constexpr size_t kNodeTile = 32;

/// A relation name resolved against the snapshot, hoisted out of the
/// node loop. `all` = "" (aggregate every edge); a named label no edge
/// carries has `all == false && !id` and aggregates nothing (the weight
/// still contributes its zero dot product).
struct Relation {
  bool all = false;
  std::optional<LabelId> id;
};

Relation Resolve(const CsrSnapshot& snap, const std::string& rel) {
  if (rel.empty()) return {true, std::nullopt};
  return {false, snap.FindLabel(rel)};
}

/// Σ x_u over the relevant neighbors of v — ascending edge id, the
/// canonical aggregation order shared with gnn/spmm.h.
void Aggregate(const CsrSnapshot& snap, const Matrix& features, NodeId v,
               const Relation& rel, bool incoming, double* acc) {
  if (!rel.all && !rel.id.has_value()) return;
  CsrSnapshot::Span span =
      rel.id.has_value()
          ? (incoming ? snap.InForLabel(v, *rel.id)
                      : snap.OutForLabel(v, *rel.id))
          : (incoming ? snap.In(v) : snap.Out(v));
  for (const CsrSnapshot::Entry& a : span) {
    const double* row = features.row(a.neighbor);
    for (size_t c = 0; c < features.cols(); ++c) acc[c] += row[c];
  }
}

/// Pre-activation of one layer: bias + W_self·x + Σ_r W_r·agg_r for
/// every node at once. Both backends produce every element by the same
/// floating-point operation sequence (one ascending-k register dot per
/// weight matrix, added in declaration order onto the bias; neighbor
/// sums in ascending edge id), so the result is bit-identical across
/// backend × thread count.
Matrix LayerPre(const GnnLayer& layer, const CsrSnapshot& snap,
                const Matrix& x, const GnnOptions& opts) {
  const size_t n = x.rows();
  const size_t in_dim = layer.in_dim();
  const size_t out_dim = layer.out_dim();
  assert(in_dim == x.cols());
  Matrix pre(n, out_dim);

  if (opts.backend == GnnBackend::kGemm) {
    AddBiasRows(layer.bias, &pre, opts.parallel);
    GemmTransB(x, layer.self, &pre, opts.parallel);
    Matrix scratch(n, in_dim);
    auto relation_term = [&](const std::string& rel, const Matrix& weights,
                             bool incoming) {
      scratch.SetZero();
      SpmmAggregateCsr(snap, x, rel, incoming, &scratch, opts.parallel);
      GemmTransB(scratch, weights, &pre, opts.parallel);
    };
    for (const auto& [rel, weights] : layer.in_rel) {
      relation_term(rel, weights, /*incoming=*/true);
    }
    for (const auto& [rel, weights] : layer.out_rel) {
      relation_term(rel, weights, /*incoming=*/false);
    }
    return pre;
  }

  // kNodeLoop: the per-node reference shape, tiled across threads.
  std::vector<Relation> rel_in, rel_out;
  for (const auto& [rel, w] : layer.in_rel) {
    rel_in.push_back(Resolve(snap, rel));
  }
  for (const auto& [rel, w] : layer.out_rel) {
    rel_out.push_back(Resolve(snap, rel));
  }
  ParallelFor(
      0, n, kNodeTile,
      [&](size_t lo, size_t hi) {
        std::vector<double> agg(in_dim);
        for (NodeId v = lo; v < hi; ++v) {
          double* out = pre.row(v);
          std::copy(layer.bias.begin(), layer.bias.end(), out);
          layer.self.MultiplyAccumulate(x.row(v), out);
          for (size_t r = 0; r < layer.in_rel.size(); ++r) {
            agg.assign(in_dim, 0.0);
            Aggregate(snap, x, v, rel_in[r], /*incoming=*/true, agg.data());
            layer.in_rel[r].second.MultiplyAccumulate(agg.data(), out);
          }
          for (size_t r = 0; r < layer.out_rel.size(); ++r) {
            agg.assign(in_dim, 0.0);
            Aggregate(snap, x, v, rel_out[r], /*incoming=*/false, agg.data());
            layer.out_rel[r].second.MultiplyAccumulate(agg.data(), out);
          }
        }
      },
      opts.parallel);
  return pre;
}

/// The feature matrix must be num_nodes × input_dim.
Status CheckFeatureShape(const CsrSnapshot& graph, const Matrix& features,
                         size_t input_dim) {
  if (features.rows() == graph.num_nodes() && features.cols() == input_dim) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "feature matrix must be num_nodes × input_dim (" +
      std::to_string(graph.num_nodes()) + "×" + std::to_string(input_dim) +
      "), got " + std::to_string(features.rows()) + "×" +
      std::to_string(features.cols()));
}

}  // namespace

GnnLayer& AcGnn::AddLayer(size_t out_dim) {
  size_t in_dim = output_dim();
  GnnLayer layer;
  layer.self = Matrix(out_dim, in_dim);
  layer.bias.assign(out_dim, 0.0);
  layers_.push_back(std::move(layer));
  return layers_.back();
}

void AcGnn::SetReadout(std::vector<double> weights, double bias) {
  readout_weights_ = std::move(weights);
  readout_bias_ = bias;
}

Result<Matrix> AcGnn::Run(const CsrSnapshot& graph, const Matrix& features,
                          const GnnOptions& opts) const {
  KGQ_RETURN_IF_ERROR(CheckFeatureShape(graph, features, input_dim_));
  KGQ_SPAN("gnn.forward");
  Matrix current = features;
  for (const GnnLayer& layer : layers_) {
    Matrix pre = LayerPre(layer, graph, current, opts);
    TruncatedReluRows(&pre, opts.parallel);
    current = std::move(pre);
  }
  return current;
}

Result<ForwardTrace> AcGnn::RunTraced(const CsrSnapshot& graph,
                                      const Matrix& features,
                                      const GnnOptions& opts) const {
  KGQ_RETURN_IF_ERROR(CheckFeatureShape(graph, features, input_dim_));
  KGQ_SPAN("gnn.forward");
  ForwardTrace trace;
  trace.activations.push_back(features);
  trace.pre.reserve(layers_.size());
  for (const GnnLayer& layer : layers_) {
    Matrix pre = LayerPre(layer, graph, trace.activations.back(), opts);
    Matrix act = pre;
    TruncatedReluRows(&act, opts.parallel);
    trace.pre.push_back(std::move(pre));
    trace.activations.push_back(std::move(act));
  }
  return trace;
}

Result<Bitset> AcGnn::Classify(const CsrSnapshot& graph,
                               const Matrix& features,
                               const GnnOptions& opts) const {
  if (readout_weights_.size() != output_dim()) {
    return Status::InvalidArgument(
        "readout has " + std::to_string(readout_weights_.size()) +
        " weights but the network outputs " + std::to_string(output_dim()) +
        " features");
  }
  KGQ_ASSIGN_OR_RETURN(Matrix out, Run(graph, features, opts));
  Bitset accepted(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    double score = readout_bias_;
    const double* row = out.row(v);
    for (size_t c = 0; c < out.cols(); ++c) {
      score += readout_weights_[c] * row[c];
    }
    if (score >= 0.5) accepted.Set(v);
  }
  return accepted;
}

void AcGnn::Randomize(Rng* rng, double scale) {
  for (GnnLayer& layer : layers_) {
    layer.self.FillGaussian(rng, scale);
    for (auto& [rel, weights] : layer.in_rel) weights.FillGaussian(rng, scale);
    for (auto& [rel, weights] : layer.out_rel) {
      weights.FillGaussian(rng, scale);
    }
    for (double& b : layer.bias) b = rng->NextGaussian() * scale;
  }
  for (double& w : readout_weights_) w = rng->NextGaussian() * scale;
  readout_bias_ = rng->NextGaussian() * scale;
}

Matrix AcGnn::OneHotLabels(const LabeledGraph& graph,
                           const std::vector<std::string>& universe) {
  Matrix out(graph.num_nodes(), universe.size());
  for (size_t j = 0; j < universe.size(); ++j) {
    std::optional<ConstId> id = graph.dict().Find(universe[j]);
    if (!id.has_value()) continue;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (graph.NodeLabel(v) == *id) out.at(v, j) = 1.0;
    }
  }
  return out;
}

}  // namespace kgq
