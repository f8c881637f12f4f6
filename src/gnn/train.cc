#include "gnn/train.h"

#include <cassert>
#include <cmath>

#include "gnn/spmm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgq {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Row tile of the parallel backward phases (row-owned writes only).
constexpr size_t kRowTile = 64;

/// Neighbor sums of `features` for one relation at every node.
Matrix Aggregate(const CsrSnapshot& g, const Matrix& features,
                 const std::string& rel, bool incoming,
                 const ParallelOptions& par) {
  Matrix out(features.rows(), features.cols());
  SpmmAggregateCsr(g, features, rel, incoming, &out, par);
  return out;
}

/// One gradient-descent step over one example; returns the BCE loss.
/// `readout_w`/`readout_b` are trained alongside the layers.
///
/// Parallel phases (forward, dpre, dagg, aggregation, scatter) write
/// thread-owned rows; every weight/bias update runs sequentially in
/// ascending node order — the step is bit-identical for every
/// GnnOptions configuration.
double Step(AcGnn* gnn, std::vector<double>* readout_w, double* readout_b,
            const CsrSnapshot& g, const Matrix& input,
            const Bitset& targets, double lr, const GnnOptions& fwd) {
  ForwardTrace cache = std::move(gnn->RunTraced(g, input, fwd)).value();
  const ParallelOptions& par = fwd.parallel;
  const Matrix& out = cache.activations.back();
  size_t n = out.rows();
  size_t d = out.cols();

  // Readout + BCE loss.
  double loss = 0.0;
  std::vector<double> dscore(n);
  for (NodeId v = 0; v < n; ++v) {
    double score = *readout_b;
    const double* row = out.row(v);
    for (size_t c = 0; c < d; ++c) score += (*readout_w)[c] * row[c];
    double prob = Sigmoid(score);
    double y = targets.Test(v) ? 1.0 : 0.0;
    loss += -(y * std::log(std::max(prob, 1e-12)) +
              (1.0 - y) * std::log(std::max(1.0 - prob, 1e-12)));
    dscore[v] = prob - y;  // dL/dscore.
  }
  loss /= static_cast<double>(n);

  // Gradient of the readout and of the final activations (db/dw are
  // node-order-sensitive sums: sequential).
  Matrix dact(n, d);
  std::vector<double> dw(d, 0.0);
  double db = 0.0;
  double scale = 1.0 / static_cast<double>(n);
  for (NodeId v = 0; v < n; ++v) {
    double dsv = dscore[v] * scale;
    db += dsv;
    const double* row = out.row(v);
    for (size_t c = 0; c < d; ++c) {
      dw[c] += dsv * row[c];
      dact.at(v, c) = dsv * (*readout_w)[c];
    }
  }

  // Backprop through the layers.
  for (size_t l = gnn->num_layers(); l-- > 0;) {
    GnnLayer& layer = gnn->layer(l);
    const Matrix& x = cache.activations[l];
    const Matrix& pre = cache.pre[l];
    size_t in_dim = layer.in_dim();
    size_t out_dim = layer.out_dim();

    // dpre = dact ⊙ σ'(pre), with σ the truncated ReLU.
    Matrix dpre(pre.rows(), pre.cols());
    ParallelFor(
        0, pre.rows(), kRowTile,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            for (size_t c = 0; c < out_dim; ++c) {
              double p = pre.at(v, c);
              dpre.at(v, c) = (p > 0.0 && p < 1.0) ? dact.at(v, c) : 0.0;
            }
          }
        },
        par);

    Matrix dx(x.rows(), in_dim);

    // Bias and self weights: updates fold over nodes in ascending
    // order, and dx reads the *evolving* self weights — sequential by
    // definition of the reference step.
    for (NodeId v = 0; v < pre.rows(); ++v) {
      const double* dp = dpre.row(v);
      const double* xv = x.row(v);
      for (size_t c = 0; c < out_dim; ++c) {
        layer.bias[c] -= lr * dp[c];
        for (size_t i = 0; i < in_dim; ++i) {
          // Accumulate dx before updating the weight (use old weight).
          dx.at(v, i) += layer.self.at(c, i) * dp[c];
        }
      }
      for (size_t c = 0; c < out_dim; ++c) {
        for (size_t i = 0; i < in_dim; ++i) {
          layer.self.at(c, i) -= lr * dp[c] * xv[i];
        }
      }
    }

    // Relation weights: grad wrt W is dpre ⊗ agg; grad wrt x scatters
    // W^T dpre back along the edges.
    auto relation_backward = [&](std::vector<std::pair<std::string, Matrix>>&
                                     rels,
                                 bool incoming) {
      for (auto& [rel, weights] : rels) {
        Matrix agg = Aggregate(g, x, rel, incoming, par);
        // dagg = W^T dpre (per node), scattered to senders. Weights are
        // constant throughout this loop, so rows parallelize.
        Matrix dagg(x.rows(), in_dim);
        ParallelFor(
            0, x.rows(), kRowTile,
            [&](size_t lo, size_t hi) {
              for (NodeId v = lo; v < hi; ++v) {
                const double* dp = dpre.row(v);
                for (size_t c = 0; c < out_dim; ++c) {
                  if (dp[c] == 0.0) continue;
                  for (size_t i = 0; i < in_dim; ++i) {
                    dagg.at(v, i) += weights.at(c, i) * dp[c];
                  }
                }
              }
            },
            par);
        // Scatter back to senders: the transpose of Aggregate, which over
        // a fixed edge set is the aggregation in the opposite direction
        // (sender rows collect grad rows of their receivers in ascending
        // edge id).
        SpmmAggregateCsr(g, dagg, rel, !incoming, &dx, par);
        for (NodeId v = 0; v < x.rows(); ++v) {
          const double* dp = dpre.row(v);
          const double* av = agg.row(v);
          for (size_t c = 0; c < out_dim; ++c) {
            if (dp[c] == 0.0) continue;
            for (size_t i = 0; i < in_dim; ++i) {
              weights.at(c, i) -= lr * dp[c] * av[i];
            }
          }
        }
      }
    };
    relation_backward(layer.in_rel, /*incoming=*/true);
    relation_backward(layer.out_rel, /*incoming=*/false);

    dact = std::move(dx);
  }

  for (size_t c = 0; c < d; ++c) (*readout_w)[c] -= lr * dw[c];
  *readout_b -= lr * db;
  return loss;
}

}  // namespace

Result<AcGnn> TrainGnnClassifier(const std::vector<GnnExample>& examples,
                                 const std::vector<std::string>& label_universe,
                                 const std::vector<std::string>& relations,
                                 const GnnTrainOptions& opts) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  for (const GnnExample& ex : examples) {
    if (ex.targets.size() != ex.graph->num_nodes()) {
      return Status::InvalidArgument(
          "target bitset size must equal the graph's node count");
    }
  }

  Rng rng(opts.seed);
  AcGnn gnn(label_universe.size());
  for (size_t l = 0; l < opts.num_layers; ++l) {
    GnnLayer& layer = gnn.AddLayer(opts.hidden_dim);
    size_t in_dim = layer.in_dim();
    layer.self.FillGaussian(&rng, 0.4);
    for (const std::string& rel : relations) {
      layer.in_rel.emplace_back(rel, Matrix(opts.hidden_dim, in_dim));
      layer.in_rel.back().second.FillGaussian(&rng, 0.4);
      layer.out_rel.emplace_back(rel, Matrix(opts.hidden_dim, in_dim));
      layer.out_rel.back().second.FillGaussian(&rng, 0.4);
    }
    // Bias toward the linear region of the truncated ReLU.
    for (double& b : layer.bias) b = 0.3 + 0.1 * rng.NextGaussian();
  }
  std::vector<double> readout_w(opts.hidden_dim);
  for (double& w : readout_w) w = rng.NextGaussian() * 0.4;
  double readout_b = 0.0;

  std::vector<Matrix> inputs;
  std::vector<CsrSnapshot> snaps;
  inputs.reserve(examples.size());
  snaps.reserve(examples.size());
  for (const GnnExample& ex : examples) {
    inputs.push_back(AcGnn::OneHotLabels(*ex.graph, label_universe));
    snaps.push_back(CsrSnapshot::FromGraph(*ex.graph));
  }

  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    for (size_t i = 0; i < examples.size(); ++i) {
      Step(&gnn, &readout_w, &readout_b, snaps[i], inputs[i],
           examples[i].targets, opts.learning_rate, opts.forward);
    }
  }

  // Classify() accepts when w·x + b >= 0.5, i.e. sigmoid score ... the
  // trained threshold is score >= 0: shift the bias so the conventions
  // line up.
  gnn.SetReadout(readout_w, readout_b + 0.5);
  return gnn;
}

Result<double> ClassifierAccuracy(const AcGnn& gnn,
                                  const std::vector<std::string>& universe,
                                  const GnnExample& example,
                                  const GnnOptions& opts) {
  Matrix input = AcGnn::OneHotLabels(*example.graph, universe);
  KGQ_ASSIGN_OR_RETURN(
      Bitset predicted,
      gnn.Classify(CsrSnapshot::FromGraph(*example.graph), input, opts));
  size_t n = example.graph->num_nodes();
  size_t correct = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (predicted.Test(v) == example.targets.Test(v)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace kgq
