#ifndef KGQ_GRAPH_GRAPH_VIEW_H_
#define KGQ_GRAPH_GRAPH_VIEW_H_

#include <functional>
#include <memory>
#include <string_view>

#include "graph/labeled_graph.h"
#include "graph/multigraph.h"
#include "graph/property_graph.h"
#include "graph/vector_graph.h"

namespace kgq {

class CsrSnapshot;

/// A view's label atoms as dense ids: node n carries nodes[n], edge e
/// carries edges[e], and NodeLabelIs(n, ℓ) iff nodes[n] == node_id(ℓ)
/// (likewise for edges). The resolvers return kNullConst for a spelling
/// no element carries. Node and edge ids may come from different
/// dictionaries, so an id is only compared within its own column.
/// Default-constructed (no resolvers): the view's labels are not dense.
struct DenseLabels {
  const ConstId* nodes = nullptr;
  const ConstId* edges = nullptr;
  std::function<ConstId(std::string_view)> node_id;
  std::function<ConstId(std::string_view)> edge_id;

  explicit operator bool() const { return static_cast<bool>(node_id); }
};

/// The dense labels of a labeled graph: λ's ConstIds, resolved through
/// its dictionary.
DenseLabels DenseLabelsOf(const LabeledGraph& graph);

/// Model-independent read interface consumed by the query machinery.
///
/// The paper defines regular expressions once and instantiates their
/// semantics over labeled graphs, property graphs and vector-labeled
/// graphs; GraphView is the code counterpart. Each predicate answers one
/// atomic test from Section 4:
///   - NodeLabelIs / EdgeLabelIs       — the ℓ atoms,
///   - NodePropertyIs / EdgePropertyIs — the (p = v) atoms,
///   - NodeFeatureIs / EdgeFeatureIs   — the (f_i = v) atoms.
/// Atoms that do not exist in a model are uniformly false there (e.g.
/// property atoms over a plain labeled graph), mirroring the paper's
/// per-model test grammars.
class GraphView {
 public:
  virtual ~GraphView() = default;

  /// The underlying multigraph (N, E, ρ).
  virtual const Multigraph& topology() const = 0;

  virtual bool NodeLabelIs(NodeId n, std::string_view label) const = 0;
  virtual bool EdgeLabelIs(EdgeId e, std::string_view label) const = 0;

  virtual bool NodePropertyIs(NodeId n, std::string_view name,
                              std::string_view value) const;
  virtual bool EdgePropertyIs(EdgeId e, std::string_view name,
                              std::string_view value) const;

  virtual bool NodeFeatureIs(NodeId n, size_t feature,
                             std::string_view value) const;
  virtual bool EdgeFeatureIs(EdgeId e, size_t feature,
                             std::string_view value) const;

  /// The dense ids behind this view's label atoms, or an empty
  /// DenseLabels when labels are not stored as dense ids (feature row 0
  /// of a vector graph, RDF type triples). Lets a caller resolve a label
  /// spelling once per query and compare ids per element instead of
  /// comparing strings per element.
  virtual DenseLabels dense_labels() const { return {}; }

  /// The CSR this view carries, or nullptr (the default). Its topology
  /// and edge labels are the view's own *by construction*: same nodes,
  /// same edge ids and endpoints, and EdgeLabelIs(e, ℓ) iff
  /// FindLabel(ℓ) is the CSR's label of e. Only a view builds its
  /// CSR — the WithCsr constructors of the model views below and
  /// RdfGraphView, and the epoch views of the serving layer
  /// (serve::EpochSnapshot::View) — and it is the only way a CSR
  /// reaches the query kernels, which trust it without checks. The CSR
  /// lives as long as the view.
  virtual const CsrSnapshot* csr() const { return nullptr; }

  /// Sizes, read off csr() when it is set so that sizing a view never
  /// needs its topology().
  size_t num_nodes() const;
  size_t num_edges() const;
};

/// View over a labeled graph: label atoms only.
class LabeledGraphView final : public GraphView {
 public:
  /// A plain view: csr() is nullptr. The graph must outlive the view.
  explicit LabeledGraphView(const LabeledGraph& graph) : graph_(graph) {}
  /// A view that carries its own CSR, built from `graph`. The graph
  /// must outlive the view and stay unchanged.
  static LabeledGraphView WithCsr(const LabeledGraph& graph);

  const CsrSnapshot* csr() const override { return csr_.get(); }

  const Multigraph& topology() const override { return graph_.topology(); }
  bool NodeLabelIs(NodeId n, std::string_view label) const override;
  bool EdgeLabelIs(EdgeId e, std::string_view label) const override;
  DenseLabels dense_labels() const override {
    return DenseLabelsOf(graph_);
  }

  const LabeledGraph& graph() const { return graph_; }

 private:
  const LabeledGraph& graph_;
  std::shared_ptr<const CsrSnapshot> csr_;
};

/// View over a property graph: label and property atoms.
class PropertyGraphView final : public GraphView {
 public:
  /// A plain view: csr() is nullptr. The graph must outlive the view.
  explicit PropertyGraphView(const PropertyGraph& graph) : graph_(graph) {}
  /// A view that carries its own CSR, built from `graph`. The graph
  /// must outlive the view and stay unchanged.
  static PropertyGraphView WithCsr(const PropertyGraph& graph);

  const CsrSnapshot* csr() const override { return csr_.get(); }

  const Multigraph& topology() const override {
    return graph_.labeled().topology();
  }
  bool NodeLabelIs(NodeId n, std::string_view label) const override;
  bool EdgeLabelIs(EdgeId e, std::string_view label) const override;
  bool NodePropertyIs(NodeId n, std::string_view name,
                      std::string_view value) const override;
  bool EdgePropertyIs(EdgeId e, std::string_view name,
                      std::string_view value) const override;
  DenseLabels dense_labels() const override {
    return DenseLabelsOf(graph_.labeled());
  }

  const PropertyGraph& graph() const { return graph_; }

 private:
  const PropertyGraph& graph_;
  std::shared_ptr<const CsrSnapshot> csr_;
};

/// View over a vector-labeled graph: feature atoms. As a convenience —
/// and consistently with the Figure 2(b)→(c) conversion, which stores the
/// label in feature row 0 — label atoms are answered by feature row 0.
class VectorGraphView final : public GraphView {
 public:
  /// A plain view: csr() is nullptr. The graph must outlive the view.
  explicit VectorGraphView(const VectorGraph& graph) : graph_(graph) {}
  /// A view that carries its own CSR, built from `graph`. The graph
  /// must outlive the view and stay unchanged.
  static VectorGraphView WithCsr(const VectorGraph& graph);

  const CsrSnapshot* csr() const override { return csr_.get(); }

  const Multigraph& topology() const override { return graph_.topology(); }
  bool NodeLabelIs(NodeId n, std::string_view label) const override;
  bool EdgeLabelIs(EdgeId e, std::string_view label) const override;
  bool NodeFeatureIs(NodeId n, size_t feature,
                     std::string_view value) const override;
  bool EdgeFeatureIs(EdgeId e, size_t feature,
                     std::string_view value) const override;

  const VectorGraph& graph() const { return graph_; }

 private:
  const VectorGraph& graph_;
  std::shared_ptr<const CsrSnapshot> csr_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_GRAPH_VIEW_H_
