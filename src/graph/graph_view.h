#ifndef KGQ_GRAPH_GRAPH_VIEW_H_
#define KGQ_GRAPH_GRAPH_VIEW_H_

#include <functional>
#include <memory>
#include <string_view>
#include <utility>

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
///
/// Every view carries one adjacency, its CSR (csr()), which the query
/// kernels read. A view reads the graph it wraps without copying it:
/// that graph must outlive the view and stay unchanged while it lives.
class GraphView {
 public:
  virtual ~GraphView() = default;

  /// The underlying multigraph (N, E, ρ). The query kernels read csr()
  /// instead; only the semantic oracles, path validation and the FPRAS
  /// decoder walk these lists.
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

  /// The CSR this view carries. Its topology and edge labels are the
  /// view's own *by construction*: same nodes, same edge ids and
  /// endpoints, and EdgeLabelIs(e, ℓ) iff FindLabel(ℓ) is the CSR's
  /// label of e. Every view carries one — the model views below and
  /// RdfGraphView build it from the graph they wrap, the epoch views of
  /// the serving layer (serve::EpochSnapshot::View) share the epoch's —
  /// and it is the one adjacency the query kernels read, trusted
  /// without checks. It lives as long as the view.
  const CsrSnapshot& csr() const { return *csr_; }

  /// Sizes, read off csr().
  size_t num_nodes() const;
  size_t num_edges() const;

 protected:
  explicit GraphView(std::shared_ptr<const CsrSnapshot> csr)
      : csr_(std::move(csr)) {}

  /// Set by every derived constructor; never null afterwards.
  std::shared_ptr<const CsrSnapshot> csr_;
};

/// View over a labeled graph: label atoms only.
class LabeledGraphView final : public GraphView {
 public:
  /// Builds the view's CSR from `graph`. The graph must outlive the
  /// view and stay unchanged while it lives.
  explicit LabeledGraphView(const LabeledGraph& graph);

  const Multigraph& topology() const override { return graph_.topology(); }
  bool NodeLabelIs(NodeId n, std::string_view label) const override;
  bool EdgeLabelIs(EdgeId e, std::string_view label) const override;
  DenseLabels dense_labels() const override {
    return DenseLabelsOf(graph_);
  }

  const LabeledGraph& graph() const { return graph_; }

 private:
  const LabeledGraph& graph_;
};

/// View over a property graph: label and property atoms.
class PropertyGraphView final : public GraphView {
 public:
  /// Builds the view's CSR from `graph`. The graph must outlive the
  /// view and stay unchanged while it lives.
  explicit PropertyGraphView(const PropertyGraph& graph);

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
};

/// View over a vector-labeled graph: feature atoms. As a convenience —
/// and consistently with the Figure 2(b)→(c) conversion, which stores the
/// label in feature row 0 — label atoms are answered by feature row 0.
class VectorGraphView final : public GraphView {
 public:
  /// Builds the view's CSR from `graph`. The graph must outlive the
  /// view and stay unchanged while it lives.
  explicit VectorGraphView(const VectorGraph& graph);

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
};

}  // namespace kgq

#endif  // KGQ_GRAPH_GRAPH_VIEW_H_
