#ifndef KGQ_GRAPH_LABELED_GRAPH_H_
#define KGQ_GRAPH_LABELED_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/multigraph.h"
#include "util/interner.h"
#include "util/result.h"

namespace kgq {

/// A labeled graph L = (N, E, ρ, λ): a multigraph plus a total labeling
/// λ : (N ∪ E) → Const of both nodes and edges (Section 3, Figure 2(a)).
///
/// The graph owns its constant dictionary, so labels can be supplied and
/// read back as strings while all internal storage uses dense ConstId.
class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Adds a node labeled `label` and returns its id.
  NodeId AddNode(std::string_view label);

  /// Adds an edge labeled `label`; fails if an endpoint does not exist.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, std::string_view label);

  size_t num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }
  bool HasNode(NodeId n) const { return graph_.HasNode(n); }
  bool HasEdge(EdgeId e) const { return graph_.HasEdge(e); }
  NodeId EdgeSource(EdgeId e) const { return graph_.EdgeSource(e); }
  NodeId EdgeTarget(EdgeId e) const { return graph_.EdgeTarget(e); }
  const std::vector<EdgeId>& OutEdges(NodeId n) const {
    return graph_.OutEdges(n);
  }
  const std::vector<EdgeId>& InEdges(NodeId n) const {
    return graph_.InEdges(n);
  }

  /// λ(n) for a node.
  ConstId NodeLabel(NodeId n) const { return node_labels_[n]; }
  /// λ(e) for an edge.
  ConstId EdgeLabel(EdgeId e) const { return edge_labels_[e]; }

  /// λ over all nodes (edges), indexed by NodeId (EdgeId).
  const std::vector<ConstId>& node_labels() const { return node_labels_; }
  const std::vector<ConstId>& edge_labels() const { return edge_labels_; }

  /// λ(n) as a string.
  const std::string& NodeLabelString(NodeId n) const {
    return dict_.Lookup(NodeLabel(n));
  }
  /// λ(e) as a string.
  const std::string& EdgeLabelString(EdgeId e) const {
    return dict_.Lookup(EdgeLabel(e));
  }

  /// The underlying multigraph (N, E, ρ).
  const Multigraph& topology() const { return graph_; }

  /// The constant dictionary of this graph.
  Interner& dict() { return dict_; }
  const Interner& dict() const { return dict_; }

 private:
  Multigraph graph_;
  Interner dict_;
  std::vector<ConstId> node_labels_;
  std::vector<ConstId> edge_labels_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_LABELED_GRAPH_H_
