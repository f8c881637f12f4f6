#include "graph/graph_view.h"

#include "graph/csr_snapshot.h"

namespace kgq {
namespace {

/// True if `id` is interned in `dict` as exactly the string `s`.
bool IdMatches(const Interner& dict, ConstId id, std::string_view s) {
  if (id == kNullConst) return false;
  std::optional<ConstId> want = dict.Find(s);
  return want.has_value() && *want == id;
}

}  // namespace

DenseLabels DenseLabelsOf(const LabeledGraph& graph) {
  auto find = [&dict = graph.dict()](std::string_view s) {
    return dict.Find(s).value_or(kNullConst);
  };
  return {graph.node_labels().data(), graph.edge_labels().data(), find, find};
}

size_t GraphView::num_nodes() const { return csr_->num_nodes(); }
size_t GraphView::num_edges() const { return csr_->num_edges(); }

bool GraphView::NodePropertyIs(NodeId, std::string_view,
                               std::string_view) const {
  return false;
}
bool GraphView::EdgePropertyIs(EdgeId, std::string_view,
                               std::string_view) const {
  return false;
}
bool GraphView::NodeFeatureIs(NodeId, size_t, std::string_view) const {
  return false;
}
bool GraphView::EdgeFeatureIs(EdgeId, size_t, std::string_view) const {
  return false;
}

LabeledGraphView::LabeledGraphView(const LabeledGraph& graph)
    : GraphView(
          std::make_shared<const CsrSnapshot>(CsrSnapshot::FromGraph(graph))),
      graph_(graph) {}

PropertyGraphView::PropertyGraphView(const PropertyGraph& graph)
    : GraphView(
          std::make_shared<const CsrSnapshot>(CsrSnapshot::FromGraph(graph))),
      graph_(graph) {}

VectorGraphView::VectorGraphView(const VectorGraph& graph)
    : GraphView(
          std::make_shared<const CsrSnapshot>(CsrSnapshot::FromGraph(graph))),
      graph_(graph) {}

bool LabeledGraphView::NodeLabelIs(NodeId n, std::string_view label) const {
  return IdMatches(graph_.dict(), graph_.NodeLabel(n), label);
}
bool LabeledGraphView::EdgeLabelIs(EdgeId e, std::string_view label) const {
  return IdMatches(graph_.dict(), graph_.EdgeLabel(e), label);
}

bool PropertyGraphView::NodeLabelIs(NodeId n, std::string_view label) const {
  return IdMatches(graph_.dict(), graph_.NodeLabel(n), label);
}
bool PropertyGraphView::EdgeLabelIs(EdgeId e, std::string_view label) const {
  return IdMatches(graph_.dict(), graph_.EdgeLabel(e), label);
}
bool PropertyGraphView::NodePropertyIs(NodeId n, std::string_view name,
                                       std::string_view value) const {
  std::optional<ConstId> name_id = graph_.dict().Find(name);
  if (!name_id.has_value()) return false;
  std::optional<ConstId> actual = graph_.NodeProperty(n, *name_id);
  return actual.has_value() && IdMatches(graph_.dict(), *actual, value);
}
bool PropertyGraphView::EdgePropertyIs(EdgeId e, std::string_view name,
                                       std::string_view value) const {
  std::optional<ConstId> name_id = graph_.dict().Find(name);
  if (!name_id.has_value()) return false;
  std::optional<ConstId> actual = graph_.EdgeProperty(e, *name_id);
  return actual.has_value() && IdMatches(graph_.dict(), *actual, value);
}

bool VectorGraphView::NodeLabelIs(NodeId n, std::string_view label) const {
  return NodeFeatureIs(n, 0, label);
}
bool VectorGraphView::EdgeLabelIs(EdgeId e, std::string_view label) const {
  return EdgeFeatureIs(e, 0, label);
}
bool VectorGraphView::NodeFeatureIs(NodeId n, size_t feature,
                                    std::string_view value) const {
  if (feature >= graph_.dimension()) return false;
  return IdMatches(graph_.dict(), graph_.NodeFeature(n, feature), value);
}
bool VectorGraphView::EdgeFeatureIs(EdgeId e, size_t feature,
                                    std::string_view value) const {
  if (feature >= graph_.dimension()) return false;
  return IdMatches(graph_.dict(), graph_.EdgeFeature(e, feature), value);
}

}  // namespace kgq
