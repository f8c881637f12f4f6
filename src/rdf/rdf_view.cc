#include "rdf/rdf_view.h"

#include <cassert>

#include "rdf/convert.h"
#include "rdf/turtle.h"

namespace kgq {

RdfGraphView::RdfGraphView(const TripleStore& store,
                           const RdfsVocabulary& vocab)
    : GraphView(nullptr), store_(store) {
  for (const std::string& pred :
       {vocab.type, std::string(kRdfTypeIri),
        std::string(kNodeLabelPredicate)}) {
    std::optional<ConstId> id = store_.dict().Find(pred);
    if (id.has_value()) label_preds_.push_back(*id);
  }

  auto node_for = [&](ConstId term) {
    auto [it, inserted] =
        node_of_.emplace(term, static_cast<NodeId>(node_terms_.size()));
    if (inserted) {
      node_terms_.push_back(term);
      graph_.AddNode();
    }
    return it->second;
  };

  for (const Triple& t : store_.AllTriples()) {
    NodeId s = node_for(t.s);
    NodeId o = node_for(t.o);
    auto added = graph_.AddEdge(s, o);
    assert(added.ok());
    (void)added;
    edge_preds_.push_back(t.p);
  }
  csr_ = std::make_shared<const CsrSnapshot>(
      CsrSnapshot::FromLabeledEdges(graph_, [this](EdgeId e) {
        return store_.dict().Lookup(edge_preds_[e]);
      }));
}

bool RdfGraphView::NodeLabelIs(NodeId n, std::string_view label) const {
  std::optional<ConstId> label_id = store_.dict().Find(label);
  if (!label_id.has_value()) return false;
  ConstId term = node_terms_[n];
  for (ConstId pred : label_preds_) {
    if (!store_.Match(term, pred, *label_id).empty()) return true;
  }
  return false;
}

bool RdfGraphView::EdgeLabelIs(EdgeId e, std::string_view label) const {
  std::optional<ConstId> label_id = store_.dict().Find(label);
  return label_id.has_value() && edge_preds_[e] == *label_id;
}

NodeId RdfGraphView::NodeOf(std::string_view term) const {
  std::optional<ConstId> id = store_.dict().Find(term);
  if (!id.has_value()) return kNoNode;
  auto it = node_of_.find(*id);
  return it == node_of_.end() ? kNoNode : it->second;
}

}  // namespace kgq
