#ifndef KGQ_RDF_RDF_VIEW_H_
#define KGQ_RDF_RDF_VIEW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "rdf/rdfs.h"
#include "rdf/triple_store.h"

namespace kgq {

/// GraphView over an RDF store, so the whole RPQ toolbox (evaluation,
/// counting, enumeration, FPRAS, bc_r) runs directly on triples — this
/// is SPARQL property paths on our substrate.
///
/// Construction takes a *snapshot*: every term occurring as subject or
/// object becomes a node, every triple an edge labeled by its predicate.
/// Node-label tests `?C` hold at n iff the store contains
/// (n, rdf:type, C) — compact or full-IRI form — or (n, kgq:label, C). Classes are nodes too (that's
/// RDF); property tests and feature tests are not part of this model.
class RdfGraphView final : public GraphView {
 public:
  /// Builds the view's topology and its CSR, whose edge partitions are
  /// labeled by predicate. The store must outlive the view and stay
  /// unchanged while it lives.
  explicit RdfGraphView(const TripleStore& store,
                        const RdfsVocabulary& vocab = {});

  const Multigraph& topology() const override { return graph_; }
  bool NodeLabelIs(NodeId n, std::string_view label) const override;
  bool EdgeLabelIs(EdgeId e, std::string_view label) const override;

  /// The node for an RDF term; kNoNode if the term never occurs as
  /// subject or object.
  NodeId NodeOf(std::string_view term) const;

  /// The RDF term of a node.
  const std::string& TermOf(NodeId n) const {
    return store_.dict().Lookup(node_terms_[n]);
  }

  const TripleStore& store() const { return store_; }

 private:
  const TripleStore& store_;
  Multigraph graph_;
  std::vector<ConstId> node_terms_;          // NodeId → term.
  std::unordered_map<ConstId, NodeId> node_of_;
  std::vector<ConstId> edge_preds_;          // EdgeId → predicate.
  // Predicates whose triples define node "labels": the vocabulary's
  // type, the full rdf:type IRI (Turtle `a`), and kgq:label.
  std::vector<ConstId> label_preds_;
};

}  // namespace kgq

#endif  // KGQ_RDF_RDF_VIEW_H_
