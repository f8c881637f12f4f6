#include "rpq/test_eval.h"

#include <cassert>

namespace kgq {

bool EvalNodeTest(const GraphView& view, const TestExpr& test, NodeId n) {
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      return view.NodeLabelIs(n, test.label());
    case TestExpr::Kind::kPropEq:
      return view.NodePropertyIs(n, test.prop_name(), test.value());
    case TestExpr::Kind::kFeatEq:
      return view.NodeFeatureIs(n, test.feature(), test.value());
    case TestExpr::Kind::kNot:
      return !EvalNodeTest(view, *test.lhs(), n);
    case TestExpr::Kind::kAnd:
      return EvalNodeTest(view, *test.lhs(), n) &&
             EvalNodeTest(view, *test.rhs(), n);
    case TestExpr::Kind::kOr:
      return EvalNodeTest(view, *test.lhs(), n) ||
             EvalNodeTest(view, *test.rhs(), n);
    case TestExpr::Kind::kTrue:
      return true;
  }
  assert(false);
  return false;
}

bool EvalEdgeTest(const GraphView& view, const TestExpr& test, EdgeId e) {
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      return view.EdgeLabelIs(e, test.label());
    case TestExpr::Kind::kPropEq:
      return view.EdgePropertyIs(e, test.prop_name(), test.value());
    case TestExpr::Kind::kFeatEq:
      return view.EdgeFeatureIs(e, test.feature(), test.value());
    case TestExpr::Kind::kNot:
      return !EvalEdgeTest(view, *test.lhs(), e);
    case TestExpr::Kind::kAnd:
      return EvalEdgeTest(view, *test.lhs(), e) &&
             EvalEdgeTest(view, *test.rhs(), e);
    case TestExpr::Kind::kOr:
      return EvalEdgeTest(view, *test.lhs(), e) ||
             EvalEdgeTest(view, *test.rhs(), e);
    case TestExpr::Kind::kTrue:
      return true;
  }
  assert(false);
  return false;
}

BoundTest::BoundTest(const GraphView& view, const TestExpr& test)
    : view_(view) {
  const DenseLabels dense = view.dense_labels();
  if (dense) {
    dense_ = true;
    node_labels_ = dense.nodes;
    edge_labels_ = dense.edges;
  }
  Add(test, dense);
}

uint32_t BoundTest::Add(const TestExpr& test, const DenseLabels& dense) {
  const uint32_t at = static_cast<uint32_t>(ops_.size());
  ops_.push_back({test.kind(), &test});
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      if (dense_) {
        ops_[at].node_id = dense.node_id(test.label());
        ops_[at].edge_id = dense.edge_id(test.label());
      }
      break;
    case TestExpr::Kind::kNot:
      ops_[at].lhs = Add(*test.lhs(), dense);
      break;
    case TestExpr::Kind::kAnd:
    case TestExpr::Kind::kOr:
      ops_[at].lhs = Add(*test.lhs(), dense);
      ops_[at].rhs = Add(*test.rhs(), dense);
      break;
    default:
      break;
  }
  return at;
}

template <bool kNode>
bool BoundTest::Eval(uint32_t op, uint32_t element) const {
  const Op& o = ops_[op];
  switch (o.kind) {
    case TestExpr::Kind::kLabel:
      if (dense_) {
        const ConstId id = kNode ? o.node_id : o.edge_id;
        return id != kNullConst &&
               (kNode ? node_labels_ : edge_labels_)[element] == id;
      }
      return kNode ? view_.NodeLabelIs(element, o.expr->label())
                   : view_.EdgeLabelIs(element, o.expr->label());
    case TestExpr::Kind::kNot:
      return !Eval<kNode>(o.lhs, element);
    case TestExpr::Kind::kAnd:
      return Eval<kNode>(o.lhs, element) && Eval<kNode>(o.rhs, element);
    case TestExpr::Kind::kOr:
      return Eval<kNode>(o.lhs, element) || Eval<kNode>(o.rhs, element);
    default:
      return kNode ? EvalNodeTest(view_, *o.expr, element)
                   : EvalEdgeTest(view_, *o.expr, element);
  }
}

Bitset MatchNodes(const GraphView& view, const TestExpr& test) {
  BoundTest bound(view, test);
  const size_t n_nodes = view.num_nodes();
  Bitset out(n_nodes);
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (bound.MatchesNode(n)) out.Set(n);
  }
  return out;
}

Bitset MatchEdges(const GraphView& view, const TestExpr& test) {
  BoundTest bound(view, test);
  const size_t n_edges = view.num_edges();
  Bitset out(n_edges);
  for (EdgeId e = 0; e < n_edges; ++e) {
    if (bound.MatchesEdge(e)) out.Set(e);
  }
  return out;
}

}  // namespace kgq
