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
    : view_(view), graph_(view.labeled_graph()) {
  Add(test);
}

uint32_t BoundTest::Add(const TestExpr& test) {
  const uint32_t at = static_cast<uint32_t>(ops_.size());
  ops_.push_back({test.kind(), &test});
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      if (graph_ != nullptr) {
        ops_[at].id = graph_->dict().Find(test.label()).value_or(kNullConst);
      }
      break;
    case TestExpr::Kind::kNot:
      ops_[at].lhs = Add(*test.lhs());
      break;
    case TestExpr::Kind::kAnd:
    case TestExpr::Kind::kOr:
      ops_[at].lhs = Add(*test.lhs());
      ops_[at].rhs = Add(*test.rhs());
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
      if (graph_ != nullptr) {
        return o.id != kNullConst &&
               (kNode ? graph_->NodeLabel(element)
                      : graph_->EdgeLabel(element)) == o.id;
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
  Bitset out(view.num_nodes());
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    if (bound.MatchesNode(n)) out.Set(n);
  }
  return out;
}

Bitset MatchEdges(const GraphView& view, const TestExpr& test) {
  BoundTest bound(view, test);
  Bitset out(view.num_edges());
  for (EdgeId e = 0; e < view.num_edges(); ++e) {
    if (bound.MatchesEdge(e)) out.Set(e);
  }
  return out;
}

}  // namespace kgq
