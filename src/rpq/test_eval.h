#ifndef KGQ_RPQ_TEST_EVAL_H_
#define KGQ_RPQ_TEST_EVAL_H_

#include <cstdint>
#include <vector>

#include "graph/graph_view.h"
#include "rpq/test_expr.h"
#include "util/bitset.h"

namespace kgq {

/// True iff node `n` of `view` satisfies `test` (Section 4 semantics;
/// atoms not supported by the model are false).
bool EvalNodeTest(const GraphView& view, const TestExpr& test, NodeId n);

/// True iff edge `e` of `view` satisfies `test`.
bool EvalEdgeTest(const GraphView& view, const TestExpr& test, EdgeId e);

/// `test` bound to one view for evaluation over many elements: every
/// label atom is resolved to the view's dense label id once (when the
/// view has dense_labels()), so each element costs one id compare — no
/// virtual call, no string compare. Other atoms, and label atoms of
/// views without dense ids, evaluate exactly as EvalNodeTest /
/// EvalEdgeTest do; results are identical to those. `view` and `test`
/// must outlive the BoundTest.
class BoundTest {
 public:
  BoundTest(const GraphView& view, const TestExpr& test);

  bool MatchesNode(NodeId n) const { return Eval<true>(0, n); }
  bool MatchesEdge(EdgeId e) const { return Eval<false>(0, e); }

 private:
  // The test tree in pre-order (root at 0); `id` is the resolved label
  // of a kLabel node (kNullConst: no element carries it) — a node-label
  // id for MatchesNode, an edge-label id for MatchesEdge.
  struct Op {
    TestExpr::Kind kind;
    const TestExpr* expr;
    ConstId node_id = kNullConst;
    ConstId edge_id = kNullConst;
    uint32_t lhs = 0;
    uint32_t rhs = 0;
  };

  uint32_t Add(const TestExpr& test, const DenseLabels& dense);

  template <bool kNode>
  bool Eval(uint32_t op, uint32_t element) const;

  const GraphView& view_;
  bool dense_ = false;
  const ConstId* node_labels_ = nullptr;
  const ConstId* edge_labels_ = nullptr;
  std::vector<Op> ops_;
};

/// Bitset over all nodes of `view` satisfying `test`. Query compilation
/// precomputes these once per distinct atom so that the path algorithms
/// never re-evaluate test ASTs in inner loops.
Bitset MatchNodes(const GraphView& view, const TestExpr& test);

/// Bitset over all edges of `view` satisfying `test`.
Bitset MatchEdges(const GraphView& view, const TestExpr& test);

}  // namespace kgq

#endif  // KGQ_RPQ_TEST_EVAL_H_
