#ifndef KGQ_PLAN_IR_H_
#define KGQ_PLAN_IR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/multigraph.h"
#include "pathalg/options.h"
#include "rpq/path_expr.h"
#include "rpq/regex.h"

namespace kgq {

/// The shared logical query IR: MatchQuery chains, SPARQL basic graph
/// patterns (with property-path atoms) and CRPQs all compile into a
/// ConjunctiveQuery, which the optimizer (plan/optimizer.h) lowers to a
/// LogicalOp tree and the executor (plan/exec.h) evaluates over a
/// GraphView and its CSR.
///
/// This is the "patterns + regular path atoms under one algebra" shape
/// of Section 4: a conjunction of binary path atoms (x) -[r]-> (y) over
/// node variables, unary node tests, optional constant bindings (from
/// BGP constants), and a projection with the canonical
/// sort + deduplicate + limit output discipline every front-end shares.

/// One binary atom: some path from `src` to `dst` conforming to `path`
/// (existential pair semantics). `src == dst` is allowed and means the
/// pair relation's diagonal. The path is a pluggable PathExpr — regular
/// (the classic CRPQ atom) or context-free (a grammar nonterminal);
/// the RegexPtr constructor keeps the pervasive
/// `{src, dst, regex}` construction sites working unchanged.
struct PatternAtom {
  PatternAtom() = default;
  PatternAtom(std::string src_in, std::string dst_in, PathExprPtr path_in)
      : src(std::move(src_in)),
        dst(std::move(dst_in)),
        path(std::move(path_in)) {}
  PatternAtom(std::string src_in, std::string dst_in, RegexPtr regex)
      : src(std::move(src_in)),
        dst(std::move(dst_in)),
        path(PathExpr::Regular(std::move(regex))) {}

  std::string src;
  std::string dst;
  PathExprPtr path;  ///< Never null.
};

/// Front-end-neutral conjunctive query with regular path atoms (a CRPQ).
struct ConjunctiveQuery {
  std::vector<PatternAtom> atoms;
  /// Unary restriction per variable (absent = unrestricted). A variable
  /// may appear here without appearing in any atom — it is then
  /// evaluated by a NodeScan.
  std::map<std::string, TestPtr> node_tests;
  /// Variables pinned to a concrete node (BGP constants). kNoNode means
  /// the constant does not exist in the graph: the query is empty.
  std::map<std::string, NodeId> bound;
  /// Output columns, in order. Must be declared variables.
  std::vector<std::string> projection;
  /// 0 = no limit. Applied after sorting + deduplication.
  size_t limit = 0;
};

/// Logical operator kinds. The ISSUE-5 algebra: three leaf scans, a
/// binary join, and two unary shapers.
enum class LogicalKind {
  kNodeScan,  ///< All nodes satisfying a test → 1 column.
  kEdgeScan,  ///< All edges with one label → 2 columns (label-partition
              ///< fast path of a single-atom PathAtom).
  kPathAtom,  ///< Pair semantics of a path expression (regular or
              ///< context-free).
  kHashJoin,  ///< Natural join of two subplans on their shared vars.
  kFilter,    ///< Keep rows whose `var` passes a test / equals a node.
  kProject,   ///< Column selection + sort + dedup + limit.
};

const char* LogicalKindName(LogicalKind kind);

class LogicalOp;
using LogicalOpPtr = std::shared_ptr<const LogicalOp>;

/// One node of the logical plan tree. A plain struct on purpose: the
/// optimizer builds plans by value and annotates them with estimated
/// cardinalities; the executor walks them read-only.
class LogicalOp {
 public:
  LogicalKind kind;

  // ---- leaf payload ----
  /// kNodeScan: the scanned variable. kEdgeScan / kPathAtom: the pair
  /// (src_var, dst_var); equal names select the diagonal (1 column).
  std::string src_var;
  std::string dst_var;
  /// kPathAtom: the path expression. For regular atoms, endpoint tests
  /// are already folded in when the pushdown rule ran; context-free
  /// atoms keep endpoint tests as adjacent Filters instead.
  PathExprPtr path;
  /// kEdgeScan: label spelling; `backward` traverses against edge
  /// direction (the ℓ⁻ atom).
  std::string label;
  bool backward = false;
  /// kPathAtom: the physical engine, set by the planner's matrix_rpq
  /// rule. kMatrix runs the boolean-matrix engine — matrix RPQ
  /// (pathalg/matrix_rpq) for regular atoms, the CFPQ fixpoint
  /// (pathalg/cfpq_matrix) for context-free atoms — and kNfa the
  /// per-source BFS / CYK-style reference. kAuto (regular atoms only)
  /// leaves the choice to PairRelation's run-time sample. The engines
  /// are bit-identical, so this is pure physics — never semantics.
  PathEngine engine = PathEngine::kNfa;
  /// kNodeScan / kFilter: the test (null = none).
  TestPtr test;
  /// Constant restriction on src_var / dst_var (kNoNode = none) — set
  /// when the pushdown rule sinks a BGP constant into a leaf; kFilter
  /// uses bound_src for its `var == node` form.
  NodeId bound_src = kNoNode;
  bool has_bound_src = false;
  NodeId bound_dst = kNoNode;
  bool has_bound_dst = false;

  // ---- internal nodes ----
  /// kHashJoin: exactly two children. kFilter / kProject: one.
  std::vector<LogicalOpPtr> children;

  // ---- kProject payload ----
  std::vector<std::string> columns;
  size_t limit = 0;

  // ---- annotations ----
  /// Output variables, in order. Computed at construction.
  std::vector<std::string> schema;
  /// Optimizer cardinality estimate (rows), for EXPLAIN and ordering.
  double est_rows = 0.0;

  /// True iff `var` is in this op's output schema.
  bool Produces(const std::string& var) const;
};

/// Renders the plan as an indented tree — the EXPLAIN surface. One line
/// per operator:
///
///   Project [a] limit=10 est=42
///     HashJoin [p] est=120
///       EdgeScan (a)-[writes]->(p) est=9000
///       PathAtom (p)-[(cites/about)]->(k) est=350
///
/// Leaves print their variable pair, payload and any constant binding;
/// every line carries the optimizer's row estimate.
std::string ExplainPlan(const LogicalOp& root);

}  // namespace kgq

#endif  // KGQ_PLAN_IR_H_
