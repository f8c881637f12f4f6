#ifndef KGQ_QUERY_MATCH_QUERY_H_
#define KGQ_QUERY_MATCH_QUERY_H_

#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "rpq/regex.h"
#include "util/result.h"

namespace kgq {

/// One node pattern of a MATCH chain: `(var)` or `(var: test)`.
struct NodePattern {
  std::string var;
  TestPtr test;  ///< May be null (no restriction).
};

/// A small declarative query language in the spirit of the languages the
/// tutorial surveys (Cypher, PGQL, G-CORE, SPARQL property paths): node
/// extraction by pattern matching along a chain of path expressions:
///
///   grammar SG { SG -> cites^- SG cites | cites^- cites }
///   MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> (y: infected)
///   WHERE x.age = "34" AND y.name = "Pedro"
///   RETURN x, b, y
///   LIMIT 10
///
/// * zero or more `grammar NAME { ... }` preambles before MATCH declare
///   context-free grammars (rpq/path_expr.h); hops reference them as
///   `-[ NAME ]->` or `-[ NAME.NT ]->`, mixing freely with regex hops;
/// * node patterns: `(var)` or `(var: test)` with the rpq test grammar
///   (so `(x: [person | infected])` works); variables must be distinct;
/// * each hop is any expression of the Section 4 regex grammar, or a
///   declared grammar reference;
/// * WHERE adds property-equality conjuncts on declared variables;
/// * per-hop evaluation uses existential pair semantics
///   (pathalg/pairs.h; rpq/cfpq_reference.h for context-free hops); the
///   chain is joined hop by hop;
/// * RETURN projects (deduplicated, sorted rows); LIMIT truncates.
struct MatchQuery {
  /// Declared grammars, in preamble order (names unique).
  std::vector<CnfGrammarPtr> grammars;
  std::vector<NodePattern> nodes;   ///< k+1 patterns.
  std::vector<PathExprPtr> paths;   ///< k hops (≥ 1).
  std::vector<std::string> returns;
  size_t limit = 0;  ///< 0 = no limit.

  /// Renders back in the concrete syntax (grammar preambles first) —
  /// the canonical text serve-layer caches key on.
  std::string ToString() const;
};

/// Tabular query answer: node ids per projected column.
struct QueryResult {
  std::vector<std::string> columns;
  RowTable rows;  ///< arity == columns.size().
};

/// Parses the MATCH grammar above. Keywords are case-insensitive.
Result<MatchQuery> ParseMatchQuery(std::string_view text);

/// Reference evaluator: joins the chain hop by hop in textual order with
/// per-hop AllPairs relations. Retained as the oracle the planner is
/// differentially tested against (tests/test_plan_differential.cc);
/// production execution goes through ExecuteMatchPlanned. Beware: the
/// full solution set is materialized before projection; chains with huge
/// joins cost memory.
Result<QueryResult> ExecuteMatch(const GraphView& view,
                                 const MatchQuery& query);

/// Lowers the MATCH chain to the shared logical IR (plan/ir.h): one
/// PatternAtom per hop, one node-test entry per restricted variable, the
/// RETURN list as projection. Fails on malformed chains
/// (nodes.size() != paths.size() + 1 or no hops).
Result<ConjunctiveQuery> CompileMatch(const MatchQuery& query);

/// Knobs for planned MATCH execution.
struct MatchPlanOptions {
  ParallelOptions parallel;
  PlannerOptions planner;
};

/// Compile → optimize → execute through the unified physical operators,
/// over the view's csr() (stats + label-partition scans).
/// Produces exactly ExecuteMatch's rows (sorted, deduplicated, limited)
/// for every PlannerOptions configuration and thread count.
Result<QueryResult> ExecuteMatchPlanned(const GraphView& view,
                                        const MatchQuery& query,
                                        const MatchPlanOptions& options = {});

/// Parse + planned execution convenience.
Result<QueryResult> RunMatch(const GraphView& view, std::string_view text);

}  // namespace kgq

#endif  // KGQ_QUERY_MATCH_QUERY_H_
