#ifndef KGQ_RPQ_CRPQ_H_
#define KGQ_RPQ_CRPQ_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "rpq/regex.h"
#include "util/result.h"

namespace kgq {

/// A conjunctive path query — the class the paper's Section 4 builds up
/// to, extended past regular: a conjunction of path atoms (regular
/// expressions or context-free grammar nonterminals) over shared
/// variables, with node-test restrictions and a projected head.
/// Datalog-ish concrete syntax:
///
///   grammar SG { SG -> cites^- SG cites | cites^- cites }
///   q(x, z) :- (x: person) -[ writes ]-> (y),
///              (y) -[ cites* ]-> (z),
///              (z) -[ SG ]-> (z),
///              (w: venue)
///              LIMIT 5
///
/// * zero or more `grammar NAME { ... }` preambles declare context-free
///   grammars (rpq/path_expr.h has the block syntax); atoms reference
///   them as `-[ NAME ]->` (start nonterminal; grammar names shadow
///   edge labels) or `-[ NAME.NT ]->`, mixing freely with regex atoms;
/// * conjuncts are comma-separated; each is a node pattern optionally
///   followed by a chain of `-[ pathexpr ]-> (node)` hops (a chain of k
///   hops contributes k atoms);
/// * a bare `(w: venue)` conjunct declares a variable restricted by a
///   node test but constrained by no path atom;
/// * variables may repeat anywhere — that is what makes it conjunctive;
///   repeated tests on one variable are AND-ed;
/// * head variables must occur in the body; rows are deduplicated,
///   sorted, and truncated to LIMIT.
struct Crpq {
  std::string name = "q";
  std::vector<std::string> head;
  /// Declared grammars, in preamble order (normalized; the surface form
  /// is retained inside for rendering). Names are unique.
  std::vector<CnfGrammarPtr> grammars;
  std::vector<PatternAtom> atoms;  ///< May be empty (pure node scans).
  std::map<std::string, TestPtr> node_tests;
  size_t limit = 0;  ///< 0 = no limit.

  /// Renders back in the concrete syntax: grammar preambles first, then
  /// the rule (tests printed at each variable's first occurrence). This
  /// is the canonical text the serve layer keys caches on — grammars
  /// fold into the key automatically.
  std::string ToString() const;
};

/// Parses the grammar above. Keywords are case-insensitive.
Result<Crpq> ParseCrpq(std::string_view text);

/// Lowers a CRPQ to the shared logical IR (plan/ir.h). This front-end is
/// the IR's native client: atoms and node tests map one-to-one, the head
/// becomes the projection. Fails if the head is empty or references an
/// undeclared variable.
Result<ConjunctiveQuery> CompileCrpq(const Crpq& q);

/// Knobs for planned CRPQ execution.
struct CrpqOptions {
  ParallelOptions parallel;
  PlannerOptions planner;
};

/// Compile → optimize (PlanQuery) → execute (ExecutePlan); the view's
/// csr() feeds the cardinality stats and the label-partition scans.
/// Rows are canonical: sorted, deduplicated, limited — identical to
/// EvalCrpqReference for every PlannerOptions configuration and at
/// every thread count.
Result<RowSet> EvalCrpq(const GraphView& view, const Crpq& q,
                        const CrpqOptions& options = {});

/// Reference oracle: per-atom pair relations (regular atoms via
/// AllPairs with endpoint tests folded into the regex; context-free
/// atoms via the naive CYK-style CfpqReferenceRelation with endpoint
/// tests masked onto the relation), nested-loop joined by DFS in
/// textual order, test-only variables extended by node scans, then the
/// canonical sort/dedup/limit. Sequential, no planner — the ground
/// truth tests/test_plan_differential.cc and
/// tests/test_cfpq_differential.cc check EvalCrpq against.
Result<RowSet> EvalCrpqReference(const GraphView& view, const Crpq& q);

/// Parse + planned execution convenience.
Result<RowSet> RunCrpq(const GraphView& view, std::string_view text,
                       const CrpqOptions& options = {});

}  // namespace kgq

#endif  // KGQ_RPQ_CRPQ_H_
