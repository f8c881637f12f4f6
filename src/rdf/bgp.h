#ifndef KGQ_RDF_BGP_H_
#define KGQ_RDF_BGP_H_

#include <map>
#include <string>
#include <vector>

#include "plan/ir.h"
#include "plan/optimizer.h"
#include "rdf/triple_store.h"
#include "rpq/regex.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace kgq {

class RdfGraphView;

/// A term of a triple pattern: a constant or a variable ("?x" style —
/// the leading '?' is stripped at construction).
struct Term {
  bool is_var = false;
  std::string text;  ///< Variable name (without '?') or constant.

  static Term Var(std::string name) { return Term{true, std::move(name)}; }
  static Term Const(std::string value) {
    return Term{false, std::move(value)};
  }
};

/// One SPARQL-style triple pattern. When `path` is set the pattern is a
/// SPARQL 1.1 *property path*: it matches (s, o) pairs connected by some
/// path conforming to the regular expression (existential semantics over
/// the RDF graph; the predicate term is ignored).
struct TriplePattern {
  Term s;
  Term p;
  Term o;
  RegexPtr path;  ///< Null for plain triple patterns.
};

/// A solution mapping: variable name → constant id (into store.dict()).
using Binding = std::map<std::string, ConstId>;

/// Evaluates a basic graph pattern (conjunction of triple patterns, the
/// core of SPARQL — reference [38] of the paper) by index-nested-loop
/// join, most-selective-pattern-first. Property-path patterns are
/// evaluated through the RPQ engine (pair semantics over an
/// RdfGraphView). Returns the distinct solution mappings over all
/// variables in the pattern.
Result<std::vector<Binding>> EvalBgp(
    const TripleStore& store, const std::vector<TriplePattern>& patterns);

/// Lowers a BGP to the shared logical IR (plan/ir.h) over `view`'s node
/// space: every plain pattern becomes a PathAtom with the single-label
/// regex ℓ (which the optimizer compiles to an EdgeScan), every property
/// path keeps its regex; constants become fresh `$cN` variables bound to
/// their node ids (a constant absent from the graph binds to kNoNode —
/// the uniform "no match" encoding). The projection is the sorted set of
/// user variables. Returns Unsupported for variable predicates (the
/// store-index join of EvalBgp has no IR counterpart) and InvalidArgument
/// for an empty pattern list.
Result<ConjunctiveQuery> CompileBgp(const std::vector<TriplePattern>& patterns,
                                    const RdfGraphView& view);

/// Knobs for planned BGP evaluation.
struct BgpPlanOptions {
  ParallelOptions parallel;
  PlannerOptions planner;
};

/// Plans and executes the BGP through the unified operators over `view`
/// — its csr() feeds the planner's per-label statistics and the
/// label-partition scans — then maps rows back to solution Bindings
/// (sorted, distinct — exactly EvalBgp's output). Patterns with
/// variable predicates fall back to EvalBgp. An all-constant pattern set
/// yields EvalBgp's convention: one empty binding if the pattern holds,
/// none otherwise.
Result<std::vector<Binding>> EvalBgpPlanned(
    const RdfGraphView& view, const std::vector<TriplePattern>& patterns,
    const BgpPlanOptions& options = {});

/// EvalBgpPlanned over RdfGraphView(store).
Result<std::vector<Binding>> EvalBgpPlanned(
    const TripleStore& store, const std::vector<TriplePattern>& patterns,
    const BgpPlanOptions& options = {});

/// Parses "?x rides ?y . ?y label bus" into patterns. Terms are
/// whitespace-separated; '?'-prefixed terms are variables; patterns are
/// separated by '.'; constants with spaces can be "quoted". A predicate
/// wrapped in parentheses is a property path in the Section 4 regex
/// grammar: "?x (rides/rides^-) ?y".
Result<std::vector<TriplePattern>> ParseBgp(const std::string& text);

}  // namespace kgq

#endif  // KGQ_RDF_BGP_H_
