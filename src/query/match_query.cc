#include "query/match_query.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>

#include "pathalg/pairs.h"
#include "rpq/cfpq_reference.h"
#include "rpq/parser.h"
#include "rpq/path_expr.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

/// Parses `(var)` or `(var: test)`.
Result<std::pair<std::string, TestPtr>> ParseNodePattern(TextScanner* scan) {
  if (!scan->AcceptChar('(')) {
    return Status::ParseError("expected '(' at position " +
                              std::to_string(scan->pos()));
  }
  KGQ_ASSIGN_OR_RETURN(std::string var, scan->TakeIdentifier());
  TestPtr test;
  if (scan->AcceptChar(':')) {
    KGQ_ASSIGN_OR_RETURN(std::string raw, scan->TakeUntilNodeClose());
    KGQ_ASSIGN_OR_RETURN(test, ParseTest(raw));
  } else if (!scan->AcceptChar(')')) {
    return Status::ParseError("expected ')' after node variable");
  }
  return std::make_pair(std::move(var), std::move(test));
}

}  // namespace

std::string MatchQuery::ToString() const {
  std::string out;
  for (const CnfGrammarPtr& g : grammars) {
    out += g->surface().ToString() + " ";
  }
  out += "MATCH ";
  for (size_t i = 0; i < nodes.size(); ++i) {
    out += "(" + nodes[i].var;
    if (nodes[i].test) out += ": " + nodes[i].test->ToString();
    out += ")";
    if (i < paths.size()) out += " -[ " + paths[i]->ToString() + " ]-> ";
  }
  out += " RETURN ";
  for (size_t i = 0; i < returns.size(); ++i) {
    if (i > 0) out += ", ";
    out += returns[i];
  }
  if (limit > 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

Result<MatchQuery> ParseMatchQuery(std::string_view text) {
  TextScanner scan(text);
  MatchQuery query;
  while (scan.AcceptKeyword("GRAMMAR")) {
    KGQ_ASSIGN_OR_RETURN(CfGrammar surface, ParseGrammarBlock(&scan));
    for (const CnfGrammarPtr& g : query.grammars) {
      if (g->name() == surface.name) {
        return Status::ParseError("duplicate grammar '" + surface.name +
                                  "'");
      }
    }
    KGQ_ASSIGN_OR_RETURN(CnfGrammarPtr g, CnfGrammar::Normalize(surface));
    query.grammars.push_back(std::move(g));
  }
  if (!scan.AcceptKeyword("MATCH")) {
    return Status::ParseError("query must start with MATCH");
  }
  {
    KGQ_ASSIGN_OR_RETURN(auto first, ParseNodePattern(&scan));
    query.nodes.push_back({std::move(first.first), std::move(first.second)});
  }
  while (scan.AcceptSeq("-[")) {
    KGQ_ASSIGN_OR_RETURN(std::string raw, scan.TakeUntilPathClose());
    KGQ_ASSIGN_OR_RETURN(PathExprPtr path,
                         ResolvePathExpr(raw, query.grammars));
    query.paths.push_back(std::move(path));
    KGQ_ASSIGN_OR_RETURN(auto next, ParseNodePattern(&scan));
    query.nodes.push_back({std::move(next.first), std::move(next.second)});
  }
  if (query.paths.empty()) {
    return Status::ParseError("expected at least one '-[ path ]->' hop");
  }
  for (size_t i = 0; i < query.nodes.size(); ++i) {
    for (size_t j = i + 1; j < query.nodes.size(); ++j) {
      if (query.nodes[i].var == query.nodes[j].var) {
        return Status::ParseError("variable '" + query.nodes[i].var +
                                  "' declared twice");
      }
    }
  }

  auto slot_of = [&](const std::string& var) -> TestPtr* {
    for (NodePattern& np : query.nodes) {
      if (np.var == var) return &np.test;
    }
    return nullptr;
  };

  // WHERE var.prop = value (AND ...)*.
  if (scan.AcceptKeyword("WHERE")) {
    do {
      KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
      if (!scan.AcceptChar('.')) {
        return Status::ParseError("expected '.' in WHERE condition");
      }
      KGQ_ASSIGN_OR_RETURN(std::string prop, scan.TakeIdentifier());
      if (!scan.AcceptChar('=')) {
        return Status::ParseError("expected '=' in WHERE condition");
      }
      KGQ_ASSIGN_OR_RETURN(std::string value, scan.TakeValue());
      TestPtr* slot = slot_of(var);
      if (slot == nullptr) {
        return Status::ParseError("WHERE references unknown variable '" +
                                  var + "'");
      }
      TestPtr cond = TestExpr::PropEq(std::move(prop), std::move(value));
      *slot = *slot ? TestExpr::And(*slot, std::move(cond))
                    : std::move(cond);
    } while (scan.AcceptKeyword("AND"));
  }

  if (!scan.AcceptKeyword("RETURN")) {
    return Status::ParseError("expected RETURN clause");
  }
  do {
    KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
    if (slot_of(var) == nullptr) {
      return Status::ParseError("RETURN references unknown variable '" +
                                var + "'");
    }
    query.returns.push_back(std::move(var));
  } while (scan.AcceptChar(','));

  if (scan.AcceptKeyword("LIMIT")) {
    KGQ_ASSIGN_OR_RETURN(std::string num, scan.TakeIdentifier());
    char* end = nullptr;
    query.limit = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || query.limit == 0) {
      return Status::ParseError("LIMIT expects a positive integer");
    }
  }
  if (!scan.AtEnd()) {
    return Status::ParseError("trailing input after query (position " +
                              std::to_string(scan.pos()) + ")");
  }
  return query;
}

Result<QueryResult> ExecuteMatch(const GraphView& view,
                                 const MatchQuery& query) {
  if (query.paths.empty() || query.nodes.size() != query.paths.size() + 1) {
    return Status::InvalidArgument("malformed MATCH chain");
  }
  // Per hop: wrap the path with both endpoints' node restrictions and
  // evaluate pair semantics.
  std::vector<std::vector<Bitset>> hops;
  hops.reserve(query.paths.size());
  for (size_t i = 0; i < query.paths.size(); ++i) {
    if (query.paths[i]->kind() == PathExpr::Kind::kContextFree) {
      // Context-free hop: the naive reference relation with endpoint
      // tests masked onto it (grammar relations cannot absorb node
      // tests the way regexes fold them).
      KGQ_ASSIGN_OR_RETURN(
          std::vector<Bitset> rel,
          CfpqReferenceRelation(view, *query.paths[i]->grammar(),
                                query.paths[i]->nonterminal()));
      if (query.nodes[i].test) {
        Bitset ok = MatchNodes(view, *query.nodes[i].test);
        for (size_t u = 0; u < rel.size(); ++u) {
          if (!ok.Test(u)) rel[u].ClearAll();
        }
      }
      if (query.nodes[i + 1].test) {
        Bitset ok = MatchNodes(view, *query.nodes[i + 1].test);
        for (Bitset& row : rel) row &= ok;
      }
      hops.push_back(std::move(rel));
      continue;
    }
    RegexPtr full = query.paths[i]->regex();
    if (query.nodes[i].test) {
      full = Regex::Concat(Regex::NodeTest(query.nodes[i].test),
                           std::move(full));
    }
    if (query.nodes[i + 1].test) {
      full = Regex::Concat(std::move(full),
                           Regex::NodeTest(query.nodes[i + 1].test));
    }
    KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, *full));
    hops.push_back(AllPairs(nfa));
  }

  // Join hop relations left to right by DFS over variable assignments.
  QueryResult result;
  result.columns = query.returns;
  std::vector<std::vector<NodeId>> rows;
  std::vector<NodeId> assignment(query.nodes.size(), kNoNode);

  // Map RETURN vars to chain positions.
  std::vector<size_t> return_pos;
  for (const std::string& var : query.returns) {
    for (size_t i = 0; i < query.nodes.size(); ++i) {
      if (query.nodes[i].var == var) {
        return_pos.push_back(i);
        break;
      }
    }
  }

  std::function<void(size_t)> extend = [&](size_t next_var) {
    if (next_var == query.nodes.size()) {
      std::vector<NodeId> row;
      row.reserve(return_pos.size());
      for (size_t pos : return_pos) row.push_back(assignment[pos]);
      rows.push_back(std::move(row));
      return;
    }
    const std::vector<Bitset>& relation = hops[next_var - 1];
    relation[assignment[next_var - 1]].ForEach([&](size_t b) {
      assignment[next_var] = static_cast<NodeId>(b);
      extend(next_var + 1);
    });
  };
  for (NodeId a = 0; a < view.num_nodes(); ++a) {
    if (hops[0][a].None()) continue;
    assignment[0] = a;
    extend(1);
  }

  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (query.limit > 0 && rows.size() > query.limit) {
    rows.resize(query.limit);
  }
  result.rows = RowTable(return_pos.size());
  for (const std::vector<NodeId>& row : rows) result.rows.Append(row.data());
  return result;
}

Result<ConjunctiveQuery> CompileMatch(const MatchQuery& query) {
  if (query.paths.empty() || query.nodes.size() != query.paths.size() + 1) {
    return Status::InvalidArgument("malformed MATCH chain");
  }
  ConjunctiveQuery cq;
  for (size_t i = 0; i < query.paths.size(); ++i) {
    cq.atoms.push_back(
        {query.nodes[i].var, query.nodes[i + 1].var, query.paths[i]});
  }
  for (const NodePattern& np : query.nodes) {
    if (np.test) cq.node_tests[np.var] = np.test;
  }
  cq.projection = query.returns;
  cq.limit = query.limit;
  return cq;
}

Result<QueryResult> ExecuteMatchPlanned(const GraphView& view,
                                        const MatchQuery& query,
                                        const MatchPlanOptions& options) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileMatch(query));
  GraphStats stats = GraphStats::From(&view, view.csr());
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanQuery(cq, stats, options.planner));
  ExecOptions eopts;
  eopts.parallel = options.parallel;
  KGQ_ASSIGN_OR_RETURN(RowSet rows, ExecutePlan(view, *plan, eopts));
  QueryResult result;
  result.columns = std::move(rows.schema);
  result.rows = std::move(rows.rows);
  return result;
}

Result<QueryResult> RunMatch(const GraphView& view, std::string_view text) {
  KGQ_ASSIGN_OR_RETURN(MatchQuery query, ParseMatchQuery(text));
  return ExecuteMatchPlanned(view, query);
}

}  // namespace kgq
