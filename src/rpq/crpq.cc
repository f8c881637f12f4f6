#include "rpq/crpq.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>

#include "pathalg/pairs.h"
#include "plan/stats.h"
#include "rpq/cfpq_reference.h"
#include "rpq/parser.h"
#include "rpq/path_expr.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

/// Parses `(var)` or `(var: test)`.
Result<std::pair<std::string, TestPtr>> ParseCrpqNode(TextScanner* scan) {
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

std::string Crpq::ToString() const {
  std::string out;
  for (const CnfGrammarPtr& g : grammars) {
    out += g->surface().ToString() + " ";
  }
  out += name + "(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += head[i];
  }
  out += ") :- ";
  std::set<std::string> printed;
  auto render_node = [&](const std::string& var) {
    std::string s = "(" + var;
    auto it = node_tests.find(var);
    if (it != node_tests.end() && printed.insert(var).second) {
      s += ": " + it->second->ToString();
    }
    return s + ")";
  };
  std::set<std::string> in_atoms;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += render_node(atoms[i].src) + " -[ " + atoms[i].path->ToString() +
           " ]-> " + render_node(atoms[i].dst);
    in_atoms.insert(atoms[i].src);
    in_atoms.insert(atoms[i].dst);
  }
  bool first = atoms.empty();
  for (const auto& [var, test] : node_tests) {
    if (in_atoms.count(var) > 0) continue;
    if (!first) out += ", ";
    first = false;
    out += render_node(var);
  }
  if (limit > 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

Result<Crpq> ParseCrpq(std::string_view text) {
  TextScanner scan(text);
  Crpq q;
  while (scan.AcceptKeyword("GRAMMAR")) {
    KGQ_ASSIGN_OR_RETURN(CfGrammar surface, ParseGrammarBlock(&scan));
    for (const CnfGrammarPtr& g : q.grammars) {
      if (g->name() == surface.name) {
        return Status::ParseError("duplicate grammar '" + surface.name +
                                  "'");
      }
    }
    KGQ_ASSIGN_OR_RETURN(CnfGrammarPtr g, CnfGrammar::Normalize(surface));
    q.grammars.push_back(std::move(g));
  }
  KGQ_ASSIGN_OR_RETURN(q.name, scan.TakeIdentifier());
  if (!scan.AcceptChar('(')) {
    return Status::ParseError("expected '(' after head predicate");
  }
  do {
    KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
    q.head.push_back(std::move(var));
  } while (scan.AcceptChar(','));
  if (!scan.AcceptChar(')')) {
    return Status::ParseError("expected ')' closing the head");
  }
  if (!scan.AcceptSeq(":-")) {
    return Status::ParseError("expected ':-' after head");
  }

  auto add_test = [&](const std::string& var, TestPtr test) {
    if (!test) return;
    TestPtr& slot = q.node_tests[var];
    slot = slot ? TestExpr::And(slot, std::move(test)) : std::move(test);
  };

  do {
    KGQ_ASSIGN_OR_RETURN(auto node, ParseCrpqNode(&scan));
    std::string prev = node.first;
    add_test(prev, std::move(node.second));
    while (scan.AcceptSeq("-[")) {
      KGQ_ASSIGN_OR_RETURN(std::string raw, scan.TakeUntilPathClose());
      KGQ_ASSIGN_OR_RETURN(PathExprPtr path,
                           ResolvePathExpr(raw, q.grammars));
      KGQ_ASSIGN_OR_RETURN(auto next, ParseCrpqNode(&scan));
      q.atoms.push_back({prev, next.first, std::move(path)});
      prev = next.first;
      add_test(prev, std::move(next.second));
    }
  } while (scan.AcceptChar(','));

  if (scan.AcceptKeyword("LIMIT")) {
    KGQ_ASSIGN_OR_RETURN(std::string num, scan.TakeIdentifier());
    char* end = nullptr;
    q.limit = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || q.limit == 0) {
      return Status::ParseError("LIMIT expects a positive integer");
    }
  }
  if (!scan.AtEnd()) {
    return Status::ParseError("trailing input after query (position " +
                              std::to_string(scan.pos()) + ")");
  }

  std::set<std::string> declared;
  for (const PatternAtom& a : q.atoms) {
    declared.insert(a.src);
    declared.insert(a.dst);
  }
  for (const auto& [var, test] : q.node_tests) declared.insert(var);
  for (const std::string& h : q.head) {
    if (declared.count(h) == 0) {
      return Status::ParseError("head variable '" + h +
                                "' does not occur in the body");
    }
  }
  return q;
}

Result<ConjunctiveQuery> CompileCrpq(const Crpq& q) {
  if (q.head.empty()) {
    return Status::InvalidArgument("CRPQ head must project something");
  }
  ConjunctiveQuery cq;
  cq.atoms = q.atoms;
  cq.node_tests = q.node_tests;
  cq.projection = q.head;
  cq.limit = q.limit;
  return cq;
}

Result<RowSet> EvalCrpq(const GraphView& view, const Crpq& q,
                        const CrpqOptions& options) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileCrpq(q));
  GraphStats stats = GraphStats::From(&view, view.csr());
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanQuery(cq, stats, options.planner));
  ExecOptions eopts;
  eopts.parallel = options.parallel;
  return ExecutePlan(view, *plan, eopts);
}

Result<RowSet> EvalCrpqReference(const GraphView& view, const Crpq& q) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileCrpq(q));
  const size_t n = view.num_nodes();

  // Per-atom pair relations, endpoint tests folded into the regex the
  // same way ExecuteMatch does. Diagonal atoms fold the source test
  // only: the x==y constraint makes it cover both endpoints.
  std::vector<std::vector<Bitset>> rels;
  rels.reserve(cq.atoms.size());
  for (const PatternAtom& a : cq.atoms) {
    if (a.path->kind() == PathExpr::Kind::kContextFree) {
      // Context-free atom: the naive reference relation, with endpoint
      // tests masked onto it (grammar relations cannot absorb tests
      // into the path the way regexes fold them).
      KGQ_ASSIGN_OR_RETURN(
          std::vector<Bitset> rel,
          CfpqReferenceRelation(view, *a.path->grammar(),
                                a.path->nonterminal()));
      auto it = cq.node_tests.find(a.src);
      if (it != cq.node_tests.end()) {
        Bitset ok = MatchNodes(view, *it->second);
        for (size_t u = 0; u < rel.size(); ++u) {
          if (!ok.Test(u)) rel[u].ClearAll();
        }
      }
      if (a.dst != a.src) {
        it = cq.node_tests.find(a.dst);
        if (it != cq.node_tests.end()) {
          Bitset ok = MatchNodes(view, *it->second);
          for (Bitset& row : rel) row &= ok;
        }
      }
      rels.push_back(std::move(rel));
      continue;
    }
    RegexPtr full = a.path->regex();
    auto it = cq.node_tests.find(a.src);
    if (it != cq.node_tests.end()) {
      full = Regex::Concat(Regex::NodeTest(it->second), std::move(full));
    }
    if (a.dst != a.src) {
      it = cq.node_tests.find(a.dst);
      if (it != cq.node_tests.end()) {
        full = Regex::Concat(std::move(full), Regex::NodeTest(it->second));
      }
    }
    KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, *full));
    rels.push_back(AllPairs(nfa));
  }

  // Variable universe in first-appearance order; test-only variables
  // come last and are extended by node scans after the joins.
  std::vector<std::string> vars;
  std::map<std::string, size_t> idx;
  auto declare = [&](const std::string& v) {
    if (idx.emplace(v, vars.size()).second) vars.push_back(v);
  };
  for (const PatternAtom& a : cq.atoms) {
    declare(a.src);
    declare(a.dst);
  }
  std::set<std::string> in_atoms(vars.begin(), vars.end());
  for (const auto& [var, test] : cq.node_tests) declare(var);

  std::vector<size_t> scan_vars;
  std::vector<Bitset> scan_sets;
  for (const auto& [var, test] : cq.node_tests) {
    if (in_atoms.count(var) > 0) continue;
    scan_vars.push_back(idx[var]);
    scan_sets.push_back(MatchNodes(view, *test));
  }

  std::vector<size_t> head_pos;
  head_pos.reserve(cq.projection.size());
  for (const std::string& h : cq.projection) head_pos.push_back(idx[h]);

  std::vector<NodeId> assign(vars.size(), kNoNode);
  std::vector<char> is_set(vars.size(), 0);
  std::vector<std::vector<NodeId>> rows;

  std::function<void(size_t)> emit_scans = [&](size_t k) {
    if (k == scan_vars.size()) {
      std::vector<NodeId> row;
      row.reserve(head_pos.size());
      for (size_t pos : head_pos) row.push_back(assign[pos]);
      rows.push_back(std::move(row));
      return;
    }
    scan_sets[k].ForEach([&](size_t v) {
      assign[scan_vars[k]] = static_cast<NodeId>(v);
      emit_scans(k + 1);
    });
  };

  std::function<void(size_t)> join = [&](size_t ai) {
    if (ai == cq.atoms.size()) {
      emit_scans(0);
      return;
    }
    const PatternAtom& a = cq.atoms[ai];
    const std::vector<Bitset>& rel = rels[ai];
    size_t si = idx[a.src];
    size_t di = idx[a.dst];
    bool diag = (si == di);
    if (is_set[si] && (diag || is_set[di])) {
      NodeId x = assign[si];
      NodeId y = diag ? x : assign[di];
      if (rel[x].Test(y)) join(ai + 1);
    } else if (is_set[si]) {
      rel[assign[si]].ForEach([&](size_t b) {
        assign[di] = static_cast<NodeId>(b);
        is_set[di] = 1;
        join(ai + 1);
        is_set[di] = 0;
      });
    } else if (!diag && is_set[di]) {
      for (NodeId x = 0; x < n; ++x) {
        if (!rel[x].Test(assign[di])) continue;
        assign[si] = x;
        is_set[si] = 1;
        join(ai + 1);
        is_set[si] = 0;
      }
    } else {
      for (NodeId x = 0; x < n; ++x) {
        if (diag) {
          if (!rel[x].Test(x)) continue;
          assign[si] = x;
          is_set[si] = 1;
          join(ai + 1);
          is_set[si] = 0;
        } else {
          rel[x].ForEach([&](size_t b) {
            assign[si] = x;
            assign[di] = static_cast<NodeId>(b);
            is_set[si] = is_set[di] = 1;
            join(ai + 1);
            is_set[si] = is_set[di] = 0;
          });
        }
      }
    }
  };
  join(0);

  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (cq.limit > 0 && rows.size() > cq.limit) rows.resize(cq.limit);

  RowSet out{cq.projection, RowTable(head_pos.size())};
  for (const std::vector<NodeId>& row : rows) out.rows.Append(row.data());
  return out;
}

Result<RowSet> RunCrpq(const GraphView& view, std::string_view text,
                       const CrpqOptions& options) {
  KGQ_ASSIGN_OR_RETURN(Crpq q, ParseCrpq(text));
  return EvalCrpq(view, q, options);
}

}  // namespace kgq
