#include "rdf/bgp.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <tuple>

#include "pathalg/pairs.h"
#include "plan/exec.h"
#include "plan/stats.h"
#include "rdf/rdf_view.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

namespace kgq {
namespace {

/// Resolves a term under a partial binding: a bound slot (constant id)
/// or nullopt (still free).
std::optional<ConstId> Resolve(const Term& term, const Binding& binding,
                               const Interner& dict, bool* impossible) {
  if (term.is_var) {
    auto it = binding.find(term.text);
    if (it != binding.end()) return it->second;
    return std::nullopt;
  }
  std::optional<ConstId> id = dict.Find(term.text);
  if (!id.has_value()) *impossible = true;  // Unknown constant: no match.
  return id;
}

/// Number of slots a pattern leaves free under the current binding —
/// the greedy selectivity heuristic (fewer free slots first).
int FreeSlots(const TriplePattern& p, const std::set<std::string>& bound) {
  auto free = [&](const Term& t) {
    return t.is_var && bound.count(t.text) == 0 ? 1 : 0;
  };
  if (p.path != nullptr) return free(p.s) + free(p.o);
  return free(p.s) + free(p.p) + free(p.o);
}

/// Precomputed pair relation of one property-path pattern.
struct PathRelation {
  std::vector<Bitset> pairs;  // pairs[a].Test(b) over view node ids.
};

void Extend(const TripleStore& store, const RdfGraphView* view,
            const std::vector<PathRelation>& relations,
            const std::vector<TriplePattern>& patterns,
            std::vector<char>* used, const Binding& binding,
            std::vector<Binding>* out) {
  // Pick the unused pattern with the fewest free slots.
  std::set<std::string> bound;
  for (const auto& [var, id] : binding) bound.insert(var);
  int best = -1;
  int best_free = 4;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if ((*used)[i]) continue;
    int f = FreeSlots(patterns[i], bound);
    if (f < best_free) {
      best_free = f;
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    out->push_back(binding);
    return;
  }
  const TriplePattern& p = patterns[best];
  (*used)[best] = 1;

  if (p.path != nullptr) {
    // Property path: iterate the precomputed pair relation, filtered by
    // whatever s/o bindings already exist.
    const PathRelation& rel = relations[best];
    bool bad = false;
    std::optional<ConstId> s_const =
        Resolve(p.s, binding, store.dict(), &bad);
    std::optional<ConstId> o_const =
        Resolve(p.o, binding, store.dict(), &bad);
    if (!bad) {
      auto try_pair = [&](NodeId a, NodeId b) {
        Binding extended = binding;
        bool consistent = true;
        auto bind = [&](const Term& term, ConstId value) {
          if (!term.is_var) return;
          auto [it, inserted] = extended.emplace(term.text, value);
          if (!inserted && it->second != value) consistent = false;
        };
        ConstId a_term = *store.dict().Find(view->TermOf(a));
        ConstId b_term = *store.dict().Find(view->TermOf(b));
        bind(p.s, a_term);
        bind(p.o, b_term);
        if (consistent) {
          Extend(store, view, relations, patterns, used, extended, out);
        }
      };
      if (s_const.has_value()) {
        NodeId a = view->NodeOf(store.dict().Lookup(*s_const));
        if (a != kNoNode) {
          rel.pairs[a].ForEach([&](size_t b) {
            if (o_const.has_value()) {
              ConstId b_term =
                  *store.dict().Find(view->TermOf(static_cast<NodeId>(b)));
              if (b_term != *o_const) return;
            }
            try_pair(a, static_cast<NodeId>(b));
          });
        }
      } else {
        for (NodeId a = 0; a < rel.pairs.size(); ++a) {
          rel.pairs[a].ForEach([&](size_t b) {
            if (o_const.has_value()) {
              ConstId b_term =
                  *store.dict().Find(view->TermOf(static_cast<NodeId>(b)));
              if (b_term != *o_const) return;
            }
            try_pair(a, static_cast<NodeId>(b));
          });
        }
      }
    }
    (*used)[best] = 0;
    return;
  }

  bool impossible = false;
  std::optional<ConstId> s = Resolve(p.s, binding, store.dict(), &impossible);
  std::optional<ConstId> pp = Resolve(p.p, binding, store.dict(), &impossible);
  std::optional<ConstId> o = Resolve(p.o, binding, store.dict(), &impossible);
  if (!impossible) {
    for (const Triple& t : store.Match(s, pp, o)) {  // Plain pattern.
      Binding extended = binding;
      bool consistent = true;
      auto bind = [&](const Term& term, ConstId value) {
        if (!term.is_var) return;
        auto [it, inserted] = extended.emplace(term.text, value);
        if (!inserted && it->second != value) consistent = false;
      };
      bind(p.s, t.s);
      bind(p.p, t.p);
      bind(p.o, t.o);
      // Repeated variables within one pattern (e.g. ?x p ?x) need the
      // post-bind consistency check.
      if (consistent) {
        Extend(store, view, relations, patterns, used, extended, out);
      }
    }
  }
  (*used)[best] = 0;
}

}  // namespace

Result<std::vector<Binding>> EvalBgp(
    const TripleStore& store, const std::vector<TriplePattern>& patterns) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  // Property paths run over a graph view of the store; build it (and the
  // per-pattern pair relations) once.
  bool any_path = false;
  for (const TriplePattern& p : patterns) any_path |= p.path != nullptr;
  std::unique_ptr<RdfGraphView> view;
  std::vector<PathRelation> relations(patterns.size());
  if (any_path) {
    view = std::make_unique<RdfGraphView>(store);
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].path == nullptr) continue;
      KGQ_ASSIGN_OR_RETURN(PathNfa nfa,
                           PathNfa::Compile(*view, *patterns[i].path));
      relations[i].pairs = AllPairs(nfa);
    }
  }

  std::vector<Binding> out;
  std::vector<char> used(patterns.size(), 0);
  Extend(store, view.get(), relations, patterns, &used, {}, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<ConjunctiveQuery> CompileBgp(const std::vector<TriplePattern>& patterns,
                                    const RdfGraphView& view) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  std::set<std::string> user_vars;
  for (const TriplePattern& p : patterns) {
    if (p.s.is_var) user_vars.insert(p.s.text);
    if (p.o.is_var) user_vars.insert(p.o.text);
  }

  ConjunctiveQuery cq;
  size_t next_const = 0;
  auto var_of = [&](const Term& t) -> std::string {
    if (t.is_var) return t.text;
    std::string name = "$c" + std::to_string(next_const++);
    while (user_vars.count(name) > 0) name += "_";
    cq.bound[name] = view.NodeOf(t.text);  // kNoNode → empty result.
    return name;
  };
  for (const TriplePattern& p : patterns) {
    RegexPtr path = p.path;
    if (path == nullptr) {
      if (p.p.is_var) {
        return Status::Unsupported(
            "variable predicates need the store-index evaluator");
      }
      path = Regex::EdgeLabel(p.p.text);
    }
    cq.atoms.push_back({var_of(p.s), var_of(p.o), std::move(path)});
  }
  cq.projection.assign(user_vars.begin(), user_vars.end());
  return cq;
}

Result<std::vector<Binding>> EvalBgpPlanned(
    const TripleStore& store, const std::vector<TriplePattern>& patterns,
    const BgpPlanOptions& options) {
  return EvalBgpPlanned(RdfGraphView::WithCsr(store), patterns, options);
}

Result<std::vector<Binding>> EvalBgpPlanned(
    const RdfGraphView& view, const std::vector<TriplePattern>& patterns,
    const BgpPlanOptions& options) {
  const TripleStore& store = view.store();
  Result<ConjunctiveQuery> cq = CompileBgp(patterns, view);
  if (!cq.ok()) {
    if (cq.status().code() == StatusCode::kUnsupported) {
      return EvalBgp(store, patterns);  // Documented fallback.
    }
    return cq.status();
  }

  // All-constant pattern sets have no user variable to project; project
  // one synthetic binding and collapse the answer to "holds or not".
  bool ask_query = cq->projection.empty();
  if (ask_query) cq->projection.push_back(cq->bound.begin()->first);

  GraphStats stats = GraphStats::From(&view, view.csr());
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanQuery(*cq, stats, options.planner));
  ExecOptions eopts;
  eopts.parallel = options.parallel;
  KGQ_ASSIGN_OR_RETURN(RowSet rows, ExecutePlan(view, *plan, eopts));

  std::vector<Binding> out;
  if (ask_query) {
    if (!rows.rows.empty()) out.push_back({});
    return out;
  }
  out.reserve(rows.rows.size());
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    std::span<const NodeId> row = rows.rows[r];
    Binding b;
    for (size_t i = 0; i < rows.schema.size(); ++i) {
      b[rows.schema[i]] = *store.dict().Find(view.TermOf(row[i]));
    }
    out.push_back(std::move(b));
  }
  // Rows are sorted by node id; bindings sort by constant id. Re-sort.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<TriplePattern>> ParseBgp(const std::string& text) {
  std::vector<std::vector<Term>> groups(1);
  // (group, term position, parsed path) for parenthesized predicates.
  std::vector<std::tuple<size_t, size_t, RegexPtr>> paths;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '.') {
      if (!groups.back().empty()) groups.emplace_back();
      ++i;
      continue;
    }
    std::string token;
    if (c == '(') {
      // Parenthesized property path; capture to the matching ')'.
      size_t depth = 0;
      do {
        if (text[i] == '(') ++depth;
        if (text[i] == ')') --depth;
        token.push_back(text[i++]);
      } while (i < text.size() && depth > 0);
      if (depth != 0) {
        return Status::ParseError("unterminated property path");
      }
      Result<RegexPtr> path = ParseRegex(token);
      if (!path.ok()) return path.status();
      Term term = Term::Const(std::move(token));
      groups.back().push_back(std::move(term));
      paths.emplace_back(groups.size() - 1, groups.back().size() - 1,
                         *path);
      continue;
    }
    if (c == '"') {
      ++i;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '"') {
          closed = true;
          ++i;
          break;
        }
        token.push_back(text[i++]);
      }
      if (!closed) return Status::ParseError("unterminated string literal");
      groups.back().push_back(Term::Const(std::move(token)));
      continue;
    }
    while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
           text[i] != '\n' && text[i] != '\r' && text[i] != '.') {
      token.push_back(text[i++]);
    }
    if (token[0] == '?') {
      if (token.size() == 1) return Status::ParseError("empty variable name");
      groups.back().push_back(Term::Var(token.substr(1)));
    } else {
      groups.back().push_back(Term::Const(std::move(token)));
    }
  }
  if (groups.back().empty()) groups.pop_back();
  if (groups.empty()) return Status::ParseError("empty basic graph pattern");

  std::vector<TriplePattern> out;
  for (const auto& g : groups) {
    if (g.size() != 3) {
      return Status::ParseError(
          "each pattern needs exactly 3 terms, got " +
          std::to_string(g.size()));
    }
    out.push_back(TriplePattern{g[0], g[1], g[2], nullptr});
  }
  for (const auto& [group, pos, path] : paths) {
    if (pos != 1) {
      return Status::ParseError(
          "property paths are only allowed in the predicate position");
    }
    out[group].path = path;
  }
  return out;
}

}  // namespace kgq
