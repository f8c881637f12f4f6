#ifndef KGQ_PLAN_STATS_H_
#define KGQ_PLAN_STATS_H_

#include <map>
#include <string>
#include <string_view>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "rpq/path_expr.h"
#include "rpq/regex.h"

namespace kgq {

/// Graph statistics feeding the optimizer's cardinality estimates.
///
/// Edge-label frequencies and degree sums are read from a CsrSnapshot
/// (its build-time per-label tallies — CountForLabel / LabelFrequency —
/// and offset-array degrees); node-test selectivities are evaluated
/// exactly against the GraphView (one O(n) MatchNodes pass per distinct
/// test, done once at planning time). Stats without a view or snapshot
/// (default-constructed) estimate every label at the global edge count
/// and every node test at a fixed default selectivity. Estimates are
/// heuristics — they only need to *rank* plans, not predict runtimes.
class GraphStats {
 public:
  GraphStats() = default;

  /// Stats over `view`, backed by `snapshot` — the view's own csr()
  /// when null — for sizes and per-label frequencies, and by
  /// `node_label_counts` (label → node count, e.g. the serving layer's
  /// per-epoch tallies) for O(1) node-label selectivities — exactly the
  /// count the O(n) MatchNodes pass would produce, without the pass.
  /// Every pointer given must outlive the GraphStats.
  static GraphStats From(
      const GraphView* view, const CsrSnapshot* snapshot,
      const std::map<std::string, size_t>* node_label_counts = nullptr);

  double num_nodes() const { return num_nodes_; }
  double num_edges() const { return num_edges_; }

  /// Mean out-degree (1 when the graph is empty, to keep ratios sane).
  double AvgDegree() const;

  /// Number of edges whose label is `label` — exact with a snapshot,
  /// the global edge count in default-constructed stats.
  double LabelFrequency(std::string_view label) const;

  /// Fraction of nodes satisfying `test`, in [0, 1] — exact with a
  /// view (O(1) for plain label tests when node-label tallies were
  /// supplied, one O(n) scan otherwise), 0.5 without a view.
  double NodeTestSelectivity(const TestExpr& test) const;

  /// Estimated number of (a, b) pairs in the existential pair relation
  /// of `r` — the cardinality of a PathAtom leaf. Structural recursion:
  /// label atoms read the snapshot's label frequency, node tests scale
  /// the diagonal by their selectivity, union adds, concatenation joins
  /// through the shared midpoint (|L|·|R| / n), and Kleene star
  /// saturates towards n² with the base relation's fan-out. Clamped to
  /// [0, n²].
  double EstimatePathPairs(const Regex& r) const;

  /// Estimated number of (a, b) pairs derived by `nonterminal` of a
  /// context-free grammar — the cardinality of a context-free PathAtom
  /// leaf. A bounded monotone relaxation over the CNF tables (8
  /// rounds): nullable seeds the diagonal (n), terminal productions
  /// their label frequency, unit productions copy, binary productions
  /// join through the shared midpoint (|X|·|Y| / n, the same rule
  /// concatenation uses); per-production contributions add per round
  /// and each estimate clamps to [0, n²]. Recursion in the grammar is
  /// what the extra rounds approximate — a fixpoint surrogate, not a
  /// fixpoint.
  double EstimateCfpqPairs(const CnfGrammar& grammar,
                           uint32_t nonterminal) const;

  /// Estimated number of edges matched by an arbitrary edge test:
  /// exact label frequency for plain ℓ atoms, a fixed fraction of the
  /// edge count otherwise.
  double EdgeTestFrequency(const TestExpr& test) const;

 private:
  double Clamp(double pairs) const;

  const GraphView* view_ = nullptr;
  const CsrSnapshot* snapshot_ = nullptr;
  const std::map<std::string, size_t>* node_label_counts_ = nullptr;
  double num_nodes_ = 0.0;
  double num_edges_ = 0.0;
};

}  // namespace kgq

#endif  // KGQ_PLAN_STATS_H_
