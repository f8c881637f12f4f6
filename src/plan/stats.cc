#include "plan/stats.h"

#include <algorithm>

#include "rpq/test_eval.h"

namespace kgq {

GraphStats GraphStats::From(
    const GraphView* view, const CsrSnapshot* snapshot,
    const std::map<std::string, size_t>* node_label_counts) {
  GraphStats stats;
  stats.view_ = view;
  stats.snapshot_ =
      snapshot != nullptr || view == nullptr ? snapshot : &view->csr();
  stats.node_label_counts_ = node_label_counts;
  if (stats.snapshot_ != nullptr) {
    stats.num_nodes_ = static_cast<double>(stats.snapshot_->num_nodes());
    stats.num_edges_ = static_cast<double>(stats.snapshot_->num_edges());
  }
  return stats;
}

double GraphStats::AvgDegree() const {
  if (num_nodes_ <= 0.0) return 1.0;
  return std::max(1.0, num_edges_ / num_nodes_);
}

double GraphStats::LabelFrequency(std::string_view label) const {
  if (snapshot_ == nullptr) return num_edges_;
  return static_cast<double>(snapshot_->LabelFrequency(label));
}

double GraphStats::NodeTestSelectivity(const TestExpr& test) const {
  if (test.kind() == TestExpr::Kind::kTrue) return 1.0;
  if (view_ == nullptr || num_nodes_ <= 0.0) return 0.5;
  if (test.kind() == TestExpr::Kind::kLabel &&
      node_label_counts_ != nullptr) {
    // Exactly the MatchNodes count — a label test matches the nodes
    // whose label string equals test.label() — read off the tallies.
    auto it = node_label_counts_->find(std::string(test.label()));
    double count = it == node_label_counts_->end()
                       ? 0.0
                       : static_cast<double>(it->second);
    return count / num_nodes_;
  }
  return static_cast<double>(MatchNodes(*view_, test).Count()) / num_nodes_;
}

double GraphStats::EdgeTestFrequency(const TestExpr& test) const {
  if (test.kind() == TestExpr::Kind::kLabel) {
    return LabelFrequency(test.label());
  }
  if (test.kind() == TestExpr::Kind::kTrue) return num_edges_;
  // Compound / property / feature edge tests: assume half the edges.
  return 0.5 * num_edges_;
}

double GraphStats::Clamp(double pairs) const {
  double cap = num_nodes_ * num_nodes_;
  return std::min(std::max(pairs, 0.0), cap);
}

double GraphStats::EstimatePathPairs(const Regex& r) const {
  double n = std::max(num_nodes_, 1.0);
  switch (r.kind()) {
    case Regex::Kind::kNodeTest:
      // Length-0 relation: the diagonal restricted by the test.
      return Clamp(NodeTestSelectivity(*r.test()) * n);
    case Regex::Kind::kEdgeFwd:
    case Regex::Kind::kEdgeBwd:
      return Clamp(EdgeTestFrequency(*r.test()));
    case Regex::Kind::kUnion:
      return Clamp(EstimatePathPairs(*r.lhs()) +
                   EstimatePathPairs(*r.rhs()));
    case Regex::Kind::kConcat:
      // Join through the shared midpoint, assuming uniform spread.
      return Clamp(EstimatePathPairs(*r.lhs()) *
                   EstimatePathPairs(*r.rhs()) / n);
    case Regex::Kind::kStar: {
      // r* contains the diagonal (n pairs) and saturates with the base
      // relation's fan-out: each extra application multiplies reach by
      // ~|r|/n until the n² cap bites.
      double base = EstimatePathPairs(*r.lhs());
      double fanout = std::max(1.0, base / n);
      return Clamp(n * fanout * fanout * fanout);
    }
  }
  return Clamp(num_edges_);
}

double GraphStats::EstimateCfpqPairs(const CnfGrammar& grammar,
                                     uint32_t nonterminal) const {
  double n = std::max(num_nodes_, 1.0);
  const size_t nts = grammar.num_nonterminals();
  std::vector<double> est(nts, 0.0);

  // Bounded monotone relaxation: grow every nonterminal's estimate by
  // re-applying the production rules a fixed number of rounds. The
  // estimates only ever increase and clamp at n², so 8 rounds is a
  // stable surrogate for the (possibly slow) true fixpoint.
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    // One relaxation step: each nonterminal's fresh estimate is the sum
    // of its productions' contributions under the current estimates
    // (union adds, like the Regex kUnion rule), floored by the current
    // value so the sequence is monotone.
    std::vector<double> sum(nts, 0.0);
    for (uint32_t a = 0; a < nts; ++a) {
      if (grammar.nullable(a)) sum[a] += n;
    }
    for (const CnfGrammar::TermProd& t : grammar.term_prods()) {
      sum[t.lhs] += LabelFrequency(t.label);
    }
    for (const CnfGrammar::UnitProd& p : grammar.unit_prods()) {
      sum[p.lhs] += est[p.rhs];
    }
    for (const CnfGrammar::BinProd& p : grammar.bin_prods()) {
      sum[p.lhs] += est[p.left] * est[p.right] / n;
    }
    for (uint32_t a = 0; a < nts; ++a) {
      est[a] = Clamp(std::max(est[a], sum[a]));
    }
  }
  return Clamp(est[nonterminal]);
}

}  // namespace kgq
