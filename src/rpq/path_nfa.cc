#include "rpq/path_nfa.h"

#include <cassert>
#include <unordered_map>

#include "rpq/test_eval.h"

namespace kgq {

Result<PathNfa> PathNfa::Compile(const GraphView& view, const Regex& regex,
                                 Construction construction) {
  KGQ_SPAN("rpq.compile");
  KGQ_COUNTER_INC("rpq.compile.calls");
  QueryAutomaton qa = construction == Construction::kGlushkov
                          ? QueryAutomaton::FromRegexGlushkov(regex)
                          : QueryAutomaton::FromRegex(regex);
  if (qa.num_states() > 64) {
    return Status::Unsupported(
        "regular expression compiles to " + std::to_string(qa.num_states()) +
        " automaton states; the product engine supports at most 64");
  }

  PathNfa nfa;
  nfa.view_ = &view;
  nfa.num_nodes_ = view.num_nodes();
  nfa.num_edges_ = view.num_edges();
  nfa.num_q_ = static_cast<uint32_t>(qa.num_states());
  nfa.start_q_ = qa.start();
  nfa.final_mask_ = 0;
  for (uint32_t f : qa.accepting()) nfa.final_mask_ |= 1ull << f;
  nfa.fwd_trans_.resize(nfa.num_q_);
  nfa.bwd_trans_.resize(nfa.num_q_);
  nfa.csr_ = &view.csr();
  // Label atoms resolve to the CSR's label ids (AddEdgeAtom).
  nfa.label_dirs_.assign(nfa.csr_->num_labels(), 0);

  // Node-test transitions become per-node conditional ε edges; pure ε
  // transitions are unconditional. Collect both for closure computation.
  struct NodeTrans {
    uint32_t from;
    uint32_t to;
    int match;  // Index into node_match, or -1 for unconditional ε.
  };
  std::vector<NodeTrans> node_trans;
  std::vector<Bitset> node_match;

  for (uint32_t q = 0; q < nfa.num_q_; ++q) {
    for (const QueryAutomaton::Transition& t : qa.OutTransitions(q)) {
      if (t.atom < 0) {
        node_trans.push_back({q, t.to, -1});
        continue;
      }
      const QueryAtom& atom = qa.atoms()[t.atom];
      switch (atom.kind) {
        case QueryAtom::Kind::kNodeTest: {
          node_match.push_back(MatchNodes(view, *atom.test));
          node_trans.push_back(
              {q, t.to, static_cast<int>(node_match.size() - 1)});
          break;
        }
        case QueryAtom::Kind::kEdgeFwd:
        case QueryAtom::Kind::kEdgeBwd:
          nfa.AddEdgeAtom(q, t.to, *atom.test,
                          atom.kind == QueryAtom::Kind::kEdgeBwd);
          break;
      }
    }
  }

  // ε-closures. The closure at a node depends only on *which* node-test
  // atoms pass there, so closures are computed once per signature (set
  // of passing atoms) and shared across nodes.
  assert(node_match.size() <= 64);
  auto add_row = [&nfa, &node_trans](uint64_t sig) {
    size_t base = nfa.closure_rows_.size();
    nfa.closure_rows_.resize(base + nfa.num_q_, 0);
    StateMask* row = &nfa.closure_rows_[base];
    for (uint32_t q = 0; q < nfa.num_q_; ++q) row[q] = 1ull << q;
    for (const NodeTrans& t : node_trans) {
      if (t.match >= 0 && (sig & (1ull << t.match)) == 0) continue;
      row[t.from] |= 1ull << t.to;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t q = 0; q < nfa.num_q_; ++q) {
        StateMask expanded = row[q];
        StateMask rest = row[q];
        while (rest != 0) {
          uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(rest));
          rest &= rest - 1;
          expanded |= row[bit];
        }
        if (expanded != row[q]) {
          row[q] = expanded;
          changed = true;
        }
      }
    }
  };
  if (node_match.empty()) {
    // Every node has the empty signature: one shared row, no per-node
    // pass (closure_index_ stays empty).
    add_row(0);
    return nfa;
  }
  std::unordered_map<uint64_t, uint32_t> sig_index;
  nfa.closure_index_.assign(nfa.num_nodes_, 0);
  for (NodeId n = 0; n < nfa.num_nodes_; ++n) {
    uint64_t sig = 0;
    for (size_t a = 0; a < node_match.size(); ++a) {
      if (node_match[a].Test(n)) sig |= 1ull << a;
    }
    auto [it, inserted] = sig_index.emplace(
        sig, static_cast<uint32_t>(sig_index.size()));
    nfa.closure_index_[n] = it->second;
    if (inserted) add_row(sig);
  }
  return nfa;
}

void PathNfa::AddEdgeAtom(uint32_t from, uint32_t to, const TestExpr& test,
                          bool backward) {
  const uint32_t atom = static_cast<uint32_t>(edge_match_.size());
  (backward ? bwd_trans_ : fwd_trans_)[from].push_back({atom, to});
  if (test.kind() == TestExpr::Kind::kLabel) {
    // The view's CSR spells its labels: O(1), no per-edge pass.
    std::optional<LabelId> lab = csr_->FindLabel(test.label());
    atom_csr_label_.push_back(lab.value_or(kAtomDead));
    if (lab.has_value()) label_dirs_[*lab] |= backward ? kBwd : kFwd;
    edge_match_.emplace_back();
    return;
  }
  (backward ? filtered_bwd_ : filtered_fwd_).push_back(atom);
  atom_csr_label_.push_back(kAtomFiltered);
  edge_match_.push_back(MatchEdges(*view_, test));
}

Status PathNfa::AttachSnapshot(const CsrSnapshot* snapshot) const {
  if (snapshot == csr_) return Status::OK();
  return Status::InvalidArgument(
      "a CSR reaches the product only through its view: attach the "
      "compiled view's own csr()");
}

void PathNfa::SuccessorTally::Flush() {
  // A counter appears once some successor scan ran, as it did when
  // every scan added to it directly.
  if (label_partition_hits + bitset_fallback_hits == 0) return;
  KGQ_COUNTER_ADD("rpq.successor.edges_scanned", edges_scanned);
  if (label_partition_hits != 0) {
    KGQ_COUNTER_ADD("rpq.successor.label_partition_hits",
                    label_partition_hits);
  }
  if (bitset_fallback_hits != 0) {
    KGQ_COUNTER_ADD("rpq.successor.bitset_fallback_hits",
                    bitset_fallback_hits);
  }
  *this = SuccessorTally();
}

std::vector<PathNfa::TransitionView> PathNfa::Transitions() const {
  std::vector<TransitionView> out;
  for (uint32_t q = 0; q < num_q_; ++q) {
    for (const EdgeTrans& t : fwd_trans_[q]) {
      out.push_back({q, t.to, t.atom, false});
    }
    for (const EdgeTrans& t : bwd_trans_[q]) {
      out.push_back({q, t.to, t.atom, true});
    }
  }
  return out;
}

PathNfa::AtomClass PathNfa::ClassifyAtom(uint32_t atom) const {
  LabelId l = atom_csr_label_[atom];
  if (l == kAtomDead) return AtomClass::kDead;
  if (l == kAtomFiltered) {
    return edge_match_[atom].None() ? AtomClass::kDead : AtomClass::kFiltered;
  }
  return AtomClass::kLabel;
}

PathNfa::StateMask PathNfa::CloseAt(NodeId n, StateMask m) const {
  const StateMask* row = ClosureRow(n);
  StateMask out = 0;
  while (m != 0) {
    uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(m));
    m &= m - 1;
    out |= row[bit];
  }
  return out;
}

PathNfa::StateMask PathNfa::Advance(StateMask m, const Step& s) const {
  bool self = (s.from == s.to);
  const LabelId label = csr_->EdgeLabel(s.edge);
  StateMask raw = 0;
  StateMask rest = m;
  while (rest != 0) {
    uint32_t q = static_cast<uint32_t>(__builtin_ctzll(rest));
    rest &= rest - 1;
    if (!s.backward || self) {
      for (const EdgeTrans& t : fwd_trans_[q]) {
        if (AtomMatches(t.atom, s.edge, label)) raw |= 1ull << t.to;
      }
    }
    if (s.backward || self) {
      for (const EdgeTrans& t : bwd_trans_[q]) {
        if (AtomMatches(t.atom, s.edge, label)) raw |= 1ull << t.to;
      }
    }
  }
  if (raw == 0) return 0;
  return CloseAt(s.to, raw);
}

PathNfa::StateMask PathNfa::AdvanceSingle(uint32_t q, const Step& s) const {
  return Advance(1ull << q, s);
}

PathNfa::StateMask PathNfa::PredMask(uint32_t q, const Step& s) const {
  StateMask out = 0;
  for (uint32_t p = 0; p < num_q_; ++p) {
    if (AdvanceSingle(p, s) & (1ull << q)) out |= 1ull << p;
  }
  return out;
}

PathNfa::StateMask PathNfa::Simulate(const Path& p) const {
  if (p.nodes.empty()) return 0;
  const Multigraph& g = view_->topology();
  if (!p.IsValidIn(g)) return 0;
  StateMask m = StartMask(p.nodes[0]);
  for (size_t i = 0; i < p.edges.size(); ++i) {
    EdgeId e = p.edges[i];
    NodeId from = p.nodes[i];
    NodeId to = p.nodes[i + 1];
    // Direction: backward iff the edge is traversed target→source. For
    // self-loops the flag is irrelevant (Advance fires both directions).
    bool backward = !(g.EdgeSource(e) == from && g.EdgeTarget(e) == to);
    m = Advance(m, Step{e, backward, from, to});
    if (m == 0) return 0;
  }
  return m;
}

}  // namespace kgq
