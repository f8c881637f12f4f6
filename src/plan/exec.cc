#include "plan/exec.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"
#include "pathalg/cfpq_matrix.h"
#include "pathalg/pairs.h"
#include "rpq/cfpq_reference.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"

namespace kgq {
namespace {

/// Index of `var` in `schema`, or npos.
size_t ColumnOf(const std::vector<std::string>& schema,
                const std::string& var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return i;
  }
  return static_cast<size_t>(-1);
}

struct RowHash {
  size_t operator()(const std::vector<NodeId>& key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (NodeId v : key) {
      h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

class Executor {
 public:
  Executor(const GraphView& view, const ExecOptions& options)
      : view_(view), options_(options) {
    // The view's own CSR is paired with it by construction. A snapshot
    // passed separately is used only when its topology matches: one of
    // some other graph is ignored, never trusted.
    const CsrSnapshot* snap =
        options.snapshot != nullptr ? options.snapshot : view.csr();
    if (snap == view.csr() || snap->MatchesTopology(view.topology())) {
      csr_ = snap;
    }
  }

  /// Operator dispatch plus per-request profiling: when the calling
  /// thread has a TraceContext installed (serve's "profile":true path),
  /// every operator contributes one ProfileNode mirroring its EXPLAIN
  /// line — kind, rows in/out, engine choice and wall time. Without a
  /// trace this is a null check and the plain dispatch below.
  Result<RowSet> Exec(const LogicalOp& op) {
    obs::TraceContext* trace = obs::CurrentTrace();
    if (trace == nullptr) return ExecOp(op);
    obs::ProfileNode* node = trace->PushOp(LogicalKindName(op.kind));
    const uint64_t start = obs::NowNanos();
    Result<RowSet> result = ExecOp(op);
    node->time_ns = obs::NowNanos() - start;
    if (result.ok()) node->rows_out = result->rows.size();
    // rows_in = what the children fed this operator; leaves scan the
    // graph directly and report 0.
    for (const auto& child : node->children) node->rows_in += child->rows_out;
    trace->PopOp();
    return result;
  }

 private:
  Result<RowSet> ExecOp(const LogicalOp& op) {
    switch (op.kind) {
      case LogicalKind::kNodeScan: {
        KGQ_SPAN("plan.op.node_scan");
        return NodeScan(op);
      }
      case LogicalKind::kEdgeScan: {
        KGQ_SPAN("plan.op.edge_scan");
        return EdgeScan(op);
      }
      case LogicalKind::kPathAtom: {
        KGQ_SPAN("plan.op.path_atom");
        return PathAtom(op);
      }
      case LogicalKind::kHashJoin: {
        KGQ_SPAN("plan.op.hash_join");
        return HashJoin(op);
      }
      case LogicalKind::kFilter: {
        KGQ_SPAN("plan.op.filter");
        return Filter(op);
      }
      case LogicalKind::kProject: {
        KGQ_SPAN("plan.op.project");
        return Project(op);
      }
    }
    return Status::Internal("unknown logical operator");
  }

  /// Records the physical engine the current operator chose into the
  /// active profile node (no-op without a trace). The choice depends
  /// only on the plan and the snapshot, never on thread count — the
  /// "engine" field is one of the deterministic profile fields.
  static void ProfileEngine(const char* engine) {
    if (obs::TraceContext* trace = obs::CurrentTrace()) {
      if (obs::ProfileNode* node = trace->CurrentOp()) node->engine = engine;
    }
  }

  /// Resolves a leaf's constant binding: false → the leaf is empty
  /// (constant absent from the graph).
  static bool UsableBound(bool has, NodeId node, size_t num_nodes,
                          bool* active, NodeId* out) {
    *active = false;
    if (!has) return true;
    if (node == kNoNode || node >= num_nodes) return false;
    *active = true;
    *out = node;
    return true;
  }

  /// True iff csr_'s partition for `label` holds exactly the view's
  /// edges labelled `label` (an absent label: none). Holds by
  /// construction for the view's own CSR. A snapshot passed separately
  /// shares only a verified topology, so its labels are checked here —
  /// O(|E|) once per label and call — and a mismatch sends the operator
  /// to the list path instead of changing results.
  bool LabelPartitionExact(const std::string& label) {
    if (csr_ == view_.csr()) return true;
    auto [it, inserted] = exact_labels_.emplace(label, true);
    if (!inserted) return it->second;
    const std::optional<LabelId> lab = csr_->FindLabel(label);
    const TestPtr test = TestExpr::Label(label);
    const BoundTest bound(view_, *test);
    for (EdgeId e = 0; e < csr_->num_edges() && it->second; ++e) {
      it->second = bound.MatchesEdge(e) ==
                    (lab.has_value() && csr_->EdgeLabel(e) == *lab);
    }
    return it->second;
  }

  Result<RowSet> NodeScan(const LogicalOp& op) {
    RowSet rs;
    rs.schema = op.schema;
    bool bound = false;
    NodeId at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &bound, &at)) {
      return rs;
    }
    if (bound) {
      if (op.test == nullptr || EvalNodeTest(view_, *op.test, at)) {
        rs.rows.push_back({at});
      }
    } else if (op.test != nullptr) {
      MatchNodes(view_, *op.test).ForEach([&](size_t n) {
        rs.rows.push_back({static_cast<NodeId>(n)});
      });
    } else {
      for (NodeId n = 0; n < view_.num_nodes(); ++n) rs.rows.push_back({n});
    }
    KGQ_COUNTER_ADD("plan.rows.node_scan", rs.rows.size());
    return rs;
  }

  Result<RowSet> EdgeScan(const LogicalOp& op) {
    const bool partitions =
        csr_ != nullptr && LabelPartitionExact(op.label);
    ProfileEngine(partitions ? "csr" : "list");
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    if (partitions) {
      std::optional<LabelId> lab = csr_->FindLabel(op.label);
      if (lab.has_value()) {
        // (a, b) pairs: forward atoms read a's out partition; backward
        // atoms read a's in partition (neighbor = the edge's source).
        auto scan_from = [&](NodeId a) {
          CsrSnapshot::Span part = op.backward
                                       ? csr_->InForLabel(a, *lab)
                                       : csr_->OutForLabel(a, *lab);
          KGQ_COUNTER_ADD("plan.scan.label_partition_entries", part.size());
          for (const CsrSnapshot::Entry& entry : part) {
            emit(a, entry.neighbor);
          }
        };
        if (src_bound) {
          scan_from(src_at);
        } else if (dst_bound && !diagonal) {
          // Bound target: one partition of the reverse view.
          CsrSnapshot::Span part = op.backward
                                       ? csr_->OutForLabel(dst_at, *lab)
                                       : csr_->InForLabel(dst_at, *lab);
          KGQ_COUNTER_ADD("plan.scan.label_partition_entries", part.size());
          for (const CsrSnapshot::Entry& entry : part) {
            emit(entry.neighbor, dst_at);
          }
        } else {
          for (NodeId a = 0; a < csr_->num_nodes(); ++a) scan_from(a);
        }
      }
    } else {
      const Multigraph& g = view_.topology();
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!view_.EdgeLabelIs(e, op.label)) continue;
        if (op.backward) {
          emit(g.EdgeTarget(e), g.EdgeSource(e));
        } else {
          emit(g.EdgeSource(e), g.EdgeTarget(e));
        }
      }
    }
    KGQ_COUNTER_ADD("plan.rows.edge_scan", rs.rows.size());
    return rs;
  }

  Result<RowSet> PathAtom(const LogicalOp& op) {
    if (op.path->kind() == PathExpr::Kind::kContextFree) {
      return CfPathAtom(op);
    }
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    KGQ_ASSIGN_OR_RETURN(PathNfa nfa,
                         PathNfa::Compile(view_, *op.path->regex()));
    if (csr_ != nullptr) {
      // Attach is best-effort: free for the view's own CSR (the NFA
      // compiled against it), and for another snapshot the topology was
      // pre-checked and a label mismatch silently falls back to bitset
      // filtering inside the product, so a failure cannot change
      // results.
      (void)nfa.AttachSnapshot(csr_);
    }
    PathQueryOptions popts;
    popts.parallel = options_.parallel;
    // Planner-selected physical engine. The matrix fixpoint needs the
    // snapshot's label partitions; without a usable attach the request
    // degrades to the BFS engine (results are bit-identical either way).
    const bool matrix = op.use_matrix_rpq && nfa.snapshot() != nullptr;
    if (matrix) popts.engine = PathEngine::kMatrix;
    ProfileEngine(matrix ? "matrix" : "nfa");
    auto emit = [&](NodeId a, NodeId b) {
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    auto evaluate = [&] {
      if (src_bound) {
        // Single-source fast path: one saturating configuration BFS
        // instead of n of them.
        ReachableFrom(nfa, src_at, popts).ForEach([&](size_t b) {
          emit(src_at, static_cast<NodeId>(b));
        });
      } else {
        std::vector<Bitset> pairs = AllPairs(nfa, popts);
        for (NodeId a = 0; a < pairs.size(); ++a) {
          pairs[a].ForEach(
              [&](size_t b) { emit(a, static_cast<NodeId>(b)); });
        }
      }
    };
    if (matrix) {
      KGQ_SPAN("plan.op.matrix_rpq");
      evaluate();
    } else {
      evaluate();
    }
    KGQ_COUNTER_ADD("plan.rows.path_atom", rs.rows.size());
    return rs;
  }

  /// Context-free PathAtom: the full pair relation of the grammar
  /// nonterminal (matrix fixpoint with a snapshot + planner opt-in, the
  /// CYK-style reference otherwise — bit-identical), then endpoint
  /// bounds filter the relation. Unlike the regular engines there is no
  /// single-source shortcut: the grammar's derivations are not
  /// direction-local, so the fixpoint always runs whole-graph.
  Result<RowSet> CfPathAtom(const LogicalOp& op) {
    KGQ_SPAN("plan.op.cfpq");
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    const CnfGrammar& grammar = *op.path->grammar();
    const uint32_t nt = op.path->nonterminal();
    bool matrix = op.use_matrix_rpq && csr_ != nullptr;
    for (const CnfGrammar::TermProd& t : grammar.term_prods()) {
      matrix = matrix && LabelPartitionExact(t.label);
    }
    ProfileEngine(matrix ? "cfpq-matrix" : "cfpq-ref");
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    if (matrix) {
      KGQ_ASSIGN_OR_RETURN(
          BoolCsr rel,
          CfpqSolveMatrix(*csr_, grammar, nt, options_.parallel));
      for (size_t a = 0; a < rel.num_rows; ++a) {
        for (size_t k = rel.offsets[a]; k < rel.offsets[a + 1]; ++k) {
          emit(static_cast<NodeId>(a), rel.cols[k]);
        }
      }
    } else {
      KGQ_ASSIGN_OR_RETURN(std::vector<Bitset> rel,
                           CfpqReferenceRelation(view_, grammar, nt));
      for (NodeId a = 0; a < rel.size(); ++a) {
        rel[a].ForEach(
            [&](size_t b) { emit(a, static_cast<NodeId>(b)); });
      }
    }
    KGQ_COUNTER_ADD("plan.rows.path_atom", rs.rows.size());
    return rs;
  }

  Result<RowSet> HashJoin(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet left, Exec(*op.children[0]));
    KGQ_ASSIGN_OR_RETURN(RowSet right, Exec(*op.children[1]));
    RowSet rs;
    rs.schema = op.schema;

    // Join keys: columns present on both sides, in left-schema order.
    std::vector<std::pair<size_t, size_t>> keys;  // (left col, right col)
    for (size_t i = 0; i < left.schema.size(); ++i) {
      size_t j = ColumnOf(right.schema, left.schema[i]);
      if (j != static_cast<size_t>(-1)) keys.emplace_back(i, j);
    }
    // Output composition: op.schema = left schema ++ right-only columns.
    std::vector<size_t> right_extra;
    for (size_t j = 0; j < right.schema.size(); ++j) {
      if (ColumnOf(left.schema, right.schema[j]) == static_cast<size_t>(-1)) {
        right_extra.push_back(j);
      }
    }
    auto emit = [&](const std::vector<NodeId>& l,
                    const std::vector<NodeId>& r) {
      std::vector<NodeId> row;
      row.reserve(left.schema.size() + right_extra.size());
      row.insert(row.end(), l.begin(), l.end());
      for (size_t j : right_extra) row.push_back(r[j]);
      rs.rows.push_back(std::move(row));
    };

    if (keys.empty()) {
      // Disconnected conjuncts: cross product.
      for (const auto& l : left.rows) {
        for (const auto& r : right.rows) emit(l, r);
      }
    } else {
      // Build on the smaller input, probe with the larger.
      const bool build_left = left.rows.size() <= right.rows.size();
      const RowSet& build = build_left ? left : right;
      const RowSet& probe = build_left ? right : left;
      auto build_key = [&](const std::vector<NodeId>& row) {
        std::vector<NodeId> k(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          k[i] = row[build_left ? keys[i].first : keys[i].second];
        }
        return k;
      };
      auto probe_key = [&](const std::vector<NodeId>& row) {
        std::vector<NodeId> k(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          k[i] = row[build_left ? keys[i].second : keys[i].first];
        }
        return k;
      };
      std::unordered_map<std::vector<NodeId>, std::vector<size_t>, RowHash>
          table;
      table.reserve(build.rows.size());
      for (size_t i = 0; i < build.rows.size(); ++i) {
        table[build_key(build.rows[i])].push_back(i);
      }
      KGQ_HISTOGRAM_RECORD("plan.join.build_rows", build.rows.size());
      for (const auto& row : probe.rows) {
        auto it = table.find(probe_key(row));
        [[maybe_unused]] size_t hits =
            it == table.end() ? 0 : it->second.size();
        KGQ_HISTOGRAM_RECORD("plan.join.probe_hits", hits);
        if (it == table.end()) continue;
        for (size_t i : it->second) {
          const auto& other = build.rows[i];
          if (build_left) {
            emit(other, row);
          } else {
            emit(row, other);
          }
        }
      }
    }
    KGQ_COUNTER_ADD("plan.rows.hash_join", rs.rows.size());
    return rs;
  }

  Result<RowSet> Filter(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet input, Exec(*op.children[0]));
    size_t col = ColumnOf(input.schema, op.src_var);
    if (col == static_cast<size_t>(-1)) {
      return Status::Internal("filter variable '" + op.src_var +
                              "' not in input schema");
    }
    RowSet rs;
    rs.schema = std::move(input.schema);
    std::optional<BoundTest> test;
    if (op.test != nullptr) test.emplace(view_, *op.test);
    for (auto& row : input.rows) {
      bool keep;
      if (test.has_value()) {
        keep = test->MatchesNode(row[col]);
      } else {
        keep = (op.bound_src != kNoNode && row[col] == op.bound_src);
      }
      if (keep) rs.rows.push_back(std::move(row));
    }
    KGQ_COUNTER_ADD("plan.rows.filter", rs.rows.size());
    return rs;
  }

  Result<RowSet> Project(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet input, Exec(*op.children[0]));
    std::vector<size_t> cols;
    cols.reserve(op.columns.size());
    for (const std::string& var : op.columns) {
      size_t c = ColumnOf(input.schema, var);
      if (c == static_cast<size_t>(-1)) {
        return Status::Internal("projected variable '" + var +
                                "' not in input schema");
      }
      cols.push_back(c);
    }
    RowSet rs;
    rs.schema = op.columns;
    rs.rows.reserve(input.rows.size());
    for (const auto& row : input.rows) {
      std::vector<NodeId> out;
      out.reserve(cols.size());
      for (size_t c : cols) out.push_back(row[c]);
      rs.rows.push_back(std::move(out));
    }
    // The canonical output discipline shared with the reference
    // evaluators: sorted, deduplicated, limit applied last.
    std::sort(rs.rows.begin(), rs.rows.end());
    rs.rows.erase(std::unique(rs.rows.begin(), rs.rows.end()),
                  rs.rows.end());
    if (op.limit > 0 && rs.rows.size() > op.limit) {
      rs.rows.resize(op.limit);
    }
    KGQ_COUNTER_ADD("plan.rows.project", rs.rows.size());
    return rs;
  }

  const GraphView& view_;
  const ExecOptions& options_;
  const CsrSnapshot* csr_ = nullptr;
  std::unordered_map<std::string, bool> exact_labels_;  // By label.
};

}  // namespace

Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options) {
  KGQ_SPAN("plan.execute");
  Executor executor(view, options);
  return executor.Exec(root);
}

}  // namespace kgq
