#include "plan/exec.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
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

/// An empty RowSet with `schema`'s columns.
RowSet EmptyRows(const std::vector<std::string>& schema) {
  return RowSet{schema, RowTable(schema.size())};
}

/// A HashJoin's build side indexed on one key column by counting sort —
/// the shape of a CSR: the build rows holding value v are
/// rows_[begin(v) .. end(v)), in ascending row order, with offsets over
/// [min, max] of the column, so a one-row build costs O(1).
class BucketIndex {
 public:
  BucketIndex(const RowTable& build, size_t col) {
    const size_t n = build.size();
    if (n == 0) return;
    min_ = max_ = build[0][col];
    for (size_t r = 1; r < n; ++r) {
      min_ = std::min(min_, build[r][col]);
      max_ = std::max(max_, build[r][col]);
    }
    // ends_[k] counts, then (after the running sum) starts, and after
    // the fill ends bucket min_ + k.
    ends_.assign(static_cast<size_t>(max_ - min_) + 1, 0);
    for (size_t r = 0; r < n; ++r) ++ends_[build[r][col] - min_];
    uint32_t start = 0;
    for (uint32_t& slot : ends_) {
      max_bucket_ = std::max<size_t>(max_bucket_, slot);
      start += std::exchange(slot, start);
    }
    rows_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      rows_[ends_[build[r][col] - min_]++] = static_cast<uint32_t>(r);
    }
  }

  /// The build rows whose key column holds `v`, ascending.
  std::span<const uint32_t> Bucket(NodeId v) const {
    if (rows_.empty() || v < min_ || v > max_) return {};
    const size_t k = v - min_;
    const uint32_t begin = k == 0 ? 0 : ends_[k - 1];
    return {rows_.data() + begin, ends_[k] - begin};
  }

  /// The largest bucket's size: no probe row finds more build rows.
  size_t max_bucket() const { return max_bucket_; }

 private:
  NodeId min_ = 0;
  NodeId max_ = 0;
  size_t max_bucket_ = 0;
  std::vector<uint32_t> ends_;
  std::vector<uint32_t> rows_;
};

/// Consumer of a streamed operator's rows. `row` holds one value per
/// column of the operator's schema. Returns false to stop the producer
/// early.
using RowSink = std::function<bool(const NodeId* row)>;

/// The right side of a closing-edge join: an EdgeScan under zero or
/// more Filters (outermost first) whose endpoints the left side binds.
struct ClosingEdge {
  const LogicalOp* scan = nullptr;
  std::vector<const LogicalOp*> filters;
};

/// A Filter's predicate on one column of its input rows: the node test,
/// or the `var == node` form of a Filter without one.
struct RowCheck {
  size_t col;
  std::optional<BoundTest> test;
  NodeId node;

  bool operator()(const NodeId* row) const {
    if (test.has_value()) return test->MatchesNode(row[col]);
    return node != kNoNode && row[col] == node;
  }
};

/// One operator's ProfileNode while it runs: pushed on construction,
/// closed (wall time, rows_in from the children) on destruction. Inert
/// without a TraceContext.
class OpProfile {
 public:
  explicit OpProfile(LogicalKind kind) : trace_(obs::CurrentTrace()) {
    if (trace_ == nullptr) return;
    node_ = trace_->PushOp(LogicalKindName(kind));
    start_ = obs::NowNanos();
  }
  ~OpProfile() {
    if (trace_ == nullptr) return;
    node_->time_ns = obs::NowNanos() - start_;
    node_->rows_out = rows_out;
    // rows_in = what the children fed this operator; leaves scan the
    // graph directly and report 0.
    for (const auto& child : node_->children) node_->rows_in += child->rows_out;
    trace_->PopOp();
  }
  OpProfile(const OpProfile&) = delete;
  OpProfile& operator=(const OpProfile&) = delete;

  uint64_t rows_out = 0;

 private:
  obs::TraceContext* trace_;
  obs::ProfileNode* node_ = nullptr;
  uint64_t start_ = 0;
};

class Executor {
 public:
  Executor(const GraphView& view, const ExecOptions& options)
      : view_(view), options_(options), csr_(view.csr()) {}

  /// Evaluates `op` into a RowSet. Pipeline operators (Streams) run
  /// their stream into it; the rest materialize operator by operator.
  ///
  /// Per-request profiling: when the calling thread has a TraceContext
  /// installed (serve's "profile":true path), every operator contributes
  /// one ProfileNode mirroring its EXPLAIN line — kind, rows in/out,
  /// engine choice and wall time. Without a trace this is a null check.
  Result<RowSet> Exec(const LogicalOp& op) {
    if (Streams(op)) {
      RowSet rs = EmptyRows(op.schema);
      KGQ_RETURN_IF_ERROR(Stream(op, [&](const NodeId* row) {
        rs.rows.Append(row);
        return true;
      }));
      return rs;
    }
    OpProfile profile(op.kind);
    Result<RowSet> result = ExecOp(op);
    if (result.ok()) profile.rows_out = result->rows.size();
    return result;
  }

 private:
  Result<RowSet> ExecOp(const LogicalOp& op) {
    switch (op.kind) {
      case LogicalKind::kNodeScan: {
        KGQ_SPAN("plan.op.node_scan");
        return NodeScan(op);
      }
      case LogicalKind::kPathAtom: {
        KGQ_SPAN("plan.op.path_atom");
        return PathAtom(op);
      }
      case LogicalKind::kHashJoin: {
        KGQ_SPAN("plan.op.hash_join");
        return HashJoin(op);
      }
      case LogicalKind::kProject: {
        KGQ_SPAN("plan.op.project");
        return Project(op);
      }
      case LogicalKind::kEdgeScan:
      case LogicalKind::kFilter:
        break;  // Pipeline operators: Exec streams them.
    }
    return Status::Internal("unknown logical operator");
  }

  // ---- the pipeline ----
  //
  // A label-partition EdgeScan is the one streaming producer: one pass
  // over its spans, each row pushed through the checks stacked on it —
  // the Filters above it and closing-edge probes — and materialized
  // only by whoever consumes the stream last. Every operator keeps its
  // own span and ProfileNode; the scan's wall time includes the checks
  // it drives.

  /// True iff `op` runs as a pipeline stage: every EdgeScan and Filter,
  /// and a HashJoin that closes an edge (ProbeEdge).
  bool Streams(const LogicalOp& op) {
    switch (op.kind) {
      case LogicalKind::kEdgeScan:
      case LogicalKind::kFilter:
        return true;
      case LogicalKind::kHashJoin:
        return ProbeEdge(op).has_value();
      default:
        return false;
    }
  }

  /// True iff `op` yields its rows sorted lexicographically by its
  /// schema (parallel-edge duplicates adjacent): a label-partition scan
  /// over sorted spans, a PathAtom (every path engine emits its (src,
  /// dst) pairs ascending and distinct), and any Filter or probe join
  /// over such an input.
  bool Ordered(const LogicalOp& op) {
    switch (op.kind) {
      case LogicalKind::kEdgeScan:
        return SortedSpans();
      case LogicalKind::kPathAtom:
        return true;
      case LogicalKind::kFilter:
        return Ordered(*op.children[0]);
      case LogicalKind::kHashJoin:
        return ProbeEdge(op).has_value() && Ordered(*op.children[0]);
      default:
        return false;
    }
  }

  /// Streams a pipeline operator's rows into `sink`.
  Status Stream(const LogicalOp& op, const RowSink& sink) {
    OpProfile profile(op.kind);
    switch (op.kind) {
      case LogicalKind::kEdgeScan: {
        KGQ_SPAN("plan.op.edge_scan");
        return EdgeScan(op, sink, &profile.rows_out);
      }
      case LogicalKind::kFilter: {
        KGQ_SPAN("plan.op.filter");
        return Filter(op, sink, &profile.rows_out);
      }
      case LogicalKind::kHashJoin: {
        KGQ_SPAN("plan.op.hash_join");
        return ProbeJoin(op, *ProbeEdge(op), sink, &profile.rows_out);
      }
      default:
        return Status::Internal("operator does not stream");
    }
  }

  /// Feeds every row of `op` to `sink`: streamed when `op` is a pipeline
  /// stage, from its materialized RowSet otherwise.
  Status ForEachRow(const LogicalOp& op, const RowSink& sink) {
    if (Streams(op)) return Stream(op, sink);
    KGQ_ASSIGN_OR_RETURN(RowSet input, Exec(op));
    for (size_t i = 0; i < input.rows.size(); ++i) {
      if (!sink(input.rows[i].data())) break;
    }
    return Status::OK();
  }

  /// Filter `op`'s predicate on the rows of `schema`.
  Result<RowCheck> CheckOf(const LogicalOp& op,
                           const std::vector<std::string>& schema) {
    const size_t col = ColumnOf(schema, op.src_var);
    if (col == static_cast<size_t>(-1)) {
      return Status::Internal("filter variable '" + op.src_var +
                              "' not in input schema");
    }
    RowCheck check{col, std::nullopt, op.bound_src};
    if (op.test != nullptr) check.test.emplace(view_, *op.test);
    return check;
  }

  /// The closing edge of a HashJoin, when it runs as a probe: the right
  /// side is an EdgeScan under Filters, the left side binds both of its
  /// variables (so the join adds no column and only checks rows), and
  /// the scan's label partition is exact with sorted spans to
  /// binary-search. nullopt: an ordinary hash join.
  std::optional<ClosingEdge> ProbeEdge(const LogicalOp& join) {
    if (join.kind != LogicalKind::kHashJoin) return std::nullopt;
    ClosingEdge edge;
    const LogicalOp* right = join.children[1].get();
    while (right->kind == LogicalKind::kFilter) {
      edge.filters.push_back(right);
      right = right->children[0].get();
    }
    if (right->kind != LogicalKind::kEdgeScan) return std::nullopt;
    const LogicalOp& left = *join.children[0];
    if (!left.Produces(right->src_var) || !left.Produces(right->dst_var) ||
        !SortedSpans()) {
      return std::nullopt;
    }
    edge.scan = right;
    return edge;
  }

  /// True iff csr_'s label spans, which EdgeScans read, are sorted by
  /// neighbor.
  bool SortedSpans() const { return csr_.label_spans_sorted(); }

  /// Records the physical engine the current operator ran into the
  /// active profile node (no-op without a trace). The choice depends
  /// only on the plan and the graph, never on thread count — the
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

  Result<RowSet> NodeScan(const LogicalOp& op) {
    RowSet rs = EmptyRows(op.schema);
    bool bound = false;
    NodeId at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &bound, &at)) {
      return rs;
    }
    if (bound) {
      if (op.test == nullptr || EvalNodeTest(view_, *op.test, at)) {
        rs.rows.Append(&at);
      }
    } else if (op.test != nullptr) {
      MatchNodes(view_, *op.test).ForEach([&](size_t n) {
        const NodeId node = static_cast<NodeId>(n);
        rs.rows.Append(&node);
      });
    } else {
      for (NodeId n = 0; n < view_.num_nodes(); ++n) rs.rows.Append(&n);
    }
    KGQ_COUNTER_ADD("plan.rows.node_scan", rs.rows.size());
    return rs;
  }

  /// Label-partition scan: one pass over the label's CSR spans, pushing
  /// each (src, dst) row — one column on the diagonal — into `sink`
  /// until it asks to stop. Over sorted spans the rows come out in
  /// (src, dst) order: a full scan visits sources ascending, a bound
  /// endpoint reads one sorted span.
  Status EdgeScan(const LogicalOp& op, const RowSink& sink, uint64_t* rows) {
    ProfileEngine("csr");
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return Status::OK();
    }
    NodeId row[2];
    // Emits (a, b) unless the bounds or the diagonal reject it; false
    // once the sink asks to stop.
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return true;
      if (dst_bound && b != dst_at) return true;
      if (diagonal && a != b) return true;
      row[0] = a;
      row[1] = b;
      ++*rows;
      return sink(row);
    };
    std::optional<LabelId> lab = csr_.FindLabel(op.label);
    // Entries of the spans this call reads, tallied here and added to
    // the registry once; a scan the sink stops counts what it read.
    uint64_t entries = 0;
    if (lab.has_value()) {
      // (a, b) pairs: forward atoms read a's out partition; backward
      // atoms read a's in partition (neighbor = the edge's source).
      auto scan_from = [&](NodeId a) {
        CsrSnapshot::Span part = op.backward ? csr_.InForLabel(a, *lab)
                                             : csr_.OutForLabel(a, *lab);
        for (const CsrSnapshot::Entry& entry : part) {
          ++entries;
          if (!emit(a, entry.neighbor)) return false;
        }
        return true;
      };
      if (src_bound) {
        scan_from(src_at);
      } else if (dst_bound && !diagonal) {
        // Bound target: one partition of the reverse view.
        CsrSnapshot::Span part = op.backward
                                     ? csr_.OutForLabel(dst_at, *lab)
                                     : csr_.InForLabel(dst_at, *lab);
        for (const CsrSnapshot::Entry& entry : part) {
          ++entries;
          if (!emit(entry.neighbor, dst_at)) break;
        }
      } else {
        for (NodeId a = 0; a < csr_.num_nodes(); ++a) {
          if (!scan_from(a)) break;
        }
      }
    }
    KGQ_COUNTER_ADD("plan.scan.label_partition_entries", entries);
    KGQ_COUNTER_ADD("plan.rows.edge_scan", *rows);
    return Status::OK();
  }

  Result<RowSet> PathAtom(const LogicalOp& op) {
    if (op.path->kind() == PathExpr::Kind::kContextFree) {
      return CfPathAtom(op);
    }
    RowSet rs = EmptyRows(op.schema);
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
    PathQueryOptions popts;
    popts.parallel = options_.parallel;
    // Planner-selected physical engine (results are bit-identical
    // either way).
    popts.engine = op.engine;
    // A bound target is the engines' end restriction: they emit it
    // alone instead of whole rows.
    if (dst_bound) popts.end = dst_at;
    auto emit = [&](NodeId a, NodeId b) {
      const NodeId row[2] = {a, b};  // The diagonal's one column is a.
      if (!diagonal || a == b) rs.rows.Append(row);
    };
    PathEngine ran = PathEngine::kNfa;
    if (src_bound) {
      // Single-source fast path: one saturating configuration BFS
      // instead of n of them.
      if (op.engine == PathEngine::kMatrix) ran = PathEngine::kMatrix;
      ReachableFrom(nfa, src_at, popts).ForEach([&](size_t b) {
        emit(src_at, static_cast<NodeId>(b));
      });
    } else {
      const BoolCsr pairs = PairRelation(nfa, popts, &ran);
      if (!diagonal && !dst_bound) rs.rows.Reserve(pairs.nnz());
      for (size_t a = 0; a < pairs.num_rows; ++a) {
        for (size_t k = pairs.offsets[a]; k < pairs.offsets[a + 1]; ++k) {
          emit(static_cast<NodeId>(a), pairs.cols[k]);
        }
      }
    }
    ProfileEngine(ran == PathEngine::kMatrix ? "matrix" : "nfa");
    KGQ_COUNTER_ADD("plan.rows.path_atom", rs.rows.size());
    return rs;
  }

  /// Context-free PathAtom: the full pair relation of the grammar
  /// nonterminal (matrix fixpoint on the planner's opt-in, the
  /// CYK-style reference otherwise — bit-identical), then endpoint
  /// bounds filter the relation. Unlike the regular engines there is no
  /// single-source shortcut: the grammar's derivations are not
  /// direction-local, so the fixpoint always runs whole-graph.
  Result<RowSet> CfPathAtom(const LogicalOp& op) {
    KGQ_SPAN("plan.op.cfpq");
    RowSet rs = EmptyRows(op.schema);
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
    const bool matrix = op.engine == PathEngine::kMatrix;
    ProfileEngine(matrix ? "cfpq-matrix" : "cfpq-ref");
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      const NodeId row[2] = {a, b};  // The diagonal's one column is a.
      if (!diagonal || a == b) rs.rows.Append(row);
    };
    if (matrix) {
      KGQ_ASSIGN_OR_RETURN(
          BoolCsr rel,
          CfpqSolveMatrix(csr_, grammar, nt, options_.parallel));
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

  /// The natural join of the two children on their shared columns. The
  /// smaller side is indexed by counting sort on the first key column
  /// (BucketIndex); each probe row reads its value's bucket and checks
  /// the remaining key columns per candidate. Output order: probe rows
  /// in order, each followed by its matching build rows ascending.
  /// Without shared columns the join is a nested-loop cross product.
  ///
  /// On a thread budget, a probe side of more than one
  /// RowTable::kParallelGrain chunk runs chunk by chunk in parallel, in
  /// two passes: each chunk counts its output rows, the output is
  /// allocated once at the exact total, and each chunk then writes its
  /// rows from its prefix offset, so every row is written once and the
  /// order is the sequential one. Otherwise one pass on the calling
  /// thread appends the rows: a second probe pass would cost more than
  /// the buffer's regrowth.
  Result<RowSet> HashJoin(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet left, Exec(*op.children[0]));
    KGQ_ASSIGN_OR_RETURN(RowSet right, Exec(*op.children[1]));

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
    const size_t left_width = left.schema.size();
    auto emit = [&](NodeId* out, const NodeId* l, const NodeId* r) {
      for (size_t k = 0; k < left_width; ++k) out[k] = l[k];
      for (size_t k = 0; k < right_extra.size(); ++k) {
        out[left_width + k] = r[right_extra[k]];
      }
    };

    RowSet rs = EmptyRows(op.schema);
    if (keys.empty()) {
      // Disconnected conjuncts: cross product, left row l's block of
      // right rows at l * |right|.
      const size_t per_left = right.rows.size();
      rs.rows = RowTable(op.schema.size(), left.rows.size() * per_left);
      const ParallelOptions& par = options_.parallel;
      ForEachRowChunk(left.rows.size(), par, [&](size_t, size_t lo, size_t hi) {
        for (size_t l = lo; l < hi; ++l) {
          for (size_t r = 0; r < per_left; ++r) {
            emit(rs.rows.MutableRow(l * per_left + r), left.rows[l].data(),
                 right.rows[r].data());
          }
        }
      });
      KGQ_COUNTER_ADD("plan.rows.hash_join", rs.rows.size());
      return rs;
    }
    // Build on the smaller input, probe with the larger.
    const bool build_left = left.rows.size() <= right.rows.size();
    const RowTable& build = build_left ? left.rows : right.rows;
    const RowTable& probe = build_left ? right.rows : left.rows;
    if (build.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange("hash join build side exceeds 2^32 rows");
    }
    // (build col, probe col) per key; the first one is bucketed.
    std::vector<std::pair<size_t, size_t>> cols;
    for (const auto& [l, r] : keys) {
      cols.emplace_back(build_left ? l : r, build_left ? r : l);
    }
    const BucketIndex index(build, cols[0].first);
    KGQ_HISTOGRAM_RECORD("plan.join.build_rows", build.size());
    // Calls match(row, other) for each build row `other` that joins
    // probe row p, in ascending order, and returns how many there were.
    auto for_matches = [&](size_t p, auto&& match) {
      const NodeId* row = probe[p].data();
      const std::span<const uint32_t> bucket =
          index.Bucket(row[cols[0].second]);
      size_t hits = 0;
      for (uint32_t b : bucket) {
        const NodeId* other = build[b].data();
        bool same = true;
        for (size_t k = 1; k < cols.size() && same; ++k) {
          same = other[cols[k].first] == row[cols[k].second];
        }
        if (!same) continue;
        ++hits;
        match(row, other);
      }
      return hits;
    };
    // The same count without the rows: a one-key join matches its whole
    // bucket.
    auto count_matches = [&](size_t p) {
      if (cols.size() > 1) {
        return for_matches(p, [](const NodeId*, const NodeId*) {});
      }
      return index.Bucket(probe[p][cols[0].second]).size();
    };
    // plan.join.probe_hits is tallied per chunk of probe rows —
    // hit_rows[k][h] probe rows of chunk k found h build rows — and
    // flushed once below, one update per distinct h.
    const ParallelOptions& par = options_.parallel;
    const size_t grain = RowTable::kParallelGrain;
    const bool chunked = probe.size() > grain && par.ResolveThreads() > 1;
    const size_t chunks = chunked ? (probe.size() + grain - 1) / grain : 1;
    std::vector<std::vector<uint64_t>> hit_rows(KGQ_OBS_ON() ? chunks : 0);
    auto tally_of = [&](size_t k) -> std::vector<uint64_t>* {
      if (hit_rows.empty()) return nullptr;
      hit_rows[k].assign(index.max_bucket() + 1, 0);
      return &hit_rows[k];
    };
    if (!chunked) {
      // One pass on the calling thread, appending each row.
      std::vector<uint64_t>* tally = tally_of(0);
      std::vector<NodeId> out(op.schema.size());
      for (size_t p = 0; p < probe.size(); ++p) {
        const size_t hits =
            for_matches(p, [&](const NodeId* row, const NodeId* other) {
              emit(out.data(), build_left ? other : row,
                   build_left ? row : other);
              rs.rows.Append(out.data());
            });
        if (tally != nullptr) ++(*tally)[hits];
      }
    } else {
      // Pass 1: output rows per chunk, into ends[k + 1].
      std::vector<size_t> ends(chunks + 1, 0);
      ForEachRowChunk(probe.size(), par, [&](size_t k, size_t lo, size_t hi) {
        std::vector<uint64_t>* tally = tally_of(k);
        size_t rows = 0;
        for (size_t p = lo; p < hi; ++p) {
          const size_t hits = count_matches(p);
          rows += hits;
          if (tally != nullptr) ++(*tally)[hits];
        }
        ends[k + 1] = rows;
      });
      for (size_t k = 0; k < chunks; ++k) ends[k + 1] += ends[k];
      // Pass 2: each chunk writes its rows from its prefix offset.
      rs.rows = RowTable(op.schema.size(), ends[chunks]);
      ForEachRowChunk(probe.size(), par, [&](size_t k, size_t lo, size_t hi) {
        size_t next = ends[k];
        if (next == ends[k + 1]) return;
        for (size_t p = lo; p < hi; ++p) {
          for_matches(p, [&](const NodeId* row, const NodeId* other) {
            emit(rs.rows.MutableRow(next++), build_left ? other : row,
                 build_left ? row : other);
          });
        }
      });
    }
    for (size_t k = 1; k < hit_rows.size(); ++k) {
      for (size_t h = 0; h < hit_rows[k].size(); ++h) {
        hit_rows[0][h] += hit_rows[k][h];
      }
    }
    if (!hit_rows.empty()) {
      for ([[maybe_unused]] size_t h = 0; h < hit_rows[0].size(); ++h) {
        if (hit_rows[0][h] > 0) {
          KGQ_HISTOGRAM_RECORD_TIMES("plan.join.probe_hits", h,
                                     hit_rows[0][h]);
        }
      }
    }
    KGQ_COUNTER_ADD("plan.rows.hash_join", rs.rows.size());
    return rs;
  }

  /// Keeps the input rows whose variable passes the test (or equals the
  /// bound node); streams when its input does.
  Status Filter(const LogicalOp& op, const RowSink& sink, uint64_t* kept) {
    const LogicalOp& input = *op.children[0];
    KGQ_ASSIGN_OR_RETURN(RowCheck check, CheckOf(op, input.schema));
    KGQ_RETURN_IF_ERROR(
        ForEachRow(input, [&](const NodeId* row) {
          if (!check(row)) return true;
          ++*kept;
          return sink(row);
        }));
    KGQ_COUNTER_ADD("plan.rows.filter", *kept);
    return Status::OK();
  }

  /// A closing-edge join: each left row (u, v) probes the right scan's
  /// sorted span for the matching edge — a binary search instead of a
  /// hash table over the whole partition — and passes on once per
  /// parallel edge that also satisfies the right side's Filters. The
  /// right side is never scanned; its ProfileNodes report the rows the
  /// probes found (engine "probe" on the scan and the join).
  Status ProbeJoin(const LogicalOp& op, const ClosingEdge& edge,
                   const RowSink& sink, uint64_t* kept) {
    ProfileEngine("probe");
    const LogicalOp& left = *op.children[0];
    const LogicalOp& scan = *edge.scan;
    const size_t u_col = ColumnOf(left.schema, scan.src_var);
    const size_t v_col = ColumnOf(left.schema, scan.dst_var);
    // Innermost Filter first, the order the right side would apply them.
    std::vector<RowCheck> checks;
    for (auto it = edge.filters.rbegin(); it != edge.filters.rend(); ++it) {
      KGQ_ASSIGN_OR_RETURN(RowCheck check, CheckOf(**it, left.schema));
      checks.push_back(std::move(check));
    }
    const std::optional<LabelId> lab = csr_.FindLabel(scan.label);
    // The edge is found from either endpoint's span. Search the one of
    // the endpoint in the left side's leading column when there is one:
    // ordered left rows then share one span per run of equal leading
    // values, read sequentially — a merge of that node's out- and
    // in-spans — instead of one random span per row.
    const bool anchor_dst = v_col == 0 && u_col != 0;
    // Forward edges run u→v, backward ones v→u; the anchor's span on the
    // matching side lists the other endpoint.
    const bool use_in = scan.backward != anchor_dst;
    NodeId anchored = kNoNode;
    CsrSnapshot::Span span;
    uint64_t found = 0;                              // right scan's rows
    std::vector<uint64_t> passed(checks.size(), 0);  // per check
    KGQ_RETURN_IF_ERROR(
        ForEachRow(left, [&](const NodeId* row) {
          const NodeId u = row[u_col];
          const NodeId v = row[v_col];
          if (!lab.has_value() || (scan.has_bound_src && u != scan.bound_src) ||
              (scan.has_bound_dst && v != scan.bound_dst)) {
            return true;
          }
          const NodeId anchor = anchor_dst ? v : u;
          if (anchor != anchored) {
            anchored = anchor;
            span = use_in ? csr_.InForLabel(anchor, *lab)
                          : csr_.OutForLabel(anchor, *lab);
          }
          auto [lo, hi] = std::equal_range(
              span.begin(), span.end(),
              CsrSnapshot::Entry{0, anchor_dst ? u : v, 0},
              [](const CsrSnapshot::Entry& a, const CsrSnapshot::Entry& b) {
                return a.neighbor < b.neighbor;
              });
          const uint64_t hits = static_cast<uint64_t>(hi - lo);
          if (hits == 0) return true;
          found += hits;
          for (size_t i = 0; i < checks.size(); ++i) {
            if (!checks[i](row)) return true;
            passed[i] += hits;
          }
          for (uint64_t i = 0; i < hits; ++i) {
            ++*kept;
            if (!sink(row)) return false;
          }
          return true;
        }));
    KGQ_COUNTER_ADD("plan.rows.edge_scan", found);
    for ([[maybe_unused]] uint64_t rows : passed) {
      KGQ_COUNTER_ADD("plan.rows.filter", rows);
    }
    KGQ_COUNTER_ADD("plan.rows.hash_join", *kept);
    ProfileProbedSide(edge, found, passed);
    return Status::OK();
  }

  /// Appends the never-scanned right side of a probe join to the profile
  /// tree, after the left side: its Filters (outermost first) over the
  /// scan, each reporting the probed rows it kept.
  static void ProfileProbedSide(const ClosingEdge& edge, uint64_t found,
                                const std::vector<uint64_t>& passed) {
    obs::TraceContext* trace = obs::CurrentTrace();
    if (trace == nullptr) return;
    const size_t depth = edge.filters.size();
    for (size_t i = 0; i < depth; ++i) {
      obs::ProfileNode* node =
          trace->PushOp(LogicalKindName(LogicalKind::kFilter));
      node->rows_in = i + 1 < depth ? passed[depth - i - 2] : found;
      node->rows_out = passed[depth - i - 1];
    }
    obs::ProfileNode* node =
        trace->PushOp(LogicalKindName(LogicalKind::kEdgeScan));
    node->engine = "probe";
    node->rows_out = found;
    for (size_t i = 0; i <= depth; ++i) trace->PopOp();
  }

  /// Columns of an ordered input (Ordered) that hold one value on
  /// every row: a scan or path endpoint bound to a constant, or a
  /// Filter's `var == node` column, kept by the Filters and probe joins
  /// above.
  std::vector<bool> ConstantColumns(const LogicalOp& op) {
    std::vector<bool> fixed(op.schema.size(), false);
    switch (op.kind) {
      case LogicalKind::kEdgeScan:
      case LogicalKind::kPathAtom:
        fixed[0] = op.has_bound_src;
        fixed.back() = fixed.back() || op.has_bound_dst;
        break;
      case LogicalKind::kFilter:
      case LogicalKind::kHashJoin:  // A probe join: the left's schema.
        fixed = ConstantColumns(*op.children[0]);
        if (op.kind == LogicalKind::kFilter && op.test == nullptr) {
          const size_t col = ColumnOf(op.schema, op.src_var);
          if (col < fixed.size()) fixed[col] = true;
        }
        break;
      default:
        break;
    }
    return fixed;
  }

  /// True iff rows sorted by `input`'s schema are also sorted by the
  /// projection `cols` with equal projected rows adjacent: skipping the
  /// constant columns on both sides, the projection is a prefix of the
  /// input's columns.
  bool OrderPrefix(const LogicalOp& input, const std::vector<size_t>& cols) {
    const std::vector<bool> fixed = ConstantColumns(input);
    size_t next = 0;  // The next non-constant input column.
    for (size_t c : cols) {
      if (fixed[c]) continue;
      while (next < fixed.size() && fixed[next]) ++next;
      if (c != next++) return false;
    }
    return true;
  }

  Result<RowSet> Project(const LogicalOp& op) {
    const LogicalOp& input = *op.children[0];
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
    RowSet rs = EmptyRows(op.columns);
    const size_t width = cols.size();
    // The canonical output discipline shared with the reference
    // evaluators: sorted, deduplicated, limit applied last. An ordered
    // input whose leading non-constant columns are the projection
    // already arrives sorted with duplicates adjacent, so it is
    // deduplicated on the fly, and a streamed input stops once `limit`
    // distinct rows are in.
    if (Ordered(input) && OrderPrefix(input, cols)) {
      std::vector<NodeId> out(width);
      KGQ_RETURN_IF_ERROR(ForEachRow(input, [&](const NodeId* row) {
        for (size_t i = 0; i < width; ++i) out[i] = row[cols[i]];
        if (rs.rows.empty() ||
            !std::equal(out.begin(), out.end(),
                        rs.rows[rs.rows.size() - 1].begin())) {
          rs.rows.Append(out.data());
        }
        return op.limit == 0 || rs.rows.size() < op.limit;
      }));
    } else {
      KGQ_ASSIGN_OR_RETURN(RowSet in, Exec(input));
      rs.rows =
          SortUniqueProjection(std::move(in.rows), cols, options_.parallel);
      if (op.limit > 0) rs.rows.Truncate(op.limit);
    }
    KGQ_COUNTER_ADD("plan.rows.project", rs.rows.size());
    return rs;
  }

  const GraphView& view_;
  const ExecOptions& options_;
  const CsrSnapshot& csr_;  // view_.csr().
};

}  // namespace

Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options) {
  KGQ_SPAN("plan.execute");
  Executor executor(view, options);
  return executor.Exec(root);
}

}  // namespace kgq
