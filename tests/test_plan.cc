// Unit tests for the shared query-planning layer (src/plan): cardinality
// statistics, optimizer rewrite rules (filter pushdown, EdgeScan fast
// path, join reordering), the EXPLAIN printer, the physical executor on
// hand-checkable graphs, and the three front-end compilers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "datasets/dblp_synth.h"
#include "datasets/figure2.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "plan/exec.h"
#include "plan/ir.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/rdf_view.h"
#include "rpq/crpq.h"
#include "rpq/parser.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace kgq {
namespace {

PlannerOptions NaiveOptions() {
  PlannerOptions o;
  o.push_filters = false;
  o.reorder_joins = false;
  o.edge_scan_fastpath = false;
  return o;
}

const LogicalOp* FindKind(const LogicalOp& op, LogicalKind kind) {
  if (op.kind == kind) return &op;
  for (const LogicalOpPtr& c : op.children) {
    if (const LogicalOp* hit = FindKind(*c, kind)) return hit;
  }
  return nullptr;
}

/// Nested copy of a result table, to compare with a literal.
using Rows = std::vector<std::vector<NodeId>>;

size_t CountKind(const LogicalOp& op, LogicalKind kind) {
  size_t n = op.kind == kind ? 1 : 0;
  for (const LogicalOpPtr& c : op.children) n += CountKind(*c, kind);
  return n;
}

// ---------------------------------------------------------------------
// GraphStats

TEST(GraphStats, ReadsLabelFrequenciesFromTheSnapshot) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  EXPECT_DOUBLE_EQ(stats.num_nodes(), static_cast<double>(g.num_nodes()));
  EXPECT_DOUBLE_EQ(stats.num_edges(), static_cast<double>(g.num_edges()));
  EXPECT_DOUBLE_EQ(stats.LabelFrequency("rides"),
                   static_cast<double>(snap.LabelFrequency("rides")));
  EXPECT_DOUBLE_EQ(stats.LabelFrequency("no_such_label"), 0.0);

  // Without a snapshot argument the stats read the view's own CSR.
  GraphStats own = GraphStats::From(&view, nullptr);
  EXPECT_DOUBLE_EQ(own.num_edges(), static_cast<double>(g.num_edges()));
  EXPECT_DOUBLE_EQ(own.LabelFrequency("rides"),
                   static_cast<double>(snap.LabelFrequency("rides")));
}

TEST(GraphStats, NodeTestSelectivityIsExactWithAView) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, nullptr);

  // Figure 2 has one bus among six nodes.
  TestPtr bus = *ParseTest("bus");
  EXPECT_DOUBLE_EQ(stats.NodeTestSelectivity(*bus), 1.0 / 6.0);
  TestPtr truth = *ParseTest("true");
  EXPECT_DOUBLE_EQ(stats.NodeTestSelectivity(*truth), 1.0);
}

TEST(GraphStats, PathPairEstimateRanksLabelsByFrequency) {
  Rng rng(7);
  LabeledGraph g = ErdosRenyi(100, 400, {"p"}, {"hot", "hot", "rare"}, &rng);
  // Force the skew: relabel is not possible, so just count what we got.
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  double hot = stats.EstimatePathPairs(**ParseRegex("hot"));
  double rare = stats.EstimatePathPairs(**ParseRegex("rare"));
  EXPECT_DOUBLE_EQ(hot, stats.LabelFrequency("hot"));
  EXPECT_DOUBLE_EQ(rare, stats.LabelFrequency("rare"));
  EXPECT_GT(hot, rare);  // Two of three alphabet slots say "hot".

  // Union adds; star is at least its base; everything stays within n².
  double both = stats.EstimatePathPairs(**ParseRegex("(hot + rare)"));
  EXPECT_DOUBLE_EQ(both, hot + rare);
  double star = stats.EstimatePathPairs(**ParseRegex("hot*"));
  EXPECT_GE(star, hot);
  EXPECT_LE(star, stats.num_nodes() * stats.num_nodes());
}

// ---------------------------------------------------------------------
// Optimizer rules

TEST(Optimizer, SingleLabelAtomBecomesAnEdgeScan) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.projection = {"x", "b"};

  LogicalOpPtr plan = *PlanQuery(q, stats);
  EXPECT_NE(FindKind(*plan, LogicalKind::kEdgeScan), nullptr);
  EXPECT_EQ(FindKind(*plan, LogicalKind::kPathAtom), nullptr);

  // The ℓ⁻ form scans backward.
  ConjunctiveQuery qb;
  qb.atoms.push_back({"x", "b", *ParseRegex("rides^-")});
  qb.projection = {"x", "b"};
  LogicalOpPtr planb = *PlanQuery(qb, stats);
  const LogicalOp* scan = FindKind(*planb, LogicalKind::kEdgeScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->backward);
  EXPECT_EQ(scan->label, "rides");

  // With the rule off it stays a PathAtom.
  PlannerOptions no_fastpath;
  no_fastpath.edge_scan_fastpath = false;
  LogicalOpPtr plain = *PlanQuery(q, stats, no_fastpath);
  EXPECT_EQ(FindKind(*plain, LogicalKind::kEdgeScan), nullptr);
  EXPECT_NE(FindKind(*plain, LogicalKind::kPathAtom), nullptr);
}

TEST(Optimizer, PushdownFoldsEndpointTestsIntoThePathAtom) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, nullptr);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "y", *ParseRegex("(rides/rides^-)")});
  q.node_tests["x"] = *ParseTest("person");
  q.node_tests["y"] = *ParseTest("infected");
  q.projection = {"x"};

  // Optimized: tests live inside the PathAtom's regex, no Filters.
  LogicalOpPtr opt = *PlanQuery(q, stats);
  EXPECT_EQ(CountKind(*opt, LogicalKind::kFilter), 0u);
  const LogicalOp* atom = FindKind(*opt, LogicalKind::kPathAtom);
  ASSERT_NE(atom, nullptr);
  EXPECT_NE(atom->path->ToString().find("person"), std::string::npos);
  EXPECT_NE(atom->path->ToString().find("infected"), std::string::npos);

  // Naive: the atom keeps its original regex, Filters sit above.
  LogicalOpPtr naive = *PlanQuery(q, stats, NaiveOptions());
  EXPECT_EQ(CountKind(*naive, LogicalKind::kFilter), 2u);
  const LogicalOp* natom = FindKind(*naive, LogicalKind::kPathAtom);
  ASSERT_NE(natom, nullptr);
  EXPECT_EQ(natom->path->ToString().find("person"), std::string::npos);
}

TEST(Optimizer, GreedyReorderSeedsFromTheCheapestLeaf) {
  // Two hot atoms first, one rare atom last — textual order would build
  // the huge intermediate, the greedy order must start from "rare".
  Rng rng(11);
  LabeledGraph g =
      ErdosRenyi(60, 600, {"p"}, {"hot", "hot", "hot", "rare"}, &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"a", "b", *ParseRegex("hot")});
  q.atoms.push_back({"b", "c", *ParseRegex("hot")});
  q.atoms.push_back({"c", "d", *ParseRegex("rare")});
  q.projection = {"a", "d"};

  LogicalOpPtr plan = *PlanQuery(q, stats);
  // Walk to the deepest left leaf: the join tree's first input.
  const LogicalOp* cur = plan.get();
  while (!cur->children.empty()) cur = cur->children[0].get();
  EXPECT_EQ(cur->label, "rare") << ExplainPlan(*plan);

  // Naive keeps textual order.
  LogicalOpPtr naive = *PlanQuery(q, stats, NaiveOptions());
  cur = naive.get();
  while (!cur->children.empty()) cur = cur->children[0].get();
  ASSERT_EQ(cur->kind, LogicalKind::kPathAtom);
  EXPECT_EQ(cur->src_var, "a");
}

TEST(Optimizer, RejectsMalformedQueries) {
  GraphStats stats;
  ConjunctiveQuery empty_projection;
  empty_projection.atoms.push_back({"x", "y", *ParseRegex("a")});
  EXPECT_FALSE(PlanQuery(empty_projection, stats).ok());

  ConjunctiveQuery unknown_var;
  unknown_var.atoms.push_back({"x", "y", *ParseRegex("a")});
  unknown_var.projection = {"z"};
  EXPECT_FALSE(PlanQuery(unknown_var, stats).ok());

  ConjunctiveQuery nothing;
  nothing.projection = {"x"};
  EXPECT_FALSE(PlanQuery(nothing, stats).ok());
}

TEST(Optimizer, ExplainRendersTheTreeWithEstimates) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.atoms.push_back({"y", "b", *ParseRegex("rides")});
  q.node_tests["y"] = *ParseTest("infected");
  q.projection = {"x"};
  q.limit = 5;

  LogicalOpPtr plan = *PlanQuery(q, stats);
  std::string text = ExplainPlan(*plan);
  EXPECT_NE(text.find("Project [x] limit=5"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin [b]"), std::string::npos) << text;
  EXPECT_NE(text.find("EdgeScan (x)-[rides]->(b)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Executor

// q(x) :- (x) -[rides]-> (b: bus): everyone who rides the bus.
TEST(Executor, AnswersFigure2RidersQuery) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus)");
  std::vector<std::vector<NodeId>> expected = {
      {fig2::kJuan}, {fig2::kPedro}, {fig2::kRosa}};

  RowSet rows = *EvalCrpq(view, q);
  ASSERT_EQ(rows.schema, std::vector<std::string>{"x"});
  EXPECT_EQ(Rows(rows.rows), expected);
  RowSet ref = *EvalCrpqReference(view, q);
  EXPECT_EQ(Rows(ref.rows), expected);
}

// The contact-tracing join of the paper: who shared a bus with an
// infected person.
TEST(Executor, AnswersTheContactTracingJoin) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq(
      "q(x) :- (x: person) -[ rides ]-> (b: bus), "
      "(y: infected) -[ rides ]-> (b)");
  RowSet rows = *EvalCrpq(view, q);
  // Juan and Rosa ride the bus Pedro (infected) rides. Pedro is labeled
  // infected, not person, so he is excluded.
  std::vector<std::vector<NodeId>> expected = {{fig2::kJuan}, {fig2::kRosa}};
  EXPECT_EQ(Rows(rows.rows), expected) << ExplainPlan(
      **PlanQuery(*CompileCrpq(q), GraphStats::From(&view, &view.csr())));
  EXPECT_EQ(Rows((*EvalCrpqReference(view, q)).rows), expected);
}

TEST(Executor, DiagonalAtomSelectsSelfLoopsOnly) {
  LabeledGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  (void)g.AddEdge(0, 1, "a");
  (void)g.AddEdge(1, 1, "a");  // Self-loop.
  (void)g.AddEdge(2, 0, "a");
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq("q(x) :- (x) -[ a ]-> (x)");
  std::vector<std::vector<NodeId>> expected = {{1}};
  EXPECT_EQ(Rows((*EvalCrpq(view, q)).rows), expected);
  EXPECT_EQ(Rows((*EvalCrpqReference(view, q)).rows), expected);
}

TEST(Executor, TestOnlyVariablesCrossJoinViaNodeScan) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  // (w: bus) never touches a path atom: pure NodeScan cross product.
  Crpq q = *ParseCrpq("q(x, w) :- (x: infected) -[ rides ]-> (b), (w: bus)");
  RowSet rows = *EvalCrpq(view, q);
  std::vector<std::vector<NodeId>> expected = {{fig2::kPedro, fig2::kBus}};
  EXPECT_EQ(Rows(rows.rows), expected);
  EXPECT_EQ(Rows((*EvalCrpqReference(view, q)).rows), expected);
}

TEST(Executor, BoundVariablesPinLeavesAndAbsentConstantsYieldEmpty) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, &view.csr());

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.bound["b"] = fig2::kBus;
  q.projection = {"x"};
  ExecOptions eopts;
  RowSet rows = *ExecutePlan(view, **PlanQuery(q, stats), eopts);
  std::vector<std::vector<NodeId>> expected = {
      {fig2::kJuan}, {fig2::kPedro}, {fig2::kRosa}};
  EXPECT_EQ(Rows(rows.rows), expected);

  // A constant that does not exist in the graph empties the query —
  // under every planner configuration.
  q.bound["b"] = kNoNode;
  EXPECT_TRUE((*ExecutePlan(view, **PlanQuery(q, stats), eopts)).rows.empty());
  EXPECT_TRUE(
      (*ExecutePlan(view, **PlanQuery(q, stats, NaiveOptions()), eopts))
          .rows.empty());
}

TEST(Executor, LimitTruncatesAfterSortAndDedup) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus) LIMIT 2");
  RowSet rows = *EvalCrpq(view, q);
  std::vector<std::vector<NodeId>> expected = {{fig2::kJuan}, {fig2::kPedro}};
  EXPECT_EQ(Rows(rows.rows), expected);
  EXPECT_EQ(Rows((*EvalCrpqReference(view, q)).rows), expected);
}

/// Counts the events a sink receives for one counter name.
class CounterEvents : public obs::ObsSink {
 public:
  explicit CounterEvents(std::string name) : name_(std::move(name)) {}
  void OnCounter(std::string_view name, uint64_t delta) override {
    if (name != name_) return;
    ++events;
    total += delta;
  }
  void OnHistogram(std::string_view, uint64_t, uint64_t) override {}
  void OnSpan(std::string_view, uint64_t) override {}

  uint64_t events = 0;
  uint64_t total = 0;

 private:
  std::string name_;
};

TEST(Executor, EmitsObsCountersAndSpans) {
  obs::Registry::SetEnabled(true);
  obs::Registry::Get().Reset();

  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus)");
  CounterEvents entries("plan.scan.label_partition_entries");
  {
    obs::ScopedSink sink(&entries);
    (void)*EvalCrpq(view, q);
  }

  // A -DKGQ_OBS=OFF build compiles the macro call sites to nothing;
  // the execution itself must still work (checked above by EvalCrpq).
  if (!obs::kCompiledIn) return;
  const obs::Registry& reg = obs::Registry::Get();
  EXPECT_GT(reg.CounterValue("plan.rows.project"), 0u);
  EXPECT_GT(reg.SpanCount("plan.optimize"), 0u);
  EXPECT_GT(reg.SpanCount("plan.execute"), 0u);
  // The full scan reads every rides entry once and reports the tally in
  // one registry add per call, not one per node.
  const uint64_t rides = view.csr().LabelFrequency("rides");
  ASSERT_GT(rides, 0u);
  EXPECT_EQ(reg.CounterValue("plan.scan.label_partition_entries"), rides);
  EXPECT_EQ(entries.total, rides);
  EXPECT_EQ(entries.events, 1u);
}

// ---------------------------------------------------------------------
// The ordered pipeline: guards against a silent fallback to the
// materialize → sort → dedup → limit path.

/// A transit graph of 12k+ edges built in canonical (from, to, label)
/// order, so its FromGraph snapshot has sorted label spans: persons
/// 0..1999 ride buses 2000..2399 and know each other, a third of the
/// `knows` edges reciprocated.
LabeledGraph CanonicalTransitGraph() {
  constexpr NodeId kPersons = 2000;
  constexpr NodeId kBuses = 400;
  Rng rng(17);
  std::vector<CsrSnapshot::EdgeRecord> edges;
  for (NodeId p = 0; p < kPersons; ++p) {
    for (int i = 0; i < 3; ++i) {
      edges.push_back(
          {p, kPersons + static_cast<NodeId>(rng.Below(kBuses)), "rides"});
      const NodeId q = static_cast<NodeId>(rng.Below(kPersons));
      edges.push_back({p, q, "knows"});
      if (i == 0) edges.push_back({q, p, "knows"});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::tie(a.from, a.to, a.label) < std::tie(b.from, b.to, b.label);
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  LabeledGraph g;
  for (NodeId n = 0; n < kPersons + kBuses; ++n) {
    g.AddNode(n < kPersons ? "person" : "bus");
  }
  for (const auto& e : edges) {
    EXPECT_TRUE(g.AddEdge(e.from, e.to, e.label).ok());
  }
  return g;
}

/// `g` with its edges added in reverse id order: the same nodes and
/// edge set, but a CSR whose label spans are unsorted wherever a node
/// has two neighbors under one label — the executor's materializing
/// regime (scans sort in Project, closing edges hash).
LabeledGraph ReversedEdges(const LabeledGraph& g) {
  LabeledGraph out;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    out.AddNode(g.NodeLabelString(n));
  }
  for (EdgeId e = g.num_edges(); e-- > 0;) {
    EXPECT_TRUE(out.AddEdge(g.topology().EdgeSource(e),
                            g.topology().EdgeTarget(e), g.EdgeLabelString(e))
                    .ok());
  }
  return out;
}

/// Pre-order search for the first profile node of `kind`.
const obs::ProfileNode* FindProfiled(const obs::ProfileNode& node,
                                     const std::string& kind) {
  if (node.kind == kind) return &node;
  for (const auto& child : node.children) {
    if (const obs::ProfileNode* hit = FindProfiled(*child, kind)) return hit;
  }
  return nullptr;
}

TEST(OrderedPipeline, LimitStopsTheScanEarly) {
  obs::Registry::SetEnabled(true);
  LabeledGraph g = CanonicalTransitGraph();
  ASSERT_GE(g.num_edges(), 10000u);
  LabeledGraphView view(g);
  const CsrSnapshot& snap = view.csr();
  ASSERT_TRUE(snap.label_spans_sorted());
  const LabeledGraph reversed = ReversedEdges(g);
  LabeledGraphView unsorted(reversed);
  ASSERT_FALSE(unsorted.csr().label_spans_sorted());

  // Full-sort reference: every rides edge, sorted, deduplicated, cut.
  std::vector<std::vector<NodeId>> want;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.EdgeLabelString(e) != "rides") continue;
    want.push_back({g.topology().EdgeSource(e), g.topology().EdgeTarget(e)});
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  want.resize(50);

  MatchQuery mq = *ParseMatchQuery(
      "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b LIMIT 50");
  obs::TraceContext trace;
  Result<QueryResult> got = [&] {
    obs::ScopedTrace scope(&trace);
    return ExecuteMatchPlanned(view, mq);
  }();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Rows(got->rows), want);
  // Over unsorted spans the scan materializes and Project sorts.
  EXPECT_EQ(Rows((*ExecuteMatchPlanned(unsorted, mq)).rows), want);

  if (!obs::kCompiledIn) return;
  std::shared_ptr<const obs::ProfileNode> profile = trace.TakeProfile();
  ASSERT_NE(profile, nullptr);
  const obs::ProfileNode* scan = FindProfiled(*profile, "EdgeScan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->engine, "csr");
  EXPECT_GE(scan->rows_out, 50u);
  EXPECT_LT(scan->rows_out * 20, snap.LabelFrequency("rides"))
      << "the scan read most of its partition: LIMIT did not stop it";
}

// The planner filters a variable on every leaf that binds it, so a
// closing edge's own Filters repeat the left side's. A hand-built plan
// where only the right side filters checks that the probe applies them.
TEST(OrderedPipeline, ProbeAppliesTheClosingEdgesOwnFilters) {
  LabeledGraph g;
  for (const char* label : {"person", "bot", "person", "bot"}) g.AddNode(label);
  // Canonical order: every pair of nodes knows each other both ways.
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      if (a != b) {
        ASSERT_TRUE(g.AddEdge(a, b, "knows").ok());
      }
    }
  }
  LabeledGraphView sorted(g);
  ASSERT_TRUE(sorted.csr().label_spans_sorted());
  const LabeledGraph reversed = ReversedEdges(g);
  LabeledGraphView unsorted(reversed);
  ASSERT_FALSE(unsorted.csr().label_spans_sorted());

  auto scan = [](const std::string& src, const std::string& dst) {
    auto op = std::make_shared<LogicalOp>();
    op->kind = LogicalKind::kEdgeScan;
    op->src_var = src;
    op->dst_var = dst;
    op->label = "knows";
    op->schema = {src, dst};
    return op;
  };
  auto filter = std::make_shared<LogicalOp>();
  filter->kind = LogicalKind::kFilter;
  filter->src_var = "x";
  filter->test = TestExpr::Label("person");
  filter->children = {scan("y", "x")};
  filter->schema = {"y", "x"};
  auto join = std::make_shared<LogicalOp>();
  join->kind = LogicalKind::kHashJoin;
  join->children = {scan("x", "y"), filter};
  join->schema = {"x", "y"};
  LogicalOp project;
  project.kind = LogicalKind::kProject;
  project.columns = {"x", "y"};
  project.schema = {"x", "y"};
  project.children = {join};

  // x ∈ {0, 2} (the persons), y any other node.
  const std::vector<std::vector<NodeId>> want = {
      {0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 1}, {2, 3}};
  // Over sorted spans the join probes; over unsorted ones it hashes.
  for (const LabeledGraphView* view : {&sorted, &unsorted}) {
    const bool probes = view->csr().label_spans_sorted();
    obs::TraceContext trace;
    Result<RowSet> got = [&] {
      obs::ScopedTrace scope(&trace);
      return ExecutePlan(*view, project);
    }();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Rows(got->rows), want) << "sorted=" << probes;
    if (!obs::kCompiledIn || !probes) continue;
    std::shared_ptr<const obs::ProfileNode> profile = trace.TakeProfile();
    ASSERT_NE(profile, nullptr);
    const obs::ProfileNode* probe = FindProfiled(*profile, "HashJoin");
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe->engine, "probe");
    // The probed side: every left row found its reverse edge, and the
    // Filter kept the persons.
    ASSERT_EQ(probe->children.size(), 2u);
    const obs::ProfileNode& right = *probe->children[1];
    EXPECT_EQ(right.kind, "Filter");
    EXPECT_EQ(right.rows_in, 12u);
    EXPECT_EQ(right.rows_out, 6u);
  }
}

TEST(OrderedPipeline, ClosingEdgeProbesInsteadOfHashing) {
  obs::Registry::SetEnabled(true);
  LabeledGraph g = CanonicalTransitGraph();
  LabeledGraphView view(g);
  ASSERT_TRUE(view.csr().label_spans_sorted());
  const LabeledGraph reversed = ReversedEdges(g);
  LabeledGraphView unsorted(reversed);
  ASSERT_FALSE(unsorted.csr().label_spans_sorted());

  // Reference: the mutual-knows pairs, sorted.
  std::set<std::pair<NodeId, NodeId>> knows;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.EdgeLabelString(e) == "knows") {
      knows.emplace(g.topology().EdgeSource(e), g.topology().EdgeTarget(e));
    }
  }
  std::vector<std::vector<NodeId>> mutual;
  for (const auto& [x, y] : knows) {
    if (knows.count({y, x}) != 0) mutual.push_back({x, y});
  }
  ASSERT_GT(mutual.size(), 100u);

  for (size_t limit : {size_t{0}, size_t{40}}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    std::vector<std::vector<NodeId>> want = mutual;
    if (limit > 0) want.resize(limit);
    Crpq q = *ParseCrpq(
        "q(x, y) :- (x) -[ knows ]-> (y), (y) -[ knows ]-> (x)");
    q.limit = limit;
    obs::TraceContext trace;
    Result<RowSet> got = [&] {
      obs::ScopedTrace scope(&trace);
      return EvalCrpq(view, q);
    }();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Rows(got->rows), want);
    EXPECT_EQ(Rows((*EvalCrpq(unsorted, q)).rows), want);  // hash join

    if (!obs::kCompiledIn) continue;
    std::shared_ptr<const obs::ProfileNode> profile = trace.TakeProfile();
    ASSERT_NE(profile, nullptr);
    const obs::ProfileNode* join = FindProfiled(*profile, "HashJoin");
    ASSERT_NE(join, nullptr);
    EXPECT_EQ(join->engine, "probe");
    EXPECT_EQ(trace.FindHistogram("plan.join.build_rows"), nullptr)
        << "the join built a hash table";
    // One node per logical operator: the probed side is still there.
    ASSERT_EQ(join->children.size(), 2u);
    EXPECT_EQ(join->children[1]->engine, "probe");
    EXPECT_EQ(join->rows_out, limit > 0 ? limit : mutual.size());
  }
}

TEST(OrderedPipeline, ConstantLeadingColumnDoesNotBlockTheLimitStop) {
  obs::Registry::SetEnabled(true);
  // Node 0 knows 150 nodes; built in canonical (from, to) order so the
  // label spans are sorted.
  constexpr NodeId kDegree = 150;
  LabeledGraph g;
  for (NodeId n = 0; n <= kDegree + 1; ++n) g.AddNode("person");
  for (NodeId n = 1; n <= kDegree; ++n) {
    ASSERT_TRUE(g.AddEdge(0, n, "knows").ok());
  }
  ASSERT_TRUE(g.AddEdge(1, kDegree + 1, "knows").ok());
  LabeledGraphView view(g);
  ASSERT_TRUE(view.csr().label_spans_sorted());
  const LabeledGraph reversed = ReversedEdges(g);
  LabeledGraphView unsorted(reversed);
  ASSERT_FALSE(unsorted.csr().label_spans_sorted());

  // n0 knows ?y LIMIT 1: the scan's schema is [x, y] with x bound, so
  // [y] is an order prefix once the constant column is skipped.
  ConjunctiveQuery q;
  q.atoms.push_back({"x", "y", *ParseRegex("knows")});
  q.bound["x"] = 0;
  q.projection = {"y"};
  q.limit = 1;
  GraphStats stats = GraphStats::From(&view, &view.csr());
  LogicalOpPtr plan = *PlanQuery(q, stats);
  ASSERT_NE(FindKind(*plan, LogicalKind::kEdgeScan), nullptr)
      << ExplainPlan(*plan);

  CounterEvents entries("plan.scan.label_partition_entries");
  Result<RowSet> got = [&] {
    obs::ScopedSink sink(&entries);
    return ExecutePlan(view, *plan);
  }();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Rows(got->rows), (Rows{{1}}));
  EXPECT_EQ(Rows((*ExecutePlan(unsorted, *plan)).rows), (Rows{{1}}));
  if (!obs::kCompiledIn) return;
  EXPECT_LT(entries.total, 100u)
      << "the bound scan read its whole span: LIMIT did not stop it";
}

// ---------------------------------------------------------------------
// Flat rows: RowTable, the bucket join and the radix Project

TEST(RowTable, ZeroArityRowsCountAndRender) {
  RowTable ask(0);
  EXPECT_TRUE(ask.empty());
  ask.NewRow();
  ask.Append(nullptr);
  EXPECT_EQ(ask.size(), 2u);
  EXPECT_TRUE(ask[1].empty());
  EXPECT_TRUE(ask.data().empty());
  // Every zero-arity row equals every other.
  ask = SortUniqueProjection(std::move(ask), {}, ParallelOptions{1});
  EXPECT_EQ(ask.size(), 1u);
  EXPECT_EQ(Rows(ask), (Rows{{}}));
  EXPECT_NE(ask, RowTable(0));

  serve::Request req;
  serve::QueryAnswer answer;
  answer.rows = ask;
  const std::string out = serve::RenderAnswer(req, answer);
  EXPECT_NE(out.find("\"columns\":[],\"rows\":[[]]"), std::string::npos)
      << out;
  answer.rows = RowTable(0);
  EXPECT_NE(serve::RenderAnswer(req, answer).find("\"rows\":[]"),
            std::string::npos);
}

TEST(RowTable, RendersEveryDigitCount) {
  RowTable rows(3);
  const NodeId a[3] = {0, 9, 10};
  const NodeId b[3] = {4294967295u, 1000000000u, 123};
  rows.Append(a);
  rows.Append(b);
  serve::Request req;
  serve::QueryAnswer answer;
  answer.columns = {"x", "y", "z"};
  answer.rows = rows;
  const std::string out = serve::RenderAnswer(req, answer);
  EXPECT_NE(out.find("\"rows\":[[0,9,10],[4294967295,1000000000,123]]}"),
            std::string::npos)
      << out;
}

TEST(RowTable, RendersValuesOfOneToTenDigitsExactly) {
  // Every digit count from 1 to 10 at both ends (10^k - 1 and 10^k),
  // in rows of one to four columns, against std::to_string.
  std::vector<NodeId> values = {0, 4294967295u};
  for (uint64_t p = 10; p <= 1000000000u; p *= 10) {
    values.push_back(static_cast<NodeId>(p - 1));
    values.push_back(static_cast<NodeId>(p));
  }
  for (size_t arity = 1; arity <= 4; ++arity) {
    RowTable rows(arity);
    std::string want = "\"rows\":[";
    for (size_t i = 0; i + arity <= values.size(); i += arity) {
      rows.Append(&values[i]);
      want += i == 0 ? "[" : ",[";
      for (size_t j = 0; j < arity; ++j) {
        if (j > 0) want += ',';
        want += std::to_string(values[i + j]);
      }
      want += ']';
    }
    want += "]}";
    serve::Request req;
    serve::QueryAnswer answer;
    answer.rows = rows;
    const std::string out = serve::RenderAnswer(req, answer);
    ASSERT_GE(out.size(), want.size());
    EXPECT_EQ(out.substr(out.size() - want.size()), want) << out;
  }
  // Several rows of no columns render as empty arrays.
  RowTable empty_rows(0);
  for (int i = 0; i < 3; ++i) empty_rows.NewRow();
  serve::QueryAnswer answer;
  answer.rows = empty_rows;
  const std::string out = serve::RenderAnswer(serve::Request(), answer);
  EXPECT_NE(out.find("\"rows\":[[],[],[]]}"), std::string::npos) << out;
}

TEST(RowTable, ZeroColumnProjectYieldsOneRowIffTheInputHasRows) {
  LabeledGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(0, 1, "a").ok());
  ASSERT_TRUE(g.AddEdge(0, 2, "a").ok());
  ASSERT_TRUE(g.AddEdge(1, 2, "a").ok());
  LabeledGraphView sorted(g);
  const LabeledGraph reversed = ReversedEdges(g);
  LabeledGraphView unsorted(reversed);
  ASSERT_FALSE(unsorted.csr().label_spans_sorted());
  for (const char* label : {"a", "absent"}) {
    auto scan = std::make_shared<LogicalOp>();
    scan->kind = LogicalKind::kEdgeScan;
    scan->src_var = "x";
    scan->dst_var = "y";
    scan->label = label;
    scan->schema = {"x", "y"};
    LogicalOp project;
    project.kind = LogicalKind::kProject;
    project.children = {scan};
    // Streamed (sorted spans) and materialized (unsorted) paths alike.
    for (const LabeledGraphView* view : {&sorted, &unsorted}) {
      Result<RowSet> got = ExecutePlan(*view, project);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->rows.arity(), 0u);
      EXPECT_EQ(got->rows.size(), std::string(label) == "a" ? 1u : 0u)
          << label << " sorted=" << view->csr().label_spans_sorted();
    }
  }
}

TEST(RowTable, RadixSortUniqueMatchesStdSortAndUnique) {
  Rng rng(2024);
  for (size_t arity = 1; arity <= 6; ++arity) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{300},
                     size_t{5000}}) {
      // Full 32-bit ids run every digit pass; ids below 4 make
      // duplicates and skipped passes; mixed columns get both.
      for (int spread = 0; spread < 3; ++spread) {
        RowTable table(arity);
        Rows want;
        std::vector<NodeId> row(arity);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = 0; c < arity; ++c) {
            const bool wide = spread == 0 || (spread == 2 && c % 2 == 0);
            row[c] = static_cast<NodeId>(wide ? rng.Next() : rng.Below(4));
          }
          if (r % 7 == 0) row[0] = 4294967295u;  // The largest id.
          table.Append(row.data());
          want.push_back(row);
        }
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        std::vector<size_t> identity(arity);
        for (size_t c = 0; c < arity; ++c) identity[c] = c;
        table = SortUniqueProjection(std::move(table), identity,
                                     ParallelOptions{1});
        ASSERT_EQ(Rows(table), want)
            << "arity " << arity << " rows " << n << " spread " << spread;
        ASSERT_EQ(table.size(), want.size());
        ASSERT_EQ(table.data().size(), want.size() * arity);
      }
    }
  }
}

/// `table`'s rows projected onto `cols`, by std::sort + std::unique.
Rows SortedProjection(const RowTable& table, const std::vector<size_t>& cols) {
  Rows want;
  for (size_t r = 0; r < table.size(); ++r) {
    std::vector<NodeId> row;
    for (size_t c : cols) row.push_back(table[r][c]);
    want.push_back(std::move(row));
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  return want;
}

TEST(RowTable, ParallelSortProjectionMatchesStdSortAtEveryThreadCount) {
  // Row counts on both sides of the grain and of the chunk edges: one
  // chunk below 2 * kParallelGrain, up to 8 chunks above.
  constexpr size_t g = RowTable::kParallelGrain;
  const size_t counts[] = {0,         1,         2,         300,
                           g - 1,     g,         2 * g - 1, 2 * g,
                           2 * g + 1, 3 * g + 7, 8 * g + 5};
  Rng rng(77);
  for (size_t n : counts) {
    // Four input columns: a 32-bit spread (4 digit passes), a range of
    // 70000 (more than one 16-bit pass), 2000 ids (one bucket pass once
    // the rows pay for it), and ids below 3 (duplicate rows).
    RowTable table(4);
    for (size_t r = 0; r < n; ++r) {
      const NodeId row[4] = {static_cast<NodeId>(rng.Next()),
                             static_cast<NodeId>(5 + rng.Below(70000)),
                             static_cast<NodeId>(rng.Below(2000)),
                             static_cast<NodeId>(rng.Below(3))};
      table.Append(row);
    }
    // Projections: identity, reordered, repeated, narrow with many
    // duplicates, and one of no columns.
    const std::vector<std::vector<size_t>> projections = {
        {0, 1, 2, 3}, {3, 2, 1}, {2, 2, 0}, {3, 2}, {3}, {}};
    for (const std::vector<size_t>& cols : projections) {
      const Rows want = SortedProjection(table, cols);
      for (size_t threads : {1, 2, 3, 4, 8}) {
        ParallelOptions parallel;
        parallel.num_threads = threads;
        const RowTable got = SortUniqueProjection(table, cols, parallel);
        ASSERT_EQ(got.arity(), cols.size());
        ASSERT_EQ(got.size(), want.size())
            << "rows " << n << " threads " << threads;
        ASSERT_EQ(Rows(got), want) << "rows " << n << " threads " << threads;
        ASSERT_EQ(got.data().size(), want.size() * cols.size());
      }
    }
  }
}

TEST(RowTable, SortProjectionOfConstantAndDuplicateRows) {
  constexpr size_t g = RowTable::kParallelGrain;
  for (size_t n : {size_t{1}, size_t{5}, 3 * g}) {
    // Column 0 constant, column 1 constant, column 2 in {0, 1}: at most
    // two distinct rows, every pass skipped but the last column's.
    RowTable table(3);
    for (size_t r = 0; r < n; ++r) {
      const NodeId row[3] = {7, 4294967295u, static_cast<NodeId>(r % 2)};
      table.Append(row);
    }
    for (const std::vector<size_t>& cols :
         std::vector<std::vector<size_t>>{{0, 1, 2}, {1, 0}, {2, 0}, {0}}) {
      const Rows want = SortedProjection(table, cols);
      for (size_t threads : {1, 4}) {
        ParallelOptions parallel;
        parallel.num_threads = threads;
        EXPECT_EQ(Rows(SortUniqueProjection(table, cols, parallel)), want)
            << "rows " << n << " threads " << threads;
      }
    }
  }
  // Zero-arity input rows: one row of no columns iff there are any.
  RowTable empty_rows(0);
  for (int i = 0; i < 3; ++i) empty_rows.NewRow();
  ParallelOptions parallel;
  parallel.num_threads = 4;
  const RowTable one = SortUniqueProjection(empty_rows, {}, parallel);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.arity(), 0u);
  EXPECT_EQ(SortUniqueProjection(RowTable(0), {}, parallel).size(), 0u);
}

/// An EdgeScan leaf for hand-built join plans.
LogicalOpPtr ScanOf(const std::string& src, const std::string& dst,
                    const std::string& label) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalKind::kEdgeScan;
  op->src_var = src;
  op->dst_var = dst;
  op->label = label;
  op->schema = {src, dst};
  if (src == dst) op->schema = {src};
  return op;
}

/// A HashJoin of two plans; schema = left ++ right-only columns.
LogicalOpPtr JoinOf(LogicalOpPtr left, LogicalOpPtr right) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalKind::kHashJoin;
  op->schema = left->schema;
  for (const std::string& var : right->schema) {
    if (!left->Produces(var)) op->schema.push_back(var);
  }
  op->children = {std::move(left), std::move(right)};
  return op;
}

/// The documented join output: the smaller side (the left on a tie)
/// builds; probe rows in order, each followed by its matching build
/// rows ascending (found through an ordered map of the build rows by
/// key). A cross product (no shared column) runs left rows outside,
/// right rows inside. `probe_hits` receives each probe row's match
/// count, in probe order.
Rows ReferenceJoin(const RowSet& left, const RowSet& right,
                   std::vector<uint64_t>* probe_hits = nullptr) {
  std::vector<std::pair<size_t, size_t>> keys;
  std::vector<size_t> extra;
  for (size_t j = 0; j < right.schema.size(); ++j) {
    auto it = std::find(left.schema.begin(), left.schema.end(),
                        right.schema[j]);
    if (it == left.schema.end()) {
      extra.push_back(j);
    } else {
      keys.emplace_back(it - left.schema.begin(), j);
    }
  }
  const Rows l = left.rows;
  const Rows r = right.rows;
  const bool build_left = !keys.empty() && l.size() <= r.size();
  const Rows& build = build_left ? l : r;
  const Rows& probe = build_left ? r : l;
  // The key of a build (or probe) row, as its left and right columns.
  auto key_of = [&](const std::vector<NodeId>& row, bool left_side) {
    std::vector<NodeId> key;
    for (const auto& [i, j] : keys) key.push_back(row[left_side ? i : j]);
    return key;
  };
  std::map<std::vector<NodeId>, std::vector<size_t>> by_key;
  for (size_t b = 0; b < build.size(); ++b) {
    by_key[key_of(build[b], build_left)].push_back(b);
  }
  Rows out;
  for (const auto& p : probe) {
    uint64_t hits = 0;
    const auto it = by_key.find(key_of(p, !build_left));
    if (it == by_key.end()) {
      if (probe_hits != nullptr) probe_hits->push_back(0);
      continue;
    }
    for (size_t b : it->second) {
      const auto& lrow = build_left ? build[b] : p;
      const auto& rrow = build_left ? p : build[b];
      ++hits;
      std::vector<NodeId> row = lrow;
      for (size_t j : extra) row.push_back(rrow[j]);
      out.push_back(std::move(row));
    }
    if (probe_hits != nullptr) probe_hits->push_back(hits);
  }
  return out;
}

/// Executes `join` (no Project: its raw output order) and its two
/// children on `view`, and checks it against ReferenceJoin.
void ExpectJoinMatchesReference(const GraphView& view, const LogicalOp& join,
                                size_t min_rows = 1) {
  const RowSet left = *ExecutePlan(view, *join.children[0]);
  const RowSet right = *ExecutePlan(view, *join.children[1]);
  Result<RowSet> got = ExecutePlan(view, join);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->schema, join.schema);
  EXPECT_EQ(got->rows.arity(), join.schema.size());
  const Rows want = ReferenceJoin(left, right);
  EXPECT_GE(want.size(), min_rows);
  EXPECT_EQ(Rows(got->rows), want) << ExplainPlan(join);
}

TEST(FlatJoin, CrossProductIsNestedLoopsInOrder) {
  LabeledGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(0, 1, "a").ok());
  ASSERT_TRUE(g.AddEdge(2, 3, "a").ok());
  ASSERT_TRUE(g.AddEdge(4, 5, "b").ok());
  ASSERT_TRUE(g.AddEdge(5, 4, "b").ok());
  ASSERT_TRUE(g.AddEdge(3, 3, "b").ok());
  LabeledGraphView view(g);
  LogicalOpPtr join = JoinOf(ScanOf("x", "y", "a"), ScanOf("u", "v", "b"));
  // Each scan emits its label partition source by source: the b rows
  // come as (3, 3), (4, 5), (5, 4).
  const Rows want = {{0, 1, 3, 3}, {0, 1, 4, 5}, {0, 1, 5, 4},
                     {2, 3, 3, 3}, {2, 3, 4, 5}, {2, 3, 5, 4}};
  EXPECT_EQ(Rows((*ExecutePlan(view, *join)).rows), want);
  ExpectJoinMatchesReference(view, *join);
}

TEST(FlatJoin, TwoColumnKeysWithASkewedFirstColumn) {
  // Almost every a- and b-edge leaves node 0, so one bucket of the
  // first key column holds nearly the whole build side and the second
  // key column decides.
  LabeledGraph g;
  for (int i = 0; i < 60; ++i) g.AddNode("n");
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const NodeId from = rng.Below(10) == 0 ? rng.Below(60) : 0;
    ASSERT_TRUE(g.AddEdge(from, rng.Below(60), i % 3 == 0 ? "b" : "a").ok());
  }
  LabeledGraphView view(g);
  // Random insertion order leaves the spans unsorted: a built join,
  // never a probe.
  ASSERT_FALSE(view.csr().label_spans_sorted());
  for (bool swap : {false, true}) {
    LogicalOpPtr a = ScanOf("x", "y", "a");
    LogicalOpPtr b = ScanOf("x", "y", "b");
    LogicalOpPtr join = swap ? JoinOf(b, a) : JoinOf(a, b);
    ExpectJoinMatchesReference(view, *join, 2);
  }
}

TEST(FlatJoin, BuildKeysAwayFromZeroAndEmptySides) {
  // The build side's keys lie in [1000, 1004]; the probe side's reach
  // below, inside and above that range.
  LabeledGraph g;
  for (int i = 0; i < 1100; ++i) g.AddNode("n");
  for (NodeId k = 1000; k < 1005; ++k) {
    ASSERT_TRUE(g.AddEdge(k, k + 50, "small").ok());
  }
  for (NodeId n = 0; n < 1100; n += 3) {
    ASSERT_TRUE(g.AddEdge(n % 7, n, "big").ok());
    ASSERT_TRUE(g.AddEdge((n + 1) % 5, n, "big").ok());
  }
  const LabeledGraphView view(g);
  for (bool swap : {false, true}) {
    LogicalOpPtr small = ScanOf("y", "z", "small");
    LogicalOpPtr big = ScanOf("x", "y", "big");
    ExpectJoinMatchesReference(
        view, swap ? *JoinOf(small, big) : *JoinOf(big, small), 1);
  }
  // Empty build side, empty probe side, both empty.
  LogicalOpPtr none = ScanOf("y", "w", "absent");
  LogicalOpPtr also_none = ScanOf("w", "y", "absent");
  for (const LogicalOpPtr& join :
       {JoinOf(ScanOf("x", "y", "big"), none),
        JoinOf(none, ScanOf("x", "y", "big")), JoinOf(none, also_none)}) {
    Result<RowSet> got = ExecutePlan(view, *join);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->rows.empty());
    EXPECT_EQ(got->rows.arity(), join->schema.size());
    ExpectJoinMatchesReference(view, *join, 0);
  }
}

// plan.join.probe_hits is tallied during the join and flushed once per
// distinct hit count; registry and trace must hold exactly what one
// record per probe row would.
TEST(FlatJoin, ProbeHitsFlushEqualsPerRowRecording) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::Registry::SetEnabled(true);
  obs::Registry::Get().Reset();
  LabeledGraph g;
  for (int i = 0; i < 80; ++i) g.AddNode("n");
  Rng rng(9);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(g.AddEdge(rng.Below(80), rng.Below(40),
                          i % 4 == 0 ? "b" : "a").ok());
  }
  LabeledGraphView view(g);
  LogicalOpPtr join = JoinOf(ScanOf("x", "y", "a"), ScanOf("y", "z", "b"));
  std::vector<uint64_t> hits;
  const Rows want = ReferenceJoin(*ExecutePlan(view, *join->children[0]),
                                  *ExecutePlan(view, *join->children[1]),
                                  &hits);
  ASSERT_GT(want.size(), 0u);
  obs::Registry::Get().Reset();

  obs::TraceContext trace;
  Result<RowSet> got = [&] {
    obs::ScopedTrace scope(&trace);
    return ExecutePlan(view, *join);
  }();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Rows(got->rows), want);

  obs::Histogram per_row;
  obs::TraceContext per_row_trace;
  for (uint64_t h : hits) {
    per_row.Record(h);
    per_row_trace.OnHistogram("plan.join.probe_hits", h, 1);
  }
  const obs::Histogram* flushed =
      obs::Registry::Get().FindHistogram("plan.join.probe_hits");
  ASSERT_NE(flushed, nullptr);
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(flushed->BucketCount(i), per_row.BucketCount(i)) << i;
  }
  EXPECT_EQ(flushed->Count(), hits.size());
  EXPECT_EQ(flushed->Count(), per_row.Count());
  EXPECT_EQ(flushed->Sum(), per_row.Sum());
  EXPECT_EQ(flushed->Min(), per_row.Min());
  EXPECT_EQ(flushed->Max(), per_row.Max());

  const auto* traced = trace.FindHistogram("plan.join.probe_hits");
  const auto* want_traced = per_row_trace.FindHistogram("plan.join.probe_hits");
  ASSERT_NE(traced, nullptr);
  ASSERT_NE(want_traced, nullptr);
  EXPECT_EQ(traced->count, want_traced->count);
  EXPECT_EQ(traced->sum, want_traced->sum);
  EXPECT_EQ(traced->min, want_traced->min);
  EXPECT_EQ(traced->max, want_traced->max);
}

TEST(FlatJoin, ChunkedProbeEqualsTheOneThreadOrderRowForRow) {
  // The b side (~6 * kParallelGrain edges) probes the smaller a side's
  // index across several chunks; a few hub targets of a take most b
  // sources, so some buckets are large and most probe rows find none.
  constexpr size_t n = 4000;
  LabeledGraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode("n");
  Rng rng(31);
  for (int i = 0; i < 6000; ++i) {
    const NodeId to = rng.Below(20) == 0 ? rng.Below(5) : rng.Below(n);
    ASSERT_TRUE(g.AddEdge(rng.Below(n), to, "a").ok());
  }
  for (size_t i = 0; i < 6 * RowTable::kParallelGrain; ++i) {
    const NodeId from = rng.Below(50) == 0 ? rng.Below(5) : rng.Below(n);
    ASSERT_TRUE(g.AddEdge(from, rng.Below(n), "b").ok());
  }
  LabeledGraphView view(g);
  ASSERT_FALSE(view.csr().label_spans_sorted());
  for (bool swap : {false, true}) {
    LogicalOpPtr a = ScanOf("x", "y", "a");
    LogicalOpPtr b = ScanOf("y", "z", "b");
    LogicalOpPtr join = swap ? JoinOf(b, a) : JoinOf(a, b);
    std::vector<uint64_t> hits;
    const Rows want = ReferenceJoin(*ExecutePlan(view, *join->children[0]),
                                    *ExecutePlan(view, *join->children[1]),
                                    &hits);
    ASSERT_GT(hits.size(), 4 * RowTable::kParallelGrain);
    ASSERT_GT(want.size(), hits.size());
    for (size_t threads : {1, 2, 3, 4, 8}) {
      ExecOptions options;
      options.parallel.num_threads = threads;
      obs::Registry::SetEnabled(true);
      obs::Registry::Get().Reset();
      Result<RowSet> got = ExecutePlan(view, *join, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(Rows(got->rows), want) << "threads " << threads;
      if (!obs::kCompiledIn) continue;
      // One probe_hits record per probe row, whatever the chunking.
      const obs::Histogram* flushed =
          obs::Registry::Get().FindHistogram("plan.join.probe_hits");
      ASSERT_NE(flushed, nullptr);
      EXPECT_EQ(flushed->Count(), hits.size());
      EXPECT_EQ(flushed->Sum(), want.size());
    }
  }
  // A cross product whose left side spans several chunks.
  LogicalOpPtr cross = JoinOf(ScanOf("x", "y", "b"), ScanOf("u", "u", "a"));
  const Rows want = ReferenceJoin(*ExecutePlan(view, *cross->children[0]),
                                  *ExecutePlan(view, *cross->children[1]));
  ExecOptions options;
  options.parallel.num_threads = 4;
  EXPECT_EQ(Rows((*ExecutePlan(view, *cross, options)).rows), want);
}

TEST(OrderedPipeline, ProjectOverAPathAtomEqualsTheSortedRelation) {
  Rng rng(12);
  LabeledGraph g = ErdosRenyi(300, 900, {"n"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  // Projections that are and are not an order prefix of the atom's
  // (x, y) rows, a LIMIT, and the diagonal.
  for (const char* text :
       {"q(x, y) :- (x) -[ (a + b)* ]-> (y)",
        "q(y, x) :- (x) -[ a/b* ]-> (y)", "q(x) :- (x) -[ a/(b + a) ]-> (y)",
        "q(y) :- (x) -[ a/(b + a) ]-> (y)",
        "q(x, y) :- (x) -[ a/b* ]-> (y) LIMIT 7",
        "q(x) :- (x) -[ (a/b)* / a ]-> (x)"}) {
    const Crpq q = *ParseCrpq(text);
    const LogicalOpPtr plan = *PlanQuery(
        *CompileCrpq(q), GraphStats::From(&view, &view.csr()));
    ASSERT_EQ(plan->kind, LogicalKind::kProject) << text;
    ASSERT_EQ(plan->children[0]->kind, LogicalKind::kPathAtom)
        << text << "\n" << ExplainPlan(*plan);
    const Rows want = Rows((*EvalCrpqReference(view, q)).rows);
    ASSERT_FALSE(want.empty()) << text;
    for (size_t threads : {1, 4}) {
      ExecOptions options;
      options.parallel.num_threads = threads;
      Result<RowSet> got = ExecutePlan(view, *plan, options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(Rows(got->rows), want) << text << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Front-end compilers

TEST(FrontEnds, CrpqParseToStringRoundTrips) {
  const char* text =
      "q(x, z) :- (x: person) -[ writes ]-> (y), (y) -[ cites* ]-> (z), "
      "(w: venue) LIMIT 5";
  Crpq q = *ParseCrpq(text);
  EXPECT_EQ(q.head, (std::vector<std::string>{"x", "z"}));
  EXPECT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.limit, 5u);
  EXPECT_EQ(q.node_tests.size(), 2u);  // x: person, w: venue.

  // Chains desugar: one conjunct with two hops = two atoms.
  Crpq chain = *ParseCrpq("p(a) :- (a) -[ r ]-> (b) -[ s ]-> (c)");
  EXPECT_EQ(chain.atoms.size(), 2u);
  EXPECT_EQ(chain.atoms[0].dst, chain.atoms[1].src);

  // ToString re-parses to the same structure.
  Crpq again = *ParseCrpq(q.ToString());
  EXPECT_EQ(again.head, q.head);
  EXPECT_EQ(again.atoms.size(), q.atoms.size());
  EXPECT_EQ(again.limit, q.limit);

  // Head variables must occur in the body.
  EXPECT_FALSE(ParseCrpq("q(nope) :- (x) -[ r ]-> (y)").ok());
}

TEST(FrontEnds, CompileMatchMapsChainsOntoAtoms) {
  MatchQuery mq = *ParseMatchQuery(
      "MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> (y) "
      "RETURN x, y LIMIT 3");
  ConjunctiveQuery cq = *CompileMatch(mq);
  ASSERT_EQ(cq.atoms.size(), 2u);
  EXPECT_EQ(cq.atoms[0].src, "x");
  EXPECT_EQ(cq.atoms[0].dst, "b");
  EXPECT_EQ(cq.atoms[1].src, "b");
  EXPECT_EQ(cq.atoms[1].dst, "y");
  EXPECT_EQ(cq.node_tests.size(), 2u);
  EXPECT_EQ(cq.projection, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(cq.limit, 3u);
}

TEST(FrontEnds, PlannedMatchEqualsReferenceOnFigure2) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  const char* text =
      "MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> "
      "(y: infected) RETURN x, y";
  MatchQuery mq = *ParseMatchQuery(text);
  QueryResult ref = *ExecuteMatch(view, mq);
  QueryResult planned = *ExecuteMatchPlanned(view, mq);
  EXPECT_EQ(planned.columns, ref.columns);
  EXPECT_EQ(planned.rows, ref.rows);
  // RunMatch now routes through the planner.
  QueryResult run = *RunMatch(view, text);
  EXPECT_EQ(run.rows, ref.rows);
}

TEST(FrontEnds, CompileBgpBindsConstantsAndRejectsVariablePredicates) {
  TripleStore store;
  store.Insert("juan", "rides", "bus1");
  store.Insert("pedro", "rides", "bus1");
  store.Insert("pedro", "type", "infected");
  RdfGraphView view(store);

  std::vector<TriplePattern> patterns = *ParseBgp("?x rides bus1");
  ConjunctiveQuery cq = *CompileBgp(patterns, view);
  ASSERT_EQ(cq.atoms.size(), 1u);
  EXPECT_EQ(cq.projection, (std::vector<std::string>{"x"}));
  ASSERT_EQ(cq.bound.size(), 1u);  // The constant object.
  EXPECT_EQ(cq.bound.begin()->second, view.NodeOf("bus1"));

  // Variable predicates are Unsupported (EvalBgpPlanned falls back).
  std::vector<TriplePattern> varp = *ParseBgp("?x ?p ?y");
  Result<ConjunctiveQuery> r = CompileBgp(varp, view);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  std::vector<Binding> fallback = *EvalBgpPlanned(store, varp);
  EXPECT_EQ(fallback, *EvalBgp(store, varp));
}

TEST(FrontEnds, PlannedBgpEqualsReferenceIncludingAskQueries) {
  TripleStore store;
  store.Insert("juan", "rides", "bus1");
  store.Insert("pedro", "rides", "bus1");
  store.Insert("rosa", "rides", "bus2");
  store.Insert("pedro", "type", "infected");

  // Join with a property path atom.
  std::vector<TriplePattern> patterns =
      *ParseBgp("?x (rides/rides^-) ?y . ?y type infected");
  EXPECT_EQ(*EvalBgpPlanned(store, patterns), *EvalBgp(store, patterns));

  // All-constant ("ask") patterns: one empty binding iff they hold.
  std::vector<TriplePattern> yes = *ParseBgp("juan rides bus1");
  EXPECT_EQ(*EvalBgpPlanned(store, yes), *EvalBgp(store, yes));
  EXPECT_EQ((*EvalBgpPlanned(store, yes)).size(), 1u);
  std::vector<TriplePattern> no = *ParseBgp("juan rides bus2");
  EXPECT_EQ(*EvalBgpPlanned(store, no), *EvalBgp(store, no));
  EXPECT_TRUE((*EvalBgpPlanned(store, no)).empty());
  // Constants the store has never seen.
  std::vector<TriplePattern> ghost = *ParseBgp("?x rides bus9");
  EXPECT_EQ(*EvalBgpPlanned(store, ghost), *EvalBgp(store, ghost));
}

TEST(FrontEnds, DblpGraphHasTheDocumentedShape) {
  DblpGraphOptions opts;
  opts.num_papers = 200;
  opts.num_authors = 50;
  opts.num_venues = 5;
  Rng rng(opts.seed);
  LabeledGraph g = BuildDblpGraph(opts, &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  // Every paper has exactly one venue edge.
  EXPECT_EQ(snap.LabelFrequency("in"), opts.num_papers);
  // writes ≥ papers (at least one author each); about = papers.
  EXPECT_GE(snap.LabelFrequency("writes"), opts.num_papers);
  EXPECT_EQ(snap.LabelFrequency("about"), opts.num_papers);
  // The keyword skew the planner exploits.
  Crpq q = *ParseCrpq(
      "q(p) :- (p: paper) -[ about ]-> (k: knowledge_graph)");
  Crpq rare = *ParseCrpq(
      "q(p) :- (p: paper) -[ about ]-> (k: property_graph)");
  EXPECT_GT((*EvalCrpq(view, q)).rows.size(),
            (*EvalCrpq(view, rare)).rows.size());
}

// kAuto decides a regular atom's engine when it runs, from the reach of
// a sample of its sources: the matrix engine for a dense closure, the
// BFS engine for a sparse composition. EXPLAIN names no engine for such
// an atom; the profile names the one that ran. Every mode returns the
// same rows at 1 and 4 threads. (The closure runs on the diagonal so
// the test does not materialize its 3.8M pairs as rows; the engines
// still evaluate the whole relation.)
TEST(MatrixRpqRule, AutoChoosesTheEngineFromObservedDensity) {
  obs::Registry::SetEnabled(true);
  Rng rng(20260807);
  LabeledGraph er = ErdosRenyi(2000, 8000, {"p", "q"}, {"a", "b"}, &rng);
  DblpGraphOptions dblp_opts;
  dblp_opts.num_papers = 1000;
  dblp_opts.num_authors = 300;
  dblp_opts.num_venues = 10;
  Rng dblp_rng(dblp_opts.seed);
  LabeledGraph dblp = BuildDblpGraph(dblp_opts, &dblp_rng);
  struct Case {
    const LabeledGraph* graph;
    const char* text;
    const char* auto_engine;
  };
  const Case cases[] = {
      {&er, "q(x) :- (x) -[ (a+b)* ]-> (x)", "matrix"},
      {&dblp, "q(a1, a2) :- (a1) -[ writes / writes^- ]-> (a2)", "nfa"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    LabeledGraphView view(*c.graph);
    Crpq q = *ParseCrpq(c.text);
    GraphStats stats = GraphStats::From(&view, &view.csr());
    Result<LogicalOpPtr> plan = PlanQuery(*CompileCrpq(q), stats);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(ExplainPlan(**plan).find("engine="), std::string::npos)
        << ExplainPlan(**plan);

    std::optional<RowTable> want;
    for (size_t threads : {1, 4}) {
      for (MatrixRpqMode mode : {MatrixRpqMode::kAuto, MatrixRpqMode::kOff,
                                 MatrixRpqMode::kAlways}) {
        CrpqOptions opts;
        opts.parallel.num_threads = threads;
        opts.planner.matrix_rpq = mode;
        obs::TraceContext trace;
        Result<RowSet> got = [&] {
          obs::ScopedTrace scope(&trace);
          return EvalCrpq(view, q, opts);
        }();
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_FALSE(got->rows.empty());
        if (!want.has_value()) want = got->rows;
        ASSERT_EQ(got->rows, *want) << "threads " << threads;
        if (!obs::kCompiledIn) continue;
        std::shared_ptr<const obs::ProfileNode> profile = trace.TakeProfile();
        ASSERT_NE(profile, nullptr);
        const obs::ProfileNode* atom = FindProfiled(*profile, "PathAtom");
        ASSERT_NE(atom, nullptr);
        const char* expected = mode == MatrixRpqMode::kAuto ? c.auto_engine
                               : mode == MatrixRpqMode::kOff ? "nfa"
                                                             : "matrix";
        EXPECT_EQ(atom->engine, expected) << "threads " << threads;
        if (mode == MatrixRpqMode::kAuto) {
          EXPECT_GT(trace.CounterValue("pathalg.auto.sampled_sources"), 0u);
          EXPECT_EQ(trace.CounterValue("pathalg.auto.matrix"),
                    std::string(c.auto_engine) == "matrix" ? 1u : 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace kgq
