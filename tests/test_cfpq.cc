// Context-free path queries: grammar parsing + canonical rendering,
// CNF normalization tables, front-end error paths, exactness of both
// CFPQ engines on hand-checkable graphs (same-generation, Dyck), the
// planner's engine annotation, and mixing context-free atoms with
// regular ones in one conjunctive query.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/labeled_graph.h"
#include "pathalg/cfpq_matrix.h"
#include "plan/exec.h"
#include "plan/ir.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rpq/cfpq_reference.h"
#include "rpq/crpq.h"
#include "rpq/path_expr.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

CnfGrammarPtr MustNormalize(const std::string& text) {
  TextScanner scan(text);
  EXPECT_TRUE(scan.AcceptKeyword("GRAMMAR"));
  Result<CfGrammar> surface = ParseGrammarBlock(&scan);
  EXPECT_TRUE(surface.ok()) << surface.status();
  Result<CnfGrammarPtr> g = CnfGrammar::Normalize(*surface);
  EXPECT_TRUE(g.ok()) << g.status();
  return *g;
}

/// Pair set of `nt` under both engines, asserting they agree.
std::set<std::pair<NodeId, NodeId>> Relation(const LabeledGraph& g,
                                             const CnfGrammar& grammar,
                                             uint32_t nt) {
  LabeledGraphView view(g);
  Result<std::vector<Bitset>> ref = CfpqReferenceRelation(view, grammar, nt);
  EXPECT_TRUE(ref.ok()) << ref.status();
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  Result<BoolCsr> mat = CfpqSolveMatrix(snap, grammar, nt);
  EXPECT_TRUE(mat.ok()) << mat.status();
  std::set<std::pair<NodeId, NodeId>> out;
  for (NodeId a = 0; a < ref->size(); ++a) {
    (*ref)[a].ForEach([&](size_t b) {
      out.emplace(a, static_cast<NodeId>(b));
    });
  }
  std::set<std::pair<NodeId, NodeId>> from_matrix;
  for (size_t a = 0; a < mat->num_rows; ++a) {
    for (size_t k = mat->offsets[a]; k < mat->offsets[a + 1]; ++k) {
      from_matrix.emplace(static_cast<NodeId>(a), mat->cols[k]);
    }
  }
  EXPECT_EQ(out, from_matrix);
  return out;
}

// ------------------------------------------------------- grammar surface

TEST(CfpqGrammarTest, ParseAndCanonicalRender) {
  const std::string text =
      "grammar SG { SG -> up SG up^- | up up^- } q(x, y) :- "
      "(x) -[ SG ]-> (y)";
  Result<Crpq> q = ParseCrpq(text);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->grammars.size(), 1u);
  EXPECT_EQ(q->grammars[0]->name(), "SG");
  const std::string canon = q->ToString();
  EXPECT_NE(canon.find("grammar SG { SG -> up SG up^- | up up^- }"),
            std::string::npos);
  EXPECT_NE(canon.find("-[ SG ]->"), std::string::npos);
  // Canonical text reparses to the same canonical text (the cache-key
  // round trip the serve layer relies on).
  Result<Crpq> again = ParseCrpq(canon);
  ASSERT_TRUE(again.ok()) << canon << ": " << again.status();
  EXPECT_EQ(again->ToString(), canon);
}

TEST(CfpqGrammarTest, NormalizeTables) {
  CnfGrammarPtr g =
      MustNormalize("grammar SG { SG -> up SG up^- | up up^- }");
  EXPECT_EQ(g->start(), g->FindNonterminal("SG"));
  EXPECT_EQ(g->num_surface_nonterminals(), 1u);
  // up SG up^- binarizes with one helper; terminals in binary positions
  // become preterminals (_t_up, _t_up_bwd).
  EXPECT_FALSE(g->nullable(g->start()));
  EXPECT_EQ(g->term_prods().size(), 2u);  // _t_up -> up, _t_up_bwd -> up^-
  EXPECT_EQ(g->bin_prods().size(), 3u);
  EXPECT_TRUE(g->unit_prods().empty());
}

TEST(CfpqGrammarTest, EpsAndUnitProductions) {
  CnfGrammarPtr g = MustNormalize("grammar G { G -> H ; H -> a | eps }");
  EXPECT_FALSE(g->nullable(*g->FindNonterminal("G")));
  EXPECT_TRUE(g->nullable(*g->FindNonterminal("H")));
  ASSERT_EQ(g->unit_prods().size(), 1u);
  ASSERT_EQ(g->term_prods().size(), 1u);
  EXPECT_EQ(g->term_prods()[0].label, "a");
  // Synthesized helpers are not addressable from queries.
  EXPECT_FALSE(g->FindNonterminal("_t_a").has_value());
}

TEST(CfpqGrammarTest, MalformedGrammarsAreParseErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"grammar G { } q(x) :- (x) -[ a ]-> (y)", "no productions"},
      {"grammar G { X -> a } q(x) :- (x) -[ G ]-> (y)",
       "has no production"},
      {"grammar G { G -> a eps } q(x) :- (x) -[ G ]-> (y)",
       "eps must be an entire alternative"},
      {"grammar G { G -> a | } q(x) :- (x) -[ G ]-> (y)",
       "empty alternative"},
      {"grammar G { G -> G^- a } q(x) :- (x) -[ G ]-> (y)",
       "cannot invert nonterminal"},
      {"grammar G { G -> a } grammar G { G -> b } q(x) :- "
       "(x) -[ G ]-> (y)",
       "duplicate grammar"},
      {"q(x) :- (x) -[ H.X ]-> (y)", "unknown grammar"},
      {"grammar G { G -> a } q(x) :- (x) -[ G.Zzz ]-> (y)",
       "unknown nonterminal"},
  };
  for (const auto& [text, needle] : cases) {
    Result<Crpq> q = ParseCrpq(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(q.status().message().find(needle), std::string::npos)
        << text << " -> " << q.status().message();
  }
}

TEST(CfpqGrammarTest, GrammarNameShadowsEdgeLabel) {
  // A grammar named like an edge label wins in atom position; the plain
  // label stays reachable from any other regex shape.
  Result<Crpq> q = ParseCrpq(
      "grammar up { up -> up_edge up } q(x, y) :- (x) -[ up ]-> (y)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->atoms.size(), 1u);
  EXPECT_EQ(q->atoms[0].path->kind(), PathExpr::Kind::kContextFree);
}

// ------------------------------------------------------------- semantics

/// Two-level binary tree with child→parent `up` edges:
///        0
///      1   2
///    3 4   5 6
LabeledGraph UpTree() {
  LabeledGraph g;
  for (int i = 0; i < 7; ++i) g.AddNode("n");
  auto up = [&](NodeId c, NodeId p) { ASSERT_TRUE(g.AddEdge(c, p, "up").ok()); };
  up(1, 0);
  up(2, 0);
  up(3, 1);
  up(4, 1);
  up(5, 2);
  up(6, 2);
  return g;
}

TEST(CfpqSemanticsTest, SameGenerationOnTree) {
  LabeledGraph g = UpTree();
  CnfGrammarPtr sg =
      MustNormalize("grammar SG { SG -> up SG up^- | up up^- }");
  std::set<std::pair<NodeId, NodeId>> rel = Relation(g, *sg, sg->start());

  // Same-generation = all pairs at equal depth (> 0): {1,2}² and
  // {3,4,5,6}², including the diagonal (u relates to itself through its
  // parent) — 4 + 16 pairs. Cross-subtree pairs like (3, 5) need the
  // recursive production; no RPQ over {up, up^-} can pin the equal
  // up/down counts.
  std::set<std::pair<NodeId, NodeId>> expect;
  for (NodeId a : {1, 2}) {
    for (NodeId b : {1, 2}) expect.emplace(a, b);
  }
  for (NodeId a : {3, 4, 5, 6}) {
    for (NodeId b : {3, 4, 5, 6}) expect.emplace(a, b);
  }
  EXPECT_EQ(rel, expect);
}

TEST(CfpqSemanticsTest, DyckPairsOnChain) {
  // 0 -a-> 1 -a-> 2 -a-> 3 -b-> 4 -b-> 5 -b-> 6: D -> a D b | a b
  // matches exactly the balanced spans; the regular over-approximation
  // a+ b+ also accepts unbalanced ones like (0, 4).
  LabeledGraph g;
  for (int i = 0; i < 7; ++i) g.AddNode("n");
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1, "a").ok());
  }
  for (NodeId i = 3; i < 6; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1, "b").ok());
  }
  CnfGrammarPtr d = MustNormalize("grammar D { D -> a D b | a b }");
  std::set<std::pair<NodeId, NodeId>> rel = Relation(g, *d, d->start());
  std::set<std::pair<NodeId, NodeId>> expect = {{2, 4}, {1, 5}, {0, 6}};
  EXPECT_EQ(rel, expect);
}

TEST(CfpqSemanticsTest, EpsilonYieldsDiagonal) {
  LabeledGraph g = UpTree();
  CnfGrammarPtr e = MustNormalize("grammar E { E -> up E | eps }");
  std::set<std::pair<NodeId, NodeId>> rel = Relation(g, *e, e->start());
  // up* as a grammar: reflexive ancestor relation.
  for (NodeId u = 0; u < 7; ++u) {
    EXPECT_TRUE(rel.count({u, u})) << u;
  }
  EXPECT_TRUE(rel.count({3, 1}));
  EXPECT_TRUE(rel.count({3, 0}));
  EXPECT_FALSE(rel.count({1, 3}));
}

TEST(CfpqSemanticsTest, NonStartNonterminalAddressable) {
  LabeledGraph g = UpTree();
  Result<Crpq> q = ParseCrpq(
      "grammar G { G -> A A ; A -> up } q(x, y) :- (x) -[ G.A ]-> (y)");
  ASSERT_TRUE(q.ok()) << q.status();
  LabeledGraphView view(g);
  Result<RowSet> rows = EvalCrpqReference(view, *q);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 6u);  // A = one up edge.
}

// ----------------------------------------------------- planner + executor

TEST(CfpqPlanTest, ExplainShowsCfpqMatrixEngine) {
  Result<Crpq> q = ParseCrpq(
      "grammar SG { SG -> up SG up^- | up up^- } q(x, y) :- "
      "(x) -[ SG ]-> (y)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<ConjunctiveQuery> cq = CompileCrpq(*q);
  ASSERT_TRUE(cq.ok());
  GraphStats stats;
  PlannerOptions popts;
  popts.matrix_rpq = MatrixRpqMode::kAlways;
  Result<LogicalOpPtr> plan = PlanQuery(*cq, stats, popts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string explain = ExplainPlan(**plan);
  EXPECT_NE(explain.find("engine=cfpq-matrix"), std::string::npos)
      << explain;
  popts.matrix_rpq = MatrixRpqMode::kOff;
  plan = PlanQuery(*cq, stats, popts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(ExplainPlan(**plan).find("engine="), std::string::npos);
}

TEST(CfpqPlanTest, MixedAtomsPlannedMatchesReference) {
  LabeledGraph g = UpTree();
  LabeledGraphView view(g);
  Result<Crpq> q = ParseCrpq(
      "grammar SG { SG -> up SG up^- | up up^- } "
      "q(x, y) :- (x) -[ SG ]-> (y), (y) -[ up ]-> (z)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<RowSet> ref = EvalCrpqReference(view, *q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (MatrixRpqMode mode :
       {MatrixRpqMode::kOff, MatrixRpqMode::kAuto, MatrixRpqMode::kAlways}) {
    CrpqOptions opts;
    opts.planner.matrix_rpq = mode;
    Result<RowSet> got = EvalCrpq(view, *q, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->rows, ref->rows) << "mode=" << static_cast<int>(mode);
  }
}

TEST(CfpqPlanTest, MatchFrontEndRunsContextFreeHops) {
  LabeledGraph g = UpTree();
  LabeledGraphView view(g);
  Result<MatchQuery> mq = ParseMatchQuery(
      "grammar SG { SG -> up SG up^- | up up^- } "
      "MATCH (x) -[ SG ]-> (y) RETURN x, y");
  ASSERT_TRUE(mq.ok()) << mq.status();
  EXPECT_EQ(mq->ToString(),
            "grammar SG { SG -> up SG up^- | up up^- } MATCH (x) -[ SG "
            "]-> (y) RETURN x, y");
  Result<QueryResult> ref = ExecuteMatch(view, *mq);
  ASSERT_TRUE(ref.ok()) << ref.status();
  Result<QueryResult> planned = ExecuteMatchPlanned(view, *mq);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(planned->rows, ref->rows);
  EXPECT_EQ(ref->rows.size(), 20u);  // 4 + 16 same-generation pairs.
}

TEST(CfpqPlanTest, EstimateCfpqPairsIsClampedAndOrdered) {
  LabeledGraph g = UpTree();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);
  CnfGrammarPtr one = MustNormalize("grammar G { G -> up }");
  EXPECT_DOUBLE_EQ(stats.EstimateCfpqPairs(*one, one->start()), 6.0);
  CnfGrammarPtr sg =
      MustNormalize("grammar SG { SG -> up SG up^- | up up^- }");
  double est = stats.EstimateCfpqPairs(*sg, sg->start());
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 49.0);  // n² cap.
}

}  // namespace
}  // namespace kgq
