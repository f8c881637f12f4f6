// CFPQ differential gate: the semi-naive matrix fixpoint
// (pathalg/cfpq_matrix.h) against the naive CYK-style reference
// (rpq/cfpq_reference.h) on 32 seeds of ER and BA random graphs, at 1
// and 4 threads — results must be bit-identical (canonical sorted CSR).
// A second battery runs mixed regular + context-free CRPQs through the
// full planner (matrix engine forced and off, labeled and property
// views of the graph) against EvalCrpqReference.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/conversions.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/cfpq_matrix.h"
#include "rpq/cfpq_reference.h"
#include "rpq/crpq.h"
#include "rpq/path_expr.h"
#include "util/rng.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

CnfGrammarPtr MustGrammar(const std::string& text) {
  TextScanner scan(text);
  EXPECT_TRUE(scan.AcceptKeyword("GRAMMAR")) << text;
  Result<CfGrammar> surface = ParseGrammarBlock(&scan);
  EXPECT_TRUE(surface.ok()) << surface.status();
  Result<CnfGrammarPtr> g = CnfGrammar::Normalize(*surface);
  EXPECT_TRUE(g.ok()) << g.status();
  return *g;
}

/// Grammar shapes covering the normalized production kinds: recursion
/// through binary productions (same-generation, Dyck), unit productions,
/// epsilon (nullable), long RHS chains (binarization helpers), and
/// backward terminals. All over the {a, b} edge alphabet the random
/// graphs use.
const char* kGrammars[] = {
    "grammar SG { SG -> a^- SG a | a^- a }",
    "grammar D { D -> a D b | a b }",
    "grammar T { T -> a T | b | eps }",
    "grammar U { U -> V ; V -> a V b | U U | eps }",
    "grammar C { C -> a b^- a C | a }",
};

BoolCsr ToCsr(const std::vector<Bitset>& rel) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (size_t a = 0; a < rel.size(); ++a) {
    rel[a].ForEach([&](size_t b) {
      entries.emplace_back(static_cast<uint32_t>(a),
                           static_cast<uint32_t>(b));
    });
  }
  return BoolCsr::FromEntries(rel.size(), rel.size(), std::move(entries));
}

class CfpqDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CfpqDifferential, MatrixMatchesCykReference) {
  const int seed = GetParam();
  Rng rng(11000 + seed);
  LabeledGraph g =
      (seed % 2 == 0)
          ? ErdosRenyi(10 + rng.Below(8), 25 + rng.Below(25), {"p", "q"},
                       {"a", "b"}, &rng)
          : BarabasiAlbert(12 + rng.Below(8), 2, {"p", "q"}, {"a", "b"},
                           &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  for (const char* text : kGrammars) {
    SCOPED_TRACE(text);
    CnfGrammarPtr grammar = MustGrammar(text);
    ASSERT_NE(grammar, nullptr);
    // Every surface nonterminal, not just the start — `G.Nt` atoms make
    // all of them reachable from queries.
    for (uint32_t nt = 0; nt < grammar->num_surface_nonterminals(); ++nt) {
      SCOPED_TRACE("nt=" + grammar->NonterminalName(nt));
      Result<std::vector<Bitset>> ref =
          CfpqReferenceRelation(view, *grammar, nt);
      ASSERT_TRUE(ref.ok()) << ref.status();
      const BoolCsr expect = ToCsr(*ref);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ParallelOptions par;
        par.num_threads = threads;
        Result<BoolCsr> got = CfpqSolveMatrix(snap, *grammar, nt, par);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(*got == expect) << "threads=" << threads;
      }
    }
  }
}

TEST_P(CfpqDifferential, MixedCrpqPlannedMatchesReference) {
  const int seed = GetParam();
  Rng rng(12000 + seed);
  LabeledGraph g =
      (seed % 2 == 0)
          ? ErdosRenyi(10 + rng.Below(6), 25 + rng.Below(20), {"p", "q"},
                       {"a", "b"}, &rng)
          : BarabasiAlbert(11 + rng.Below(6), 2, {"p", "q"}, {"a", "b"},
                           &rng);
  LabeledGraphView view(g);
  const PropertyGraph pg = LabeledToProperty(g);
  const PropertyGraphView property_view(pg);
  const GraphView* const views[] = {&view, &property_view};

  // Mixed-atom query shapes: context-free atoms joined with regex atoms
  // over shared variables, endpoint tests, diagonal atoms, non-start
  // nonterminals, and a limit.
  const std::vector<std::string> queries = {
      "grammar SG { SG -> a^- SG a | a^- a } "
      "q(x, y) :- (x) -[ SG ]-> (y), (y) -[ b ]-> (x)",
      "grammar D { D -> a D b | a b } "
      "q(x, z) :- (x: p) -[ D ]-> (y), (y) -[ (a + b)* ]-> (z: q)",
      "grammar T { T -> a T | b | eps } "
      "q(x) :- (x) -[ T ]-> (x)",
      "grammar U { U -> V ; V -> a V b | U U | eps } "
      "q(x, y) :- (x) -[ U.V ]-> (y), (x) -[ b ]-> (y) LIMIT 7",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    Result<Crpq> q = ParseCrpq(text);
    ASSERT_TRUE(q.ok()) << q.status();
    Result<RowSet> ref = EvalCrpqReference(view, *q);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const GraphView* on : views) {
        for (MatrixRpqMode matrix :
             {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
          CrpqOptions opts;
          opts.parallel.num_threads = threads;
          opts.planner.matrix_rpq = matrix;
          Result<RowSet> got = EvalCrpq(*on, *q, opts);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_EQ(got->schema, ref->schema);
          ASSERT_EQ(got->rows, ref->rows)
              << "threads=" << threads
              << " property=" << (on == &property_view)
              << " matrix=" << (matrix == MatrixRpqMode::kAlways);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfpqDifferential, ::testing::Range(0, 32));

}  // namespace
}  // namespace kgq
