// Randomized differential testing: generate random regexes and random
// graphs (Erdős–Rényi and Barabási–Albert), then require that four
// engines agree — the paper-literal reference evaluator (EvalReference),
// the Glushkov product, the Thompson product, and the boolean-matrix
// fixpoint (pathalg/matrix_rpq) — path-for-path for the bounded engines
// and row-for-row for the pair evaluators, at 1 and 4 threads, and that
// the exact counter and enumerator agree with all of them.

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "pathalg/matrix_rpq.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "rpq/reference_eval.h"

namespace kgq {
namespace {

/// Random regex over labels {a, b} and node labels {p, q}, bounded size.
RegexPtr RandomRegex(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.35)) {
    // Atom.
    switch (rng->Below(6)) {
      case 0:
        return Regex::EdgeLabel(rng->Bernoulli(0.5) ? "a" : "b");
      case 1:
        return Regex::EdgeLabelBwd(rng->Bernoulli(0.5) ? "a" : "b");
      case 2:
        return Regex::NodeLabel(rng->Bernoulli(0.5) ? "p" : "q");
      case 3:
        return Regex::EdgeFwd(TestExpr::Or(TestExpr::Label("a"),
                                           TestExpr::Label("b")));
      case 4:
        return Regex::EdgeFwd(TestExpr::Not(TestExpr::Label("a")));
      default:
        return Regex::NodeTest(TestExpr::True());
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return Regex::Union(RandomRegex(rng, depth - 1),
                          RandomRegex(rng, depth - 1));
    case 1:
      return Regex::Concat(RandomRegex(rng, depth - 1),
                           RandomRegex(rng, depth - 1));
    default:
      return Regex::Star(RandomRegex(rng, depth - 1));
  }
}

class RegexFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RegexFuzz, AllEnginesAgree) {
  Rng rng(1000 + GetParam());
  // Alternate topologies across seeds: uniform ER and heavy-tailed BA.
  LabeledGraph g = GetParam() % 2 == 0
                       ? ErdosRenyi(8, 18, {"p", "q"}, {"a", "b"}, &rng)
                       : BarabasiAlbert(9, 2, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  const size_t max_len = 4;

  for (int round = 0; round < 6; ++round) {
    RegexPtr regex = RandomRegex(&rng, 3);
    SCOPED_TRACE(regex->ToString());

    // The textual form must round-trip through the parser.
    Result<RegexPtr> reparsed = ParseRegex(regex->ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ((*reparsed)->ToString(), regex->ToString());

    std::set<Path> reference;
    for (Path& p : EvalReference(view, *regex, max_len)) {
      reference.insert(std::move(p));
    }

    Result<PathNfa> glushkov =
        PathNfa::Compile(view, *regex, PathNfa::Construction::kGlushkov);
    Result<PathNfa> thompson =
        PathNfa::Compile(view, *regex, PathNfa::Construction::kThompson);
    ASSERT_TRUE(glushkov.ok());
    ASSERT_TRUE(thompson.ok());

    for (size_t k = 0; k <= max_len; ++k) {
      std::set<Path> at_k;
      for (const Path& p : reference) {
        if (p.Length() == k) at_k.insert(p);
      }
      // Enumeration on both constructions.
      for (PathNfa* nfa : {&*glushkov, &*thompson}) {
        PathEnumerator enumerator(*nfa, k);
        std::set<Path> got;
        Path p;
        while (enumerator.Next(&p)) {
          ASSERT_TRUE(got.insert(p).second) << "duplicate " << p.ToString();
        }
        ASSERT_EQ(got, at_k) << "k=" << k;
        // Counter agreement.
        ExactPathIndex index(*nfa, k);
        ASSERT_EQ(index.Count(k), static_cast<double>(at_k.size()))
            << "k=" << k;
      }
    }

    // Pair (existential) semantics under the parallel multi-source
    // evaluator: the two constructions must agree row-for-row, and the
    // parallel schedule must not change any row.
    PathQueryOptions seq_opts;
    seq_opts.parallel.num_threads = 1;
    PathQueryOptions par_opts;
    par_opts.parallel.num_threads = 4;
    std::vector<Bitset> glushkov_seq = AllPairs(*glushkov, seq_opts);
    std::vector<Bitset> glushkov_par = AllPairs(*glushkov, par_opts);
    std::vector<Bitset> thompson_seq = AllPairs(*thompson, seq_opts);
    std::vector<Bitset> thompson_par = AllPairs(*thompson, par_opts);
    ASSERT_EQ(glushkov_seq, glushkov_par) << "parallel changed pairs";
    ASSERT_EQ(thompson_seq, thompson_par) << "parallel changed pairs";
    ASSERT_EQ(glushkov_par, thompson_par)
        << "Glushkov vs Thompson disagree under the parallel evaluator";
    // Fourth engine: the boolean-matrix fixpoint, both through the
    // engine knob (AllPairs dispatch) and the direct entry point, at
    // both thread counts — bit-identical rows to the BFS engines.
    PathQueryOptions mat_seq = seq_opts;
    mat_seq.engine = PathEngine::kMatrix;
    PathQueryOptions mat_par = par_opts;
    mat_par.engine = PathEngine::kMatrix;
    ASSERT_EQ(AllPairs(*glushkov, mat_seq), glushkov_seq)
        << "matrix vs BFS disagree under the sequential evaluator";
    ASSERT_EQ(AllPairs(*thompson, mat_par), glushkov_par)
        << "matrix vs BFS disagree under the parallel evaluator";
    ASSERT_EQ(MatrixAllPairs(*glushkov, mat_par), glushkov_par)
        << "MatrixAllPairs disagrees with the BFS engines";
    // Every reference path witnesses its (start, end) pair in the
    // unbounded pair relation.
    for (const Path& p : reference) {
      EXPECT_TRUE(glushkov_par[p.nodes.front()].Test(p.nodes.back()))
          << p.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexFuzz, ::testing::Range(0, 32));

}  // namespace
}  // namespace kgq
