// Pinned goldens for the boolean-semiring SpGEMM/SpMV kernel
// (hand-computed 4×4 products, complement masking, empty / identity /
// self-loop matrices), fixpoint termination on cyclic graphs, parity of
// the snapshot label extraction with FromLabeledEdges, and bit-identity
// of the matrix RPQ engine against the configuration-BFS engine —
// including the ReachTable layer construction and every PathQueryOptions
// restriction.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "graph/labeled_graph.h"
#include "graph/multigraph.h"
#include "pathalg/matrix_rpq.h"
#include "pathalg/pairs.h"
#include "pathalg/reach.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

BoolCsr Make4x4(std::vector<std::pair<uint32_t, uint32_t>> es) {
  return BoolCsr::FromEntries(4, 4, std::move(es));
}

// ------------------------------------------------------------- BoolCsr

TEST(BoolCsrTest, FromEntriesSortsAndDeduplicates) {
  BoolCsr m = Make4x4({{2, 3}, {0, 1}, {0, 1}, {2, 0}, {0, 0}});
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.offsets, (std::vector<size_t>{0, 2, 2, 4, 4}));
  EXPECT_EQ(m.cols, (std::vector<uint32_t>{0, 1, 0, 3}));
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_TRUE(m.Test(0, 1));
  EXPECT_FALSE(m.Test(0, 2));
  EXPECT_FALSE(m.Test(1, 0));
  EXPECT_TRUE(m.Test(2, 3));
}

TEST(BoolCsrTest, IdentityIsDiagonal) {
  BoolCsr i = BoolCsr::Identity(3);
  EXPECT_EQ(i.nnz(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(i.Test(r, c), r == c);
    }
  }
}

// ----------------------------------------------------------- BoolSpGemm

// The hand-computed golden pair used throughout:
//   A = {0→{1,2}, 1→{3}, 2→∅, 3→{0,3}}
//   B = {0→{1}, 1→{0,2}, 2→{3}, 3→{1,3}}
//   A·B = {0→{0,2,3}, 1→{1,3}, 2→∅, 3→{1,3}}
BoolCsr GoldenA() { return Make4x4({{0, 1}, {0, 2}, {1, 3}, {3, 0}, {3, 3}}); }
BoolCsr GoldenB() { return Make4x4({{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 1}, {3, 3}}); }

TEST(BoolSpGemmTest, HandComputedProduct) {
  BoolCsr c = BoolSpGemm(GoldenA(), GoldenB());
  BoolCsr want =
      Make4x4({{0, 0}, {0, 2}, {0, 3}, {1, 1}, {1, 3}, {3, 1}, {3, 3}});
  EXPECT_EQ(c, want);
}

TEST(BoolSpGemmTest, IdentityIsNeutral) {
  BoolCsr a = GoldenA();
  BoolCsr i = BoolCsr::Identity(4);
  EXPECT_EQ(BoolSpGemm(a, i), a);
  EXPECT_EQ(BoolSpGemm(i, a), a);
}

TEST(BoolSpGemmTest, EmptyOperandGivesEmptyProduct) {
  BoolCsr a = GoldenA();
  BoolCsr empty = Make4x4({});
  BoolCsr ae = BoolSpGemm(a, empty);
  BoolCsr ea = BoolSpGemm(empty, a);
  EXPECT_EQ(ae.nnz(), 0u);
  EXPECT_EQ(ea.nnz(), 0u);
  EXPECT_EQ(ae.num_rows, 4u);
  EXPECT_EQ(ae.num_cols, 4u);
}

TEST(BoolSpGemmTest, SelfLoopMatrixIsIdempotent) {
  // A diagonal (all-self-loop) relation composed with itself is itself —
  // the boolean semiring has no accumulation to overflow.
  BoolCsr d = Make4x4({{0, 0}, {2, 2}});
  EXPECT_EQ(BoolSpGemm(d, d), d);
}

TEST(BoolSpGemmTest, ComplementMaskDropsVisitedEntries) {
  // Masking the golden product with M = {0→{2}, 3→{3}} removes exactly
  // those entries — the ⟨C, ¬M⟩ product of the fixpoint.
  BoolCsr mask = Make4x4({{0, 2}, {3, 3}});
  BoolCsr c = BoolSpGemm(GoldenA(), GoldenB(), &mask);
  BoolCsr want = Make4x4({{0, 0}, {0, 3}, {1, 1}, {1, 3}, {3, 1}});
  EXPECT_EQ(c, want);
}

TEST(BoolSpGemmTest, ScheduleIndependent) {
  // Bigger random-ish operands: 1 thread and 4 threads must produce the
  // same canonical CSR.
  Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> ea, eb;
  for (int i = 0; i < 900; ++i) {
    ea.emplace_back(rng.Below(300), rng.Below(300));
    eb.emplace_back(rng.Below(300), rng.Below(300));
  }
  BoolCsr a = BoolCsr::FromEntries(300, 300, std::move(ea));
  BoolCsr b = BoolCsr::FromEntries(300, 300, std::move(eb));
  ParallelOptions seq;
  seq.num_threads = 1;
  ParallelOptions par;
  par.num_threads = 4;
  EXPECT_EQ(BoolSpGemm(a, b, nullptr, seq), BoolSpGemm(a, b, nullptr, par));
}

// ------------------------------------------------------------ BoolSpMv

TEST(BoolSpMvTest, HandComputedProduct) {
  // y = A·x with x = {1, 3}: rows 0 ({1,2}), 1 ({3}) and 3 ({0,3})
  // intersect x; row 2 is empty.
  Bitset x(4);
  x.Set(1);
  x.Set(3);
  Bitset y = BoolSpMv(GoldenA(), x);
  EXPECT_TRUE(y.Test(0));
  EXPECT_TRUE(y.Test(1));
  EXPECT_FALSE(y.Test(2));
  EXPECT_TRUE(y.Test(3));
}

TEST(BoolSpMvTest, ComplementMaskClearsBits) {
  Bitset x(4);
  x.Set(1);
  x.Set(3);
  Bitset mask(4);
  mask.Set(0);
  Bitset y = BoolSpMv(GoldenA(), x, &mask);
  EXPECT_FALSE(y.Test(0));
  EXPECT_TRUE(y.Test(1));
  EXPECT_TRUE(y.Test(3));
}

// ----------------------------------------------- snapshot label slices

TEST(MatrixRpqTest, FromSnapshotLabelMatchesEdgeList) {
  // Build through the caller-labeled factory (FromLabeledEdges) so the
  // slice extraction is pinned against a hand-written edge list rather
  // than a concrete graph model.
  Multigraph g;
  g.AddNodes(5);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());  // a
  ASSERT_TRUE(g.AddEdge(1, 2).ok());  // b
  ASSERT_TRUE(g.AddEdge(1, 3).ok());  // a
  ASSERT_TRUE(g.AddEdge(3, 3).ok());  // a, self-loop
  ASSERT_TRUE(g.AddEdge(4, 0).ok());  // b
  ASSERT_TRUE(g.AddEdge(0, 1).ok());  // a, parallel edge: one entry
  const std::vector<std::string> labels = {"a", "b", "a", "a", "b", "a"};
  CsrSnapshot snap = CsrSnapshot::FromLabeledEdges(
      g, [&](EdgeId e) { return labels[e]; });
  std::optional<LabelId> a = snap.FindLabel("a");
  ASSERT_TRUE(a.has_value());

  BoolCsr got = BoolCsr::FromSnapshotLabel(snap, *a);
  BoolCsr want =
      BoolCsr::FromEntries(5, 5, {{0, 1}, {1, 3}, {3, 3}});
  EXPECT_EQ(got, want);

  // Transposed: rows are targets.
  BoolCsr got_t = BoolCsr::FromSnapshotLabel(snap, *a, /*transpose=*/true);
  BoolCsr want_t =
      BoolCsr::FromEntries(5, 5, {{1, 0}, {3, 1}, {3, 3}});
  EXPECT_EQ(got_t, want_t);

  // A label id past the snapshot's label space is the empty matrix, and
  // the count statistics read 0 instead of indexing out of range.
  LabelId bogus = static_cast<LabelId>(snap.num_labels());
  EXPECT_EQ(BoolCsr::FromSnapshotLabel(snap, bogus).nnz(), 0u);
  EXPECT_EQ(snap.CountForLabel(bogus), 0u);
}

// ------------------------------------------------- fixpoint evaluator

TEST(MatrixRpqTest, TerminatesOnCycles) {
  // 0→1→2→3→0, all label a: a* saturates the cycle and the complement
  // masking must stop the fixpoint after one lap.
  LabeledGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("p");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(g.AddEdge(i, (i + 1) % 4, "a").ok());
  }
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("a*"));
  Bitset r = MatrixReachableFrom(nfa, 0);
  EXPECT_EQ(r.Count(), 4u);
  EXPECT_EQ(r, ReachableFrom(nfa, 0));
}

TEST(MatrixRpqTest, MatchesBfsEngineUnderAllOptions) {
  Rng rng(99);
  for (int trial = 0; trial < 4; ++trial) {
    // Graphs past 64 nodes so frontiers span multiple words.
    LabeledGraph g = trial % 2 == 0
                         ? ErdosRenyi(70, 180, {"p", "q"}, {"a", "b"}, &rng)
                         : BarabasiAlbert(70, 2, {"p", "q"}, {"a", "b"}, &rng);
    LabeledGraphView view(g);
    std::vector<RegexPtr> queries = {Parse("a/b"), Parse("(a+b^-)*"),
                                     Parse("?p/a*/?q")};
    // A non-label edge test keeps one atom on the bitset-filter path
    // (AtomClass::kFiltered) through the matrix gather.
    queries.push_back(Regex::Star(Regex::EdgeFwd(
        TestExpr::Not(TestExpr::Label("a")))));
    for (const RegexPtr& regex : queries) {
      SCOPED_TRACE(regex->ToString());
      PathNfa nfa = *PathNfa::Compile(view, *regex);

      std::vector<PathQueryOptions> variants(5);
      variants[1].avoid = 3;
      variants[2].start = 7;
      variants[3].end = 11;
      variants[4].avoid = 7;
      variants[4].end = 3;
      for (PathQueryOptions opts : variants) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          opts.parallel.num_threads = threads;
          PathQueryOptions mat = opts;
          mat.engine = PathEngine::kMatrix;
          // AllPairs through the engine knob.
          ASSERT_EQ(AllPairs(nfa, mat), AllPairs(nfa, opts))
              << "threads=" << threads;
          // Single-source, every start (covers avoid==start etc.).
          for (NodeId s = 0; s < 16; ++s) {
            ASSERT_EQ(ReachableFrom(nfa, s, mat), ReachableFrom(nfa, s, opts))
                << "threads=" << threads << " s=" << s;
          }
          // Arbitrary source batches through the direct entry point.
          std::vector<NodeId> batch = {5, 0, 13, 5, 66};
          std::vector<Bitset> rows = MatrixReachFromAll(nfa, batch, mat);
          for (size_t i = 0; i < batch.size(); ++i) {
            ASSERT_EQ(rows[i], ReachableFrom(nfa, batch[i], opts))
                << "threads=" << threads << " batch row " << i;
          }
        }
      }
    }
  }
}

TEST(MatrixRpqTest, ReachTableLayersMatchScalarConstruction) {
  Rng rng(123);
  for (int trial = 0; trial < 3; ++trial) {
    LabeledGraph g = ErdosRenyi(24, 70, {"p", "q"}, {"a", "b"}, &rng);
    LabeledGraphView view(g);
    for (const char* q : {"a/b", "(a+b^-)*", "?p/a*/?q"}) {
      SCOPED_TRACE(q);
      PathNfa nfa = *PathNfa::Compile(view, *Parse(q));
      const size_t max_len = 5;

      std::vector<PathQueryOptions> variants(3);
      variants[1].avoid = 2;
      variants[2].end = 9;
      for (PathQueryOptions opts : variants) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          opts.parallel.num_threads = threads;
          PathQueryOptions mat = opts;
          mat.engine = PathEngine::kMatrix;
          ReachTable scalar(nfa, max_len, opts);
          ReachTable matrix(nfa, max_len, mat);
          for (size_t j = 0; j <= max_len; ++j) {
            for (NodeId n = 0; n < nfa.num_nodes(); ++n) {
              ASSERT_EQ(matrix.Mask(j, n), scalar.Mask(j, n))
                  << "j=" << j << " n=" << n << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kgq
