// Differential equivalence suite for the views' CSRs: over 50+ seeded
// random labeled graphs (with multi-edges, self-loops, isolated nodes
// and empty label sets), every path kernel must return *bit-identical*
// results over every kind of view of the same graph — property, vector,
// epoch and RDF against the labeled view — at one thread and at
// several. A PathNfa meets a CSR only through its view
// (GraphView::csr()); each view builds or shares its own, and the suite
// checks the pairing those views promise. The labeled view's enumeration
// is held to EvalReference, which walks the view's topology() lists
// instead of its CSR.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analytics/betweenness.h"
#include "graph/conversions.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "pathalg/fpras.h"
#include "pathalg/pairs.h"
#include "rdf/convert.h"
#include "rdf/rdf_view.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "rpq/reference_eval.h"
#include "rpq/regex.h"
#include "serve/delta_store.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Random regex over edge labels {a, b} and node labels {p, q} — the
/// same distribution as the regex fuzzer, including pure-label atoms
/// (the partition fast path), bwd atoms, negated tests (the filtered
/// path) and labels the graph may not contain (the dead-atom path).
RegexPtr RandomRegex(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.35)) {
    switch (rng->Below(6)) {
      case 0:
        return Regex::EdgeLabel(rng->Bernoulli(0.5) ? "a" : "b");
      case 1:
        return Regex::EdgeLabelBwd(rng->Bernoulli(0.5) ? "a" : "b");
      case 2:
        return Regex::NodeLabel(rng->Bernoulli(0.5) ? "p" : "q");
      case 3:
        return Regex::EdgeFwd(
            TestExpr::Or(TestExpr::Label("a"), TestExpr::Label("b")));
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

/// Graph zoo indexed by seed: degenerate shapes (empty graph, no edges
/// and hence an empty label set, single label) cycle through alongside
/// multigraph-heavy and sparse/isolated-node random instances.
LabeledGraph MakeGraph(uint64_t seed, Rng* rng) {
  switch (seed % 8) {
    case 0:
      return LabeledGraph();  // 0 nodes, 0 edges.
    case 1: {
      LabeledGraph g;  // Nodes but no edges: empty label set.
      for (int i = 0; i < 5; ++i) g.AddNode(i % 2 == 0 ? "p" : "q");
      return g;
    }
    case 2:
      return Cycle(6, "p", "a");  // Single edge label.
    case 3: {
      // Three nodes, 18 edges: saturated with parallels and self-loops.
      std::vector<size_t> degrees = {6, 6, 6};
      return FixedOutDegreeGraph(degrees, {"p", "q"}, {"a", "b"}, rng);
    }
    case 4:
      return ErdosRenyi(12, 40, {"p", "q"}, {"a", "b"}, rng);
    case 5:
      return ErdosRenyi(16, 10, {"p", "q"}, {"a", "b"}, rng);  // Isolates.
    case 6:
      return BarabasiAlbert(14, 2, {"p", "q"}, {"a", "b"}, rng);
    default:
      return ErdosRenyi(6 + rng->Below(8), rng->Below(30), {"p", "q"},
                        {"a", "b"}, rng);
  }
}

/// An epoch whose CSR is FromGraph(g): its graph() is g with the same
/// node and edge ids (parallel edges included), and its View() shares
/// that CSR.
serve::EpochSnapshot EpochOf(const LabeledGraph& g) {
  serve::NodeTable nodes;
  for (NodeId n = 0; n < g.num_nodes(); ++n) nodes.Add(g.NodeLabelString(n));
  serve::EpochSnapshot epoch;
  epoch.nodes = nodes.View();
  epoch.csr = std::make_shared<CsrSnapshot>(CsrSnapshot::FromGraph(g));
  return epoch;
}

/// Fixed regexes next to the random ones: pure-label, inverse and
/// starred atoms, a mixed label/filtered atom and dead atoms (labels no
/// edge carries).
const char* const kFixedRegexes[] = {
    "a/b^-", "(a+b^-)*", "a/[a|b]/?p", "[!a]^-/b*", "z", "a/z^-+b",
};

/// Path lengths every kernel below is checked up to.
constexpr size_t kMaxLen = 3;

/// The paths `nfa` enumerates at each length up to kMaxLen must be
/// exactly the paper-literal oracle's over the same view.
void ExpectEnumerationMatchesOracle(const GraphView& view, const Regex& regex,
                                    const PathNfa& nfa) {
  std::vector<std::set<Path>> oracle(kMaxLen + 1);
  for (Path& p : EvalReference(view, regex, kMaxLen)) {
    oracle[p.Length()].insert(std::move(p));
  }
  for (size_t k = 0; k <= kMaxLen; ++k) {
    PathEnumerator enumerator(nfa, k);
    std::vector<Path> paths = enumerator.Drain();
    ASSERT_EQ(std::set<Path>(paths.begin(), paths.end()), oracle[k])
        << "k=" << k;
  }
}

ParallelOptions Threads(size_t k) {
  ParallelOptions par;
  par.num_threads = k;
  return par;
}

/// Every path kernel over `got` must return exactly what it returns over
/// the reference `want` (same graph, same regex, another view): reach
/// rows on both engines at 1 and 4 threads, the path *sequence* of the
/// enumerator, the exact DP and the FPRAS estimate and samples.
void ExpectSamePathKernels(const PathNfa& want, const PathNfa& got,
                           uint64_t seed) {
  const size_t max_len = kMaxLen;
  // Existential pair semantics (reach rows), sequential and parallel.
  std::vector<Bitset> want_pairs = AllPairs(want);
  for (PathEngine engine : {PathEngine::kNfa, PathEngine::kMatrix}) {
    PathQueryOptions popts;
    popts.engine = engine;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      popts.parallel = Threads(threads);
      ASSERT_EQ(AllPairs(got, popts), want_pairs)
          << "threads=" << threads
          << " matrix=" << (engine == PathEngine::kMatrix);
    }
    for (NodeId start = 0; start < want.num_nodes(); ++start) {
      ASSERT_EQ(ReachableFrom(got, start, popts), want_pairs[start])
          << "start=" << start
          << " matrix=" << (engine == PathEngine::kMatrix);
    }
  }
  ASSERT_EQ(CountPairs(got), CountPairs(want));

  for (size_t k = 0; k <= max_len; ++k) {
    // Enumeration: the *sequence* of paths must be identical, not just
    // the set — every view's CSR keeps edge-id step order.
    PathEnumerator want_enum(want, k);
    PathEnumerator got_enum(got, k);
    std::vector<Path> want_paths = want_enum.Drain();
    std::vector<Path> got_paths = got_enum.Drain();
    ASSERT_EQ(got_paths.size(), want_paths.size()) << "k=" << k;
    for (size_t i = 0; i < want_paths.size(); ++i) {
      ASSERT_EQ(got_paths[i], want_paths[i])
          << "k=" << k << " path #" << i << ": " << got_paths[i].ToString()
          << " vs " << want_paths[i].ToString();
    }

    // Exact counting.
    ExactPathIndex want_index(want, k);
    ExactPathIndex got_index(got, k);
    ASSERT_EQ(got_index.Count(k), want_index.Count(k)) << "k=" << k;
  }

  // FPRAS: the estimator consumes rng draws in step-iteration order, so
  // identical step order ⇒ the identical random stream ⇒ exactly the
  // same estimate and samples.
  FprasOptions fopts;
  fopts.samples_per_state = 16;
  fopts.union_trials = 32;
  fopts.seed = 0xC0FFEE + seed;
  FprasPathCounter want_fpras(want, max_len, {}, fopts);
  FprasPathCounter got_fpras(got, max_len, {}, fopts);
  ASSERT_EQ(got_fpras.Estimate(), want_fpras.Estimate());
  ASSERT_EQ(got_fpras.num_sketches(), want_fpras.num_sketches());
  Rng want_rng(42 + seed), got_rng(42 + seed);
  for (int s = 0; s < 5; ++s) {
    Result<Path> want_p = want_fpras.Sample(&want_rng);
    Result<Path> got_p = got_fpras.Sample(&got_rng);
    ASSERT_EQ(got_p.ok(), want_p.ok());
    if (!want_p.ok()) break;
    ASSERT_EQ(*got_p, *want_p) << got_p->ToString();
  }
}

/// The labeled graph an RDF view answers like over the suite's
/// alphabet: the view's nodes and edges in id order, each edge labeled
/// by its predicate and each node by the one of {p, q} it carries ("-"
/// when it carries neither, as the class nodes do).
LabeledGraph MirrorOf(const RdfGraphView& rdf) {
  LabeledGraph g;
  const Multigraph& t = rdf.topology();
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    g.AddNode(rdf.NodeLabelIs(n, "p")   ? "p"
              : rdf.NodeLabelIs(n, "q") ? "q"
                                        : "-");
  }
  for (EdgeId e = 0; e < t.num_edges(); ++e) {
    std::string label;
    for (const char* pred : {"a", "b", kNodeLabelPredicate}) {
      if (rdf.EdgeLabelIs(e, pred)) label = pred;
    }
    EXPECT_FALSE(label.empty()) << "edge " << e;
    EXPECT_TRUE(g.AddEdge(t.EdgeSource(e), t.EdgeTarget(e), label).ok());
  }
  return g;
}

class CsrEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CsrEquivalence, PathKernelsBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(7000 + seed);
  LabeledGraph g = MakeGraph(seed, &rng);
  const LabeledGraphView view(g);
  // Other views of the same nodes and edges.
  const PropertyGraph pg = LabeledToProperty(g);
  const VectorGraph vg = LabeledToVector(g);
  const serve::EpochSnapshot epoch = EpochOf(g);
  const PropertyGraphView property_view(pg);
  const VectorGraphView vector_view(vg);
  const serve::EpochGraphView epoch_view = epoch.View();
  const std::pair<const char*, const GraphView*> views[] = {
      {"property", &property_view},
      {"vector", &vector_view},
      {"epoch", &epoch_view}};
  // The RDF encoding of g has its own node and edge ids (label classes
  // become nodes, parallel triples collapse); it is compared against
  // the labeled view of its mirror.
  const TripleStore store = LabeledToRdf(g);
  const RdfGraphView rdf(store);
  const LabeledGraph mirror = MirrorOf(rdf);
  const LabeledGraphView mirror_view(mirror);

  std::vector<RegexPtr> regexes;
  for (const char* text : kFixedRegexes) regexes.push_back(*ParseRegex(text));
  for (int round = 0; round < 3; ++round) {
    regexes.push_back(RandomRegex(&rng, 3));
  }
  for (const RegexPtr& regex : regexes) {
    SCOPED_TRACE(regex->ToString());
    for (PathNfa::Construction cons :
         {PathNfa::Construction::kGlushkov, PathNfa::Construction::kThompson}) {
      Result<PathNfa> want = PathNfa::Compile(view, *regex, cons);
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectEnumerationMatchesOracle(view, *regex, *want);
      if (HasFatalFailure()) return;
      for (const auto& [name, other] : views) {
        SCOPED_TRACE(name);
        Result<PathNfa> got = PathNfa::Compile(*other, *regex, cons);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(&got->snapshot(), &other->csr());
        ExpectSamePathKernels(*want, *got, seed);
        if (HasFatalFailure()) return;
      }

      SCOPED_TRACE("rdf");
      Result<PathNfa> mirror_nfa = PathNfa::Compile(mirror_view, *regex, cons);
      Result<PathNfa> rdf_nfa = PathNfa::Compile(rdf, *regex, cons);
      ASSERT_TRUE(mirror_nfa.ok() && rdf_nfa.ok());
      ASSERT_EQ(&rdf_nfa->snapshot(), &rdf.csr());
      ExpectSamePathKernels(*mirror_nfa, *rdf_nfa, seed);
      if (HasFatalFailure()) return;
    }
  }
}

// The analytics kernels read only the CSR. test_parallel_differential
// checks exact Brandes (both directions), undirected pivot sampling and
// PageRank at several thread counts; this is the remaining leg: directed
// pivot sampling, 1 vs 4 threads. Same seed ⇒ same pivots ⇒ same bits.
TEST_P(CsrEquivalence, AnalyticsBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(9000 + seed);
  const CsrSnapshot snap = CsrSnapshot::FromGraph(MakeGraph(seed, &rng));
  const size_t pivots = std::min<size_t>(snap.num_nodes(), 5);
  Rng one(11 + seed), four(11 + seed);
  ASSERT_EQ(ApproxBetweennessCentrality(snap, EdgeDirection::kDirected,
                                        pivots, &four, Threads(4)),
            ApproxBetweennessCentrality(snap, EdgeDirection::kDirected,
                                        pivots, &one, Threads(1)));
}

TEST_P(CsrEquivalence, RegexBetweennessBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // bc_r couples a configuration BFS, the enumerator and the FPRAS per
  // source; run it on the smaller instances only to bound test time.
  if (seed % 4 != 2) GTEST_SKIP() << "bc_r subset";
  Rng rng(5000 + seed);
  LabeledGraph g = MakeGraph(seed, &rng);
  if (g.num_nodes() > 12) GTEST_SKIP() << "bc_r subset (size)";
  const LabeledGraphView view(g);
  // The same graph through another model's view.
  const PropertyGraph pg = LabeledToProperty(g);
  const PropertyGraphView other(pg);

  RegexPtr regex =
      Regex::Star(Regex::Union(Regex::EdgeLabel("a"), Regex::EdgeLabel("b")));

  BcrOptions want_opts;
  want_opts.max_path_length = 4;
  Result<std::vector<double>> want = RegexBetweenness(view, *regex, want_opts);
  ASSERT_TRUE(want.ok()) << want.status();

  BcrOptions got_opts = want_opts;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    got_opts.parallel = Threads(threads);
    Result<std::vector<double>> got =
        RegexBetweenness(other, *regex, got_opts);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, *want) << "threads=" << threads;
  }

  // Approximate bc_r: fixed master seed ⇒ identical source plans and
  // per-source streams ⇒ identical output, whatever the view or the
  // thread count.
  BcrOptions approx_opts = want_opts;
  approx_opts.fpras.samples_per_state = 8;
  approx_opts.fpras.union_trials = 16;
  Rng want_rng(77 + seed);
  Result<std::vector<double>> want_approx =
      RegexBetweennessApprox(view, *regex, approx_opts, &want_rng);
  ASSERT_TRUE(want_approx.ok()) << want_approx.status();
  approx_opts.parallel = Threads(4);
  Rng got_rng(77 + seed);
  Result<std::vector<double>> got_approx =
      RegexBetweennessApprox(other, *regex, approx_opts, &got_rng);
  ASSERT_TRUE(got_approx.ok()) << got_approx.status();
  ASSERT_EQ(*got_approx, *want_approx);
}

// 52 seeds × the graph zoo: every degenerate shape appears at least six
// times, the random shapes ~20 times each.
INSTANTIATE_TEST_SUITE_P(Seeds, CsrEquivalence, ::testing::Range(0, 52));

/// The pairing GraphView::csr() promises: the view's sizes, per-edge
/// endpoints in edge-id order and adjacency order, and EdgeLabelIs(e, ℓ)
/// iff the CSR's label of e is FindLabel(ℓ) — for every ℓ in `labels`,
/// including labels no edge carries.
void ExpectCsrPairsWithView(const GraphView& view,
                            const std::vector<std::string>& labels) {
  const CsrSnapshot* csr = &view.csr();
  const Multigraph& g = view.topology();
  ASSERT_EQ(csr->num_nodes(), g.num_nodes());
  ASSERT_EQ(csr->num_edges(), g.num_edges());
  ASSERT_EQ(view.num_nodes(), g.num_nodes());
  ASSERT_EQ(view.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(csr->EdgeSource(e), g.EdgeSource(e)) << "edge " << e;
    ASSERT_EQ(csr->EdgeTarget(e), g.EdgeTarget(e)) << "edge " << e;
    for (const std::string& label : labels) {
      const std::optional<LabelId> id = csr->FindLabel(label);
      ASSERT_EQ(view.EdgeLabelIs(e, label),
                id.has_value() && csr->EdgeLabel(e) == *id)
          << "edge " << e << " label '" << label << "'";
    }
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    std::vector<EdgeId> out, in;
    for (const CsrSnapshot::Entry& a : csr->Out(n)) out.push_back(a.edge);
    for (const CsrSnapshot::Entry& a : csr->In(n)) in.push_back(a.edge);
    ASSERT_EQ(out, g.OutEdges(n)) << "node " << n;
    ASSERT_EQ(in, g.InEdges(n)) << "node " << n;
  }
}

/// Random vector graph of dimension 2 whose row 0 is a label from
/// {a, b} or ⊥, next to a row-1 feature.
VectorGraph RandomVectorGraph(Rng* rng) {
  VectorGraph g(2);
  const size_t n = 1 + rng->Below(10);
  const char* const rows[] = {"a", "b", ""};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddNodeFromStrings({rows[rng->Below(3)], "x"}).ok());
  }
  const size_t m = rng->Below(30);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(g.AddEdgeFromStrings(static_cast<NodeId>(rng->Below(n)),
                                     static_cast<NodeId>(rng->Below(n)),
                                     {rows[rng->Below(3)], "y"})
                    .ok());
  }
  return g;
}

// Every view kind's one-argument constructor builds its own CSR, which
// pairs with the view by construction — the property the kernels trust
// without checking.
TEST(CsrEquivalenceGuards, ViewsPairWithTheirOwnCsr) {
  // Present labels, node labels, an absent label, the ⊥ spelling, the
  // RDF label predicate and the empty string.
  const std::vector<std::string> labels = {"a", "b", "p", "q", "z",
                                           "⊥", kNodeLabelPredicate, ""};
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(600 + seed);
    const LabeledGraph g = MakeGraph(seed, &rng);
    ExpectCsrPairsWithView(LabeledGraphView(g), labels);
    const PropertyGraph pg = LabeledToProperty(g);
    ExpectCsrPairsWithView(PropertyGraphView(pg), labels);
    const VectorGraph vg = RandomVectorGraph(&rng);
    ExpectCsrPairsWithView(VectorGraphView(vg), labels);
    const TripleStore store = LabeledToRdf(g);
    ExpectCsrPairsWithView(RdfGraphView(store), labels);
    if (HasFatalFailure()) return;
  }
}

// A CSR reaches the product only through its view. AttachSnapshot
// accepts the compiled view's own csr() and rejects any other snapshot
// without touching the product — here a copy of the graph with a and b
// swapped, whose topology is identical, and the CSR of a second view of
// the same graph.
TEST(CsrEquivalenceGuards, AttachSnapshotRejectsForeignSnapshots) {
  Rng rng(4);
  LabeledGraph g = ErdosRenyi(14, 45, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraph relabelled;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    relabelled.AddNode(g.NodeLabelString(n));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::string& label = g.EdgeLabelString(e);
    ASSERT_TRUE(relabelled
                    .AddEdge(g.EdgeSource(e), g.EdgeTarget(e),
                             label == "a" ? "b" : "a")
                    .ok());
  }
  const CsrSnapshot foreign = CsrSnapshot::FromGraph(relabelled);
  ASSERT_EQ(foreign.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(foreign.EdgeSource(e), g.EdgeSource(e));
    ASSERT_EQ(foreign.EdgeTarget(e), g.EdgeTarget(e));
  }
  const LabeledGraphView view(g);
  const LabeledGraphView twin(g);
  ASSERT_NE(&twin.csr(), &view.csr());

  for (const char* text : {"a/b^-", "(a+b^-)*/?p", "a"}) {
    SCOPED_TRACE(text);
    RegexPtr regex = *ParseRegex(text);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << nfa.status();
    const std::vector<Bitset> want = AllPairs(*nfa);
    EXPECT_TRUE(nfa->AttachSnapshot(&view.csr()).ok());
    for (const CsrSnapshot* other : {&foreign, &twin.csr()}) {
      Status st = nfa->AttachSnapshot(other);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(&nfa->snapshot(), &view.csr());
    EXPECT_EQ(AllPairs(*nfa), want);
  }
}

// Over an epoch view, which shares the epoch's CSR, pure label atoms
// compile straight to the CSR's label ids — forward and inverse alike.
TEST(CsrEquivalenceGuards, OwnCsrLabelAtomsResolveToLabelIds) {
  LabeledGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("person");
  ASSERT_TRUE(g.AddEdge(0, 1, "knows").ok());
  ASSERT_TRUE(g.AddEdge(2, 1, "knows").ok());
  ASSERT_TRUE(g.AddEdge(3, 0, "likes").ok());
  serve::EpochSnapshot epoch = EpochOf(g);
  serve::EpochGraphView view = epoch.View();

  Result<PathNfa> nfa = PathNfa::Compile(view, **ParseRegex("knows/knows^-"));
  ASSERT_TRUE(nfa.ok()) << nfa.status();
  ASSERT_EQ(&nfa->snapshot(), epoch.csr.get());
  ASSERT_EQ(nfa->num_atoms(), 2u);
  const LabelId knows = *epoch.csr->FindLabel("knows");
  for (uint32_t atom = 0; atom < nfa->num_atoms(); ++atom) {
    EXPECT_EQ(nfa->ClassifyAtom(atom), PathNfa::AtomClass::kLabel);
    EXPECT_EQ(nfa->AtomSnapshotLabel(atom), knows);
  }
  EXPECT_EQ(ReachableFrom(*nfa, 0).ToVector(),
            (std::vector<uint32_t>{0, 2}));
}

}  // namespace
}  // namespace kgq
