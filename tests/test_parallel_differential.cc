// Property-based differential harness for the parallel substrate: over
// a population of seeded random graphs, every parallel kernel must
// return results *identical* to the num_threads=1 sequential reference
// (bit-for-bit, including floating-point accumulations), and the
// sampling-based kernels must be reproducible from a fixed seed at any
// thread count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/pagerank.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/enumerate.h"
#include "pathalg/pairs.h"
#include "pathalg/reach.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

namespace kgq {
namespace {

constexpr size_t kThreadCounts[] = {2, 4, 8};

/// A rotating pool of queries over the generator alphabets
/// ({p, q} node labels, {a, b} edge labels).
const char* QueryForSeed(int seed) {
  static const char* kQueries[] = {
      "a*",           "a/b",          "(a+b)*",      "a/(b+a^-)",
      "?p/a*/?q",     "(a/b)*+b",     "b^-/a/b",     "?q/(a+b)/?p",
      "a+a^-",        "(a*/b)*",
  };
  return kQueries[static_cast<size_t>(seed) % 10];
}

/// The 50-graph population: even seeds draw Erdős–Rényi graphs, odd
/// seeds Barabási–Albert, both over the {p,q}/{a,b} alphabets.
LabeledGraph GraphForSeed(int seed) {
  Rng rng(5000 + seed);
  if (seed % 2 == 0) {
    return ErdosRenyi(28, 70, {"p", "q"}, {"a", "b"}, &rng);
  }
  return BarabasiAlbert(30, 2, {"p", "q"}, {"a", "b"}, &rng);
}

class ParallelDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDifferential, BetweennessMatchesSequential) {
  const CsrSnapshot g = CsrSnapshot::FromGraph(GraphForSeed(GetParam()));
  for (EdgeDirection dir :
       {EdgeDirection::kDirected, EdgeDirection::kUndirected}) {
    std::vector<double> seq =
        BetweennessCentrality(g, dir, ParallelOptions{1});
    for (size_t t : kThreadCounts) {
      EXPECT_EQ(seq, BetweennessCentrality(g, dir, ParallelOptions{t}))
          << t << " threads";
    }
  }
}

TEST_P(ParallelDifferential, ApproxBetweennessReproducesFromSeed) {
  const CsrSnapshot g = CsrSnapshot::FromGraph(GraphForSeed(GetParam()));
  uint64_t seed = 40 + static_cast<uint64_t>(GetParam());
  Rng rng1(seed);
  std::vector<double> seq = ApproxBetweennessCentrality(
      g, EdgeDirection::kUndirected, 9, &rng1, ParallelOptions{1});
  for (size_t t : kThreadCounts) {
    Rng rng(seed);
    EXPECT_EQ(seq, ApproxBetweennessCentrality(g, EdgeDirection::kUndirected,
                                               9, &rng, ParallelOptions{t}))
        << t << " threads";
  }
}

TEST_P(ParallelDifferential, PageRankMatchesSequential) {
  const CsrSnapshot g = CsrSnapshot::FromGraph(GraphForSeed(GetParam()));
  PageRankOptions opts;
  opts.parallel.num_threads = 1;
  std::vector<double> seq = PageRank(g, opts);
  for (size_t t : kThreadCounts) {
    opts.parallel.num_threads = t;
    EXPECT_EQ(seq, PageRank(g, opts)) << t << " threads";
  }
}

TEST_P(ParallelDifferential, ReachTableMatchesSequential) {
  LabeledGraph g = GraphForSeed(GetParam());
  LabeledGraphView view(g);
  Result<RegexPtr> regex = ParseRegex(QueryForSeed(GetParam()));
  ASSERT_TRUE(regex.ok()) << regex.status();
  Result<PathNfa> nfa = PathNfa::Compile(view, **regex);
  ASSERT_TRUE(nfa.ok()) << nfa.status();

  const size_t max_len = 5;
  PathQueryOptions opts;
  opts.parallel.num_threads = 1;
  ReachTable seq(*nfa, max_len, opts);
  for (size_t t : kThreadCounts) {
    opts.parallel.num_threads = t;
    ReachTable par(*nfa, max_len, opts);
    for (size_t j = 0; j <= max_len; ++j) {
      for (NodeId n = 0; n < nfa->num_nodes(); ++n) {
        ASSERT_EQ(seq.Mask(j, n), par.Mask(j, n))
            << t << " threads, layer " << j << ", node " << n;
      }
    }
  }
}

TEST_P(ParallelDifferential, AllPairsMatchesSequential) {
  LabeledGraph g = GraphForSeed(GetParam());
  LabeledGraphView view(g);
  Result<RegexPtr> regex = ParseRegex(QueryForSeed(GetParam()));
  ASSERT_TRUE(regex.ok()) << regex.status();
  Result<PathNfa> nfa = PathNfa::Compile(view, **regex);
  ASSERT_TRUE(nfa.ok()) << nfa.status();

  PathQueryOptions opts;
  opts.parallel.num_threads = 1;
  std::vector<Bitset> seq = AllPairs(*nfa, opts);
  double seq_count = CountPairs(*nfa, opts);
  for (size_t t : kThreadCounts) {
    opts.parallel.num_threads = t;
    EXPECT_EQ(seq, AllPairs(*nfa, opts)) << t << " threads";
    EXPECT_EQ(seq_count, CountPairs(*nfa, opts)) << t << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferential,
                         ::testing::Range(0, 50));

// The regex-constrained centralities are costlier, so the bc_r leg of
// the harness runs on a smaller population of smaller graphs.
class BcrDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BcrDifferential, ExactRegexBetweennessMatchesSequential) {
  Rng rng(8800 + GetParam());
  LabeledGraph g = ErdosRenyi(12, 30, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  Result<RegexPtr> regex = ParseRegex(QueryForSeed(GetParam()));
  ASSERT_TRUE(regex.ok()) << regex.status();

  BcrOptions opts;
  opts.max_path_length = 4;
  opts.parallel.num_threads = 1;
  Result<std::vector<double>> seq = RegexBetweenness(view, **regex, opts);
  ASSERT_TRUE(seq.ok()) << seq.status();
  for (size_t t : kThreadCounts) {
    opts.parallel.num_threads = t;
    Result<std::vector<double>> par = RegexBetweenness(view, **regex, opts);
    ASSERT_TRUE(par.ok()) << par.status();
    EXPECT_EQ(*seq, *par) << t << " threads";
  }
}

TEST_P(BcrDifferential, SampledRegexBetweennessReproducesFromSeed) {
  Rng rng(8800 + GetParam());
  LabeledGraph g = ErdosRenyi(12, 30, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  Result<RegexPtr> regex = ParseRegex(QueryForSeed(GetParam()));
  ASSERT_TRUE(regex.ok()) << regex.status();

  BcrOptions opts;
  opts.max_path_length = 4;
  opts.pair_fraction = 0.6;
  opts.fpras.samples_per_state = 16;
  opts.fpras.union_trials = 32;
  uint64_t seed = 17 + static_cast<uint64_t>(GetParam());

  opts.parallel.num_threads = 1;
  Rng rng1(seed);
  Result<std::vector<double>> seq =
      RegexBetweennessApprox(view, **regex, opts, &rng1);
  ASSERT_TRUE(seq.ok()) << seq.status();
  for (size_t t : kThreadCounts) {
    opts.parallel.num_threads = t;
    Rng rngt(seed);
    Result<std::vector<double>> par =
        RegexBetweennessApprox(view, **regex, opts, &rngt);
    ASSERT_TRUE(par.ok()) << par.status();
    EXPECT_EQ(*seq, *par) << t << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcrDifferential, ::testing::Range(0, 6));

// Observability must never perturb kernel results: every instrumented
// kernel run with collection enabled must be bit-identical to the same
// run with collection disabled at runtime. (The KGQ_OBS=OFF compile
// mode is covered by the CI job that builds and runs this whole suite
// with -DKGQ_OBS=OFF — instrumentation is results-invariant there by
// construction, since the macros expand to nothing.)
class ObsDifferential : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { obs::Registry::SetEnabled(true); }
};

TEST_P(ObsDifferential, KernelResultsIdenticalWithObsOnAndOff) {
  LabeledGraph g = GraphForSeed(GetParam());
  LabeledGraphView view(g);
  Result<RegexPtr> regex = ParseRegex(QueryForSeed(GetParam()));
  ASSERT_TRUE(regex.ok()) << regex.status();
  Result<PathNfa> nfa = PathNfa::Compile(view, **regex);
  ASSERT_TRUE(nfa.ok()) << nfa.status();

  PathQueryOptions popts;
  popts.parallel.num_threads = 4;
  PageRankOptions propts;
  propts.parallel.num_threads = 4;

  // One full pass over the instrumented kernels, per obs mode.
  struct Outputs {
    std::vector<double> pagerank;
    std::vector<double> betweenness;
    std::vector<Bitset> all_pairs;
    double pair_count = 0.0;
    std::vector<std::vector<NodeId>> paths;
  };
  const CsrSnapshot csr = CsrSnapshot::FromGraph(g);
  auto run_kernels = [&](bool obs_on) {
    obs::Registry::SetEnabled(obs_on);
    Outputs out;
    out.pagerank = PageRank(csr, propts);
    out.betweenness =
        BetweennessCentrality(csr, EdgeDirection::kDirected, propts.parallel);
    out.all_pairs = AllPairs(*nfa, popts);
    out.pair_count = CountPairs(*nfa, popts);
    PathEnumerator enumerator(*nfa, 4, popts);
    Path p;
    while (out.paths.size() < 64 && enumerator.Next(&p)) {
      out.paths.push_back(p.nodes);
    }
    return out;
  };

  Outputs on = run_kernels(true);
  Outputs off = run_kernels(false);
  EXPECT_EQ(on.pagerank, off.pagerank);
  EXPECT_EQ(on.betweenness, off.betweenness);
  EXPECT_EQ(on.all_pairs, off.all_pairs);
  EXPECT_EQ(on.pair_count, off.pair_count);
  EXPECT_EQ(on.paths, off.paths);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsDifferential, ::testing::Range(0, 10));

}  // namespace
}  // namespace kgq
