#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "datasets/figure2.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "pathalg/fpras.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "rpq/reference_eval.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

/// Reference answers of length exactly k, as a set.
std::set<Path> RefSet(const GraphView& view, const Regex& r, size_t k) {
  std::set<Path> out;
  for (Path& p : EvalReferenceExact(view, r, k)) out.insert(std::move(p));
  return out;
}

struct Workload {
  std::string name;
  LabeledGraph graph;
  std::string query;
  size_t length;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  out.push_back({"fig2_infected", Figure2Labeled(),
                 "?person/rides/?bus/rides^-/?infected", 2});
  out.push_back({"fig2_star", Figure2Labeled(),
                 "(?person/(lives+contact))*", 3});
  out.push_back(
      {"fig2_r1", Figure2Labeled(),
       "?infected/rides/?bus/rides^-/(?person/(lives+contact))*/?person",
       4});
  Rng rng(42);
  out.push_back({"er_ab", ErdosRenyi(12, 30, {"p", "q"}, {"a", "b"}, &rng),
                 "(a+b/b^-)*", 4});
  out.push_back({"er_mixed",
                 ErdosRenyi(10, 25, {"p", "q"}, {"a", "b"}, &rng),
                 "?p/(a/b+b/a)*/?q", 4});
  out.push_back({"cycle", Cycle(6, "n", "e"), "e*", 5});
  out.push_back({"dag", LayeredDag(3, 3, "n", "e"), "e/e/e", 3});
  out.push_back({"grid_back", Grid(3, 3, "n", "e"), "(e+e^-)*", 3});
  return out;
}

// ------------------------------------------------------------ exact count

TEST(ExactCountTest, AgreesWithReferenceOracle) {
  for (Workload& w : MakeWorkloads()) {
    LabeledGraphView view(w.graph);
    RegexPtr regex = Parse(w.query);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << w.name;
    ExactPathIndex index(*nfa, w.length);
    for (size_t k = 0; k <= w.length; ++k) {
      double expected = static_cast<double>(RefSet(view, *regex, k).size());
      EXPECT_EQ(index.Count(k), expected) << w.name << " k=" << k;
    }
  }
}

TEST(ExactCountTest, CountUpToSumsLengths) {
  LabeledGraph g = Cycle(5, "n", "e");
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("e*"));
  ASSERT_TRUE(nfa.ok());
  ExactPathIndex index(*nfa, 4);
  // Cycle of 5: for every k there are exactly 5 walks of length k.
  EXPECT_EQ(index.Count(0), 5.0);
  EXPECT_EQ(index.Count(3), 5.0);
  EXPECT_EQ(index.CountUpTo(4), 25.0);
}

TEST(ExactCountTest, LayeredDagExplosion) {
  // width^layers source→sink paths; counts stay exact as doubles.
  LabeledGraph g = LayeredDag(8, 4, "n", "e");
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("e*"));
  ASSERT_TRUE(nfa.ok());
  ExactPathIndex index(*nfa, 8);
  // Paths of length 8 = full crossings: width^(8+1) / ... precisely:
  // 4 choices at each of 8 steps from each of 4 starts = 4^9.
  EXPECT_EQ(index.Count(8), std::pow(4.0, 9.0));
}

TEST(ExactCountTest, StartEndAvoidOptions) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("?person/rides/?bus/rides^-/?infected");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());

  PathQueryOptions from_juan;
  from_juan.start = fig2::kJuan;
  EXPECT_EQ(ExactPathIndex(*nfa, 2, from_juan).Count(2), 1.0);

  PathQueryOptions to_pedro;
  to_pedro.end = fig2::kPedro;
  EXPECT_EQ(ExactPathIndex(*nfa, 2, to_pedro).Count(2), 2.0);

  PathQueryOptions no_bus;
  no_bus.avoid = fig2::kBus;
  EXPECT_EQ(ExactPathIndex(*nfa, 2, no_bus).Count(2), 0.0);

  PathQueryOptions juan_to_pedro;
  juan_to_pedro.start = fig2::kJuan;
  juan_to_pedro.end = fig2::kPedro;
  EXPECT_EQ(ExactPathIndex(*nfa, 2, juan_to_pedro).Count(2), 1.0);
}

TEST(ExactSampleTest, UniformOverSmallAnswerSet) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("rides/rides^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  std::set<Path> expected = RefSet(view, *regex, 2);
  ASSERT_EQ(expected.size(), 9u);  // 3 riders × 3 riders.

  ExactPathIndex index(*nfa, 2);
  Rng rng(7);
  std::map<Path, int> histogram;
  const int draws = 9000;
  for (int i = 0; i < draws; ++i) {
    Result<Path> p = index.Sample(2, &rng);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(expected.count(*p)) << p->ToString();
    histogram[*p]++;
  }
  EXPECT_EQ(histogram.size(), expected.size());
  // Chi-square with 8 dof; 26.12 is the 0.1% critical value.
  double expected_per_cell = static_cast<double>(draws) / 9.0;
  double chi2 = 0.0;
  for (const auto& [path, count] : histogram) {
    double d = count - expected_per_cell;
    chi2 += d * d / expected_per_cell;
  }
  EXPECT_LT(chi2, 26.12);
}

TEST(ExactSampleTest, FailsWhenEmpty) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("owns/owns"));
  ASSERT_TRUE(nfa.ok());
  ExactPathIndex index(*nfa, 2);
  Rng rng(1);
  EXPECT_EQ(index.Sample(2, &rng).status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ enumeration

TEST(EnumerateTest, ProducesExactlyTheReferenceSet) {
  for (Workload& w : MakeWorkloads()) {
    LabeledGraphView view(w.graph);
    RegexPtr regex = Parse(w.query);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << w.name;
    for (size_t k = 0; k <= w.length; ++k) {
      std::set<Path> expected = RefSet(view, *regex, k);
      PathEnumerator enumerator(*nfa, k);
      std::set<Path> got;
      Path p;
      while (enumerator.Next(&p)) {
        EXPECT_EQ(p.Length(), k) << w.name;
        EXPECT_TRUE(got.insert(p).second)
            << w.name << " duplicate " << p.ToString();
      }
      EXPECT_EQ(got, expected) << w.name << " k=" << k;
    }
  }
}

TEST(EnumerateTest, RespectsOptions) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("rides/rides^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());

  PathQueryOptions opts;
  opts.start = fig2::kRosa;
  opts.end = fig2::kJuan;
  PathEnumerator e(*nfa, 2, opts);
  std::vector<Path> all = e.Drain();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].Start(), fig2::kRosa);
  EXPECT_EQ(all[0].End(), fig2::kJuan);

  PathQueryOptions avoid;
  avoid.avoid = fig2::kBus;
  PathEnumerator e2(*nfa, 2, avoid);
  EXPECT_TRUE(e2.Drain().empty());
}

TEST(EnumerateTest, LengthZero) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("?person"));
  ASSERT_TRUE(nfa.ok());
  PathEnumerator e(*nfa, 0);
  std::vector<Path> all = e.Drain();
  EXPECT_EQ(all.size(), 3u);
  for (const Path& p : all) EXPECT_EQ(p.Length(), 0u);
}

TEST(EnumerateTest, DelayBoundedOnExplosiveInstance) {
  // The enumerator must produce the first answers immediately even when
  // the full answer set is astronomically large.
  LabeledGraph g = LayeredDag(12, 6, "n", "e");  // 6^13 ≈ 1.3e10 paths.
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("e*"));
  ASSERT_TRUE(nfa.ok());
  PathEnumerator e(*nfa, 12);
  Path p;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(e.Next(&p));
    ASSERT_EQ(p.Length(), 12u);
  }
}

// ------------------------------------------------------------------ FPRAS

TEST(FprasTest, ExactOnDeterministicInstances) {
  // With a deterministic product (each W-set union has one component of
  // weight one at every step along a layered DAG), estimates are exact.
  LabeledGraph g = LayeredDag(4, 3, "n", "e");
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("e/e/e/e"));
  ASSERT_TRUE(nfa.ok());
  FprasPathCounter counter(*nfa, 4);
  EXPECT_NEAR(counter.Estimate(), std::pow(3.0, 5.0), 1e-9);
}

TEST(FprasTest, CloseToExactAcrossWorkloads) {
  for (Workload& w : MakeWorkloads()) {
    LabeledGraphView view(w.graph);
    RegexPtr regex = Parse(w.query);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << w.name;
    ExactPathIndex index(*nfa, w.length);
    double exact = index.Count(w.length);
    FprasOptions fopts;
    fopts.samples_per_state = 96;
    fopts.union_trials = 256;
    fopts.seed = 99;
    FprasPathCounter counter(*nfa, w.length, {}, fopts);
    double estimate = counter.Estimate();
    if (exact == 0.0) {
      EXPECT_EQ(estimate, 0.0) << w.name;
    } else {
      EXPECT_NEAR(estimate / exact, 1.0, 0.25) << w.name
          << " exact=" << exact << " est=" << estimate;
    }
  }
}

TEST(FprasTest, ZeroWhenNoPaths) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("owns/owns"));
  ASSERT_TRUE(nfa.ok());
  FprasPathCounter counter(*nfa, 2);
  EXPECT_EQ(counter.Estimate(), 0.0);
  Rng rng(3);
  EXPECT_EQ(counter.Sample(&rng).status().code(), StatusCode::kNotFound);
}

TEST(FprasTest, RelativeErrorShrinksWithBudget) {
  Rng gen(2024);
  LabeledGraph g = ErdosRenyi(30, 120, {"p"}, {"a", "b"}, &gen);
  LabeledGraphView view(g);
  RegexPtr regex = Parse("(a+b/b^-)*");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  const size_t k = 6;
  double exact = ExactPathIndex(*nfa, k).Count(k);
  ASSERT_GT(exact, 0.0);

  auto mean_abs_rel_error = [&](FprasOptions base, int reps) {
    double total = 0.0;
    for (int i = 0; i < reps; ++i) {
      base.seed = 1000 + i;
      total += std::fabs(ApproxCount(*nfa, k, {}, base) / exact - 1.0);
    }
    return total / reps;
  };

  FprasOptions small;
  small.samples_per_state = 8;
  small.union_trials = 8;
  FprasOptions large;
  large.samples_per_state = 128;
  large.union_trials = 512;
  double err_small = mean_abs_rel_error(small, 5);
  double err_large = mean_abs_rel_error(large, 5);
  EXPECT_LT(err_large, err_small + 0.02);
  EXPECT_LT(err_large, 0.15);
}

TEST(FprasTest, SamplesAreValidAndCoverAnswerSet) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("rides/rides^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  std::set<Path> expected = RefSet(view, *regex, 2);

  FprasOptions fopts;
  fopts.seed = 5;
  FprasPathCounter counter(*nfa, 2, {}, fopts);
  Rng rng(17);
  std::set<Path> seen;
  for (int i = 0; i < 600; ++i) {
    Result<Path> p = counter.Sample(&rng);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(expected.count(*p)) << p->ToString();
    seen.insert(*p);
  }
  // All nine answers should appear in 600 ≈uniform draws.
  EXPECT_EQ(seen, expected);
}

TEST(FprasTest, ApproxUniformityChiSquare) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("rides/rides^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  FprasOptions fopts;
  fopts.samples_per_state = 128;
  fopts.union_trials = 256;
  FprasPathCounter counter(*nfa, 2, {}, fopts);
  Rng rng(23);
  std::map<Path, int> histogram;
  const int draws = 9000;
  for (int i = 0; i < draws; ++i) {
    Result<Path> p = counter.Sample(&rng);
    ASSERT_TRUE(p.ok());
    histogram[*p]++;
  }
  ASSERT_EQ(histogram.size(), 9u);
  double expected_per_cell = draws / 9.0;
  double chi2 = 0.0;
  for (const auto& [path, count] : histogram) {
    double d = count - expected_per_cell;
    chi2 += d * d / expected_per_cell;
  }
  // Generation is only approximately uniform; allow a loose bound that
  // still rules out gross bias (e.g. one path twice as likely adds
  // ~111 to chi2 here).
  EXPECT_LT(chi2, 80.0);
}

TEST(FprasTest, RespectsOptions) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  RegexPtr regex = Parse("rides/rides^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  PathQueryOptions opts;
  opts.start = fig2::kJuan;
  FprasPathCounter counter(*nfa, 2, opts);
  EXPECT_NEAR(counter.Estimate(), 3.0, 1e-9);  // Deterministic here.
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    Result<Path> p = counter.Sample(&rng);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->Start(), fig2::kJuan);
  }
}

// ------------------------------------------------- shortest path lengths

TEST(ShortestLengthsTest, Figure2Distances) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa =
      PathNfa::Compile(view, *Parse("(rides+rides^-+contact+lives)*"));
  ASSERT_TRUE(nfa.ok());
  auto dist = ShortestAcceptedLengths(*nfa, fig2::kJuan, 10);
  EXPECT_EQ(dist[fig2::kJuan], 0u);
  EXPECT_EQ(dist[fig2::kAna], 1u);
  EXPECT_EQ(dist[fig2::kBus], 1u);
  EXPECT_EQ(dist[fig2::kPedro], 2u);  // Via the bus.
  EXPECT_FALSE(dist[fig2::kCompany].has_value());  // owns not in query.
}

TEST(ShortestLengthsTest, AvoidReroutesOrDisconnects) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa =
      PathNfa::Compile(view, *Parse("(rides+rides^-+contact)*"));
  ASSERT_TRUE(nfa.ok());
  PathQueryOptions opts;
  opts.avoid = fig2::kBus;
  auto dist = ShortestAcceptedLengths(*nfa, fig2::kJuan, 10, opts);
  EXPECT_FALSE(dist[fig2::kPedro].has_value());  // Only route was the bus.
  EXPECT_EQ(dist[fig2::kRosa], 2u);              // contact/contact still works.
}

// ------------------------------------------ shared-scratch pair search

/// Per-source reachability with a freshly zeroed state array for every
/// source: the product BFS the multi-source engine must match row for
/// row, written independently of its scratch reuse. Adds its successor
/// scans to `tally`.
Bitset FreshReach(const PathNfa& nfa, NodeId start,
                  const PathQueryOptions& opts,
                  PathNfa::SuccessorTally* tally) {
  const size_t n = nfa.num_nodes();
  Bitset out(n);
  if (start == opts.avoid) return out;
  if (opts.start != kNoNode && start != opts.start) return out;
  std::vector<PathNfa::StateMask> seen(n, 0);
  std::vector<std::pair<NodeId, uint32_t>> stack;
  auto push = [&](NodeId v, PathNfa::StateMask mask) {
    PathNfa::StateMask fresh = mask & ~seen[v];
    seen[v] |= fresh;
    for (uint32_t q = 0; q < 64; ++q) {
      if (fresh & (1ull << q)) stack.emplace_back(v, q);
    }
  };
  push(start, nfa.StartMask(start));
  while (!stack.empty()) {
    auto [v, q] = stack.back();
    stack.pop_back();
    nfa.ForEachSuccessor(v, q, tally, [&](NodeId to, uint32_t to_state) {
      if (to != opts.avoid) push(to, nfa.CloseAt(to, 1ull << to_state));
    });
  }
  for (NodeId v = 0; v < n; ++v) {
    if (nfa.Accepting(seen[v]) && (opts.end == kNoNode || v == opts.end)) {
      out.Set(v);
    }
  }
  return out;
}

// Consecutive sources of one chunk share a thread's scratch, and on
// these graphs their reaches overlap heavily (a giant component under
// the closures), so a scratch entry left dirty by one source would hide
// nodes from the next. Every multi-source entry point must equal the
// fresh per-source search under every restriction, at 1 and 4 threads,
// on both the NFA engine and kAuto.
TEST(PairSearchTest, ReusedScratchMatchesFreshSearch) {
  Rng rng(7);
  struct Case {
    LabeledGraph graph;
    std::vector<std::string> queries;
  };
  std::vector<Case> cases;
  cases.push_back({ErdosRenyi(300, 900, {"p", "q"}, {"a", "b"}, &rng),
                   {"a*", "(a+b)*", "a/b^-", "(a/b)*/a", "?p/(a+b^-)*/?q"}});
  // Sparse rows spread over a wide id range (a*: small ancestor sets)
  // next to one dense closure.
  cases.push_back({BarabasiAlbert(600, 2, {"p", "q"}, {"a", "b"}, &rng),
                   {"a*", "(a+a^-)*", "b/a^-"}});
  for (const Case& c : cases) {
    LabeledGraphView view(c.graph);
    const NodeId mid = static_cast<NodeId>(c.graph.num_nodes() / 2);
    std::vector<PathQueryOptions> restrictions(5);
    restrictions[1].start = mid;
    restrictions[2].end = mid;
    restrictions[3].avoid = 0;
    restrictions[4].start = 1;
    restrictions[4].end = mid;
    restrictions[4].avoid = 2;
    for (const std::string& q : c.queries) {
      Result<PathNfa> nfa = PathNfa::Compile(view, *Parse(q));
      ASSERT_TRUE(nfa.ok()) << q;
      for (size_t r = 0; r < restrictions.size(); ++r) {
        std::vector<Bitset> want;
        double want_count = 0;
        PathNfa::SuccessorTally tally;
        for (NodeId a = 0; a < c.graph.num_nodes(); ++a) {
          want.push_back(FreshReach(*nfa, a, restrictions[r], &tally));
          want_count += static_cast<double>(want.back().Count());
        }
        for (size_t threads : {1, 4}) {
          for (PathEngine engine : {PathEngine::kNfa, PathEngine::kAuto}) {
            SCOPED_TRACE(q + " restriction " + std::to_string(r) + " threads " +
                         std::to_string(threads) + " auto " +
                         std::to_string(engine == PathEngine::kAuto));
            PathQueryOptions opts = restrictions[r];
            opts.parallel.num_threads = threads;
            opts.engine = engine;
            ASSERT_EQ(AllPairs(*nfa, opts), want);
            BoolCsr rel = PairRelation(*nfa, opts);
            ASSERT_EQ(rel.num_rows, want.size());
            for (NodeId a = 0; a < want.size(); ++a) {
              std::vector<uint32_t> row(rel.cols.begin() + rel.offsets[a],
                                        rel.cols.begin() + rel.offsets[a + 1]);
              ASSERT_EQ(row, want[a].ToVector()) << "row " << a;
            }
            ASSERT_EQ(CountPairs(*nfa, opts), want_count);
          }
        }
        PathQueryOptions single = restrictions[r];
        for (NodeId a : {NodeId{0}, NodeId{1}, mid}) {
          ASSERT_EQ(ReachableFrom(*nfa, a, single), want[a]) << q << " " << a;
        }
      }
    }
  }
}

// The NFA engine tallies its successor scans per search chunk and adds
// them to the registry once per chunk: the rpq.successor.* totals of a
// call equal the sum over sources of one search each, at every thread
// count.
TEST(PairSearchTest, SuccessorCountersAreExactAtEveryThreadCount) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::Registry::SetEnabled(true);
  Rng rng(11);
  LabeledGraph g = ErdosRenyi(300, 900, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  const char* const names[] = {"rpq.successor.edges_scanned",
                               "rpq.successor.label_partition_hits",
                               "rpq.successor.bitset_fallback_hits"};
  // A pure-label closure, and a non-label test on the bitset path.
  for (const char* q : {"(a+b^-)*", "?p/[!a]*"}) {
    SCOPED_TRACE(q);
    Result<PathNfa> nfa = PathNfa::Compile(view, *Parse(q));
    ASSERT_TRUE(nfa.ok()) << nfa.status();
    PathNfa::SuccessorTally tally;
    for (NodeId a = 0; a < g.num_nodes(); ++a) {
      FreshReach(*nfa, a, {}, &tally);
    }
    const uint64_t want[] = {tally.edges_scanned, tally.label_partition_hits,
                             tally.bitset_fallback_hits};
    ASSERT_GT(want[0], 0u);
    for (size_t threads : {1, 4}) {
      PathQueryOptions opts;
      opts.engine = PathEngine::kNfa;
      opts.parallel.num_threads = threads;
      uint64_t before[3];
      for (int i = 0; i < 3; ++i) {
        before[i] = obs::Registry::Get().CounterValue(names[i]);
      }
      (void)PairRelation(*nfa, opts);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(obs::Registry::Get().CounterValue(names[i]) - before[i],
                  want[i])
            << names[i] << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace kgq
