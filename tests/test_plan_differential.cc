// Randomized differential testing of the query planner: random
// conjunctive queries with regular path atoms over ER and BA graphs,
// planned execution (optimized and naive, on labeled, property and
// epoch views, matrix RPQ engine forced and off, at 1 and 4 threads)
// against the retained reference evaluators of all three front-ends.
// The planner may pick any join order and any physical operator — the
// canonical output discipline (sorted, deduplicated, limited) makes the
// comparison bit-exact.
//
// The views cover the executor's two regimes. A labeled or property
// view's own CSR of an insertion-ordered graph generally has unsorted
// label spans, so scans materialize and Project sorts. The same graph
// published through a DeltaStore is canonically ordered: its epoch
// view's CSR has sorted spans, so scans stream in order, LIMIT stops
// early and closing edges probe instead of hash-joining.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/conversions.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/rdf_view.h"
#include "rdf/triple_store.h"
#include "rpq/crpq.h"
#include "serve/delta_store.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Random regex over edge labels {a, b} and node labels {p, q} — the
/// same alphabet test_regex_fuzz.cc uses, kept small so pair relations
/// stay dense enough to exercise the joins.
RegexPtr RandomPath(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    switch (rng->Below(4)) {
      case 0:
        return Regex::EdgeLabel(rng->Bernoulli(0.5) ? "a" : "b");
      case 1:
        return Regex::EdgeLabelBwd(rng->Bernoulli(0.5) ? "a" : "b");
      case 2:
        return Regex::NodeLabel(rng->Bernoulli(0.5) ? "p" : "q");
      default:
        return Regex::EdgeFwd(
            TestExpr::Or(TestExpr::Label("a"), TestExpr::Label("b")));
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return Regex::Union(RandomPath(rng, depth - 1),
                          RandomPath(rng, depth - 1));
    case 1:
      return Regex::Concat(RandomPath(rng, depth - 1),
                           RandomPath(rng, depth - 1));
    default:
      return Regex::Star(RandomPath(rng, depth - 1));
  }
}

/// Random cyclic two-atom CRPQ: x→y closed by y→x, over the same or
/// different labels, either atom possibly inverse (the closing one also
/// as (x) -[ l^- ]-> (y), or as a self-loop on x), random node tests, a
/// head in or out of scan order, and a LIMIT below or above the answer
/// size.
Crpq RandomCyclicCrpq(Rng* rng) {
  auto label_atom = [&](bool inverse) {
    const char* label = rng->Bernoulli(0.5) ? "a" : "b";
    return inverse ? Regex::EdgeLabelBwd(label) : Regex::EdgeLabel(label);
  };
  Crpq q;
  q.atoms.push_back({"x", "y", label_atom(rng->Bernoulli(0.25))});
  switch (rng->Below(4)) {
    case 0:
      q.atoms.push_back({"x", "y", label_atom(true)});
      break;
    case 1:
      q.atoms.push_back({"x", "x", label_atom(rng->Bernoulli(0.5))});
      break;
    default:
      q.atoms.push_back({"y", "x", label_atom(rng->Bernoulli(0.25))});
      break;
  }
  for (const char* v : {"x", "y"}) {
    if (rng->Bernoulli(0.3)) {
      q.node_tests[v] = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    }
  }
  const std::vector<std::vector<std::string>> heads = {
      {"x", "y"}, {"x", "y"}, {"x"}, {"y"}, {"y", "x"}};
  q.head = heads[rng->Below(heads.size())];
  // Cyclic answers are small on these graphs: the tight limits fall
  // below the answer size, the loose ones mostly above it.
  if (rng->Bernoulli(0.6)) {
    q.limit = 1 + rng->Below(rng->Bernoulli(0.5) ? 3 : 12);
  }
  return q;
}

/// Random CRPQ: 2–4 variables, 1–3 atoms over them, random node tests,
/// maybe a test-only variable, random head and limit.
Crpq RandomCrpq(Rng* rng) {
  Crpq q;
  const std::vector<std::string> pool = {"v0", "v1", "v2", "v3"};
  size_t num_vars = 2 + rng->Below(3);
  size_t num_atoms = 1 + rng->Below(3);
  std::vector<std::string> used;
  for (size_t i = 0; i < num_atoms; ++i) {
    std::string src = pool[rng->Below(num_vars)];
    std::string dst = pool[rng->Below(num_vars)];
    q.atoms.push_back({src, dst, RandomPath(rng, 2)});
    used.push_back(src);
    used.push_back(dst);
  }
  // Random node tests on some atom variables.
  for (const std::string& v : used) {
    if (rng->Bernoulli(0.3)) {
      q.node_tests[v] = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    }
  }
  // Sometimes a test-only variable (NodeScan path).
  if (rng->Bernoulli(0.25)) {
    q.node_tests["w"] = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    used.push_back("w");
  }
  // Head: 1–2 distinct declared variables.
  size_t h = 1 + rng->Below(2);
  for (size_t i = 0; i < h; ++i) {
    const std::string& v = used[rng->Below(used.size())];
    if (std::find(q.head.begin(), q.head.end(), v) == q.head.end()) {
      q.head.push_back(v);
    }
  }
  if (rng->Bernoulli(0.3)) q.limit = 1 + rng->Below(10);
  return q;
}

class PlanDifferential : public ::testing::TestWithParam<int> {};

/// `g` published through a DeltaStore: the same nodes, labels and edge
/// set (parallel duplicates collapse, which pair semantics cannot see),
/// in canonical edge order.
serve::EpochPtr PublishCanonical(const LabeledGraph& g) {
  serve::DeltaStore store;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    store.AddNode(g.NodeLabelString(n));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(store
                    .InsertEdge(g.topology().EdgeSource(e),
                                g.topology().EdgeTarget(e),
                                g.EdgeLabelString(e))
                    .ok());
  }
  serve::EpochPtr epoch = store.Publish();
  EXPECT_TRUE(epoch->csr->label_spans_sorted());
  return epoch;
}

/// The views a planned query runs on: a labeled and a property view
/// with their own CSRs, and the epoch view of the graph published
/// canonically (sorted spans).
struct PlannedViews {
  explicit PlannedViews(const LabeledGraph& g)
      : labeled(g),
        property(LabeledToProperty(g)),
        property_view(property),
        epoch(PublishCanonical(g)),
        epoch_view(epoch->View()),
        all{{"labeled", &labeled},
            {"property", &property_view},
            {"epoch", &epoch_view}} {}

  const LabeledGraphView labeled;
  const PropertyGraph property;
  const PropertyGraphView property_view;
  const serve::EpochPtr epoch;
  const serve::EpochGraphView epoch_view;
  const std::vector<std::pair<const char*, const GraphView*>> all;
};

TEST_P(PlanDifferential, PlannedCrpqMatchesReference) {
  const int seed = GetParam();
  Rng rng(9000 + seed);
  // Alternate graph families; sizes stay small because the reference
  // oracle is a nested-loop join.
  LabeledGraph g =
      (seed % 2 == 0)
          ? ErdosRenyi(10 + rng.Below(8), 25 + rng.Below(25), {"p", "q"},
                       {"a", "b"}, &rng)
          : BarabasiAlbert(12 + rng.Below(8), 2, {"p", "q"}, {"a", "b"},
                           &rng);
  const PlannedViews views(g);
  const LabeledGraphView& view = views.labeled;

  PlannerOptions naive;
  naive.push_filters = false;
  naive.reorder_joins = false;
  naive.edge_scan_fastpath = false;
  naive.matrix_rpq = MatrixRpqMode::kOff;

  // Five general queries, then three cyclic ones.
  for (int round = 0; round < 8; ++round) {
    Crpq q = round < 5 ? RandomCrpq(&rng) : RandomCyclicCrpq(&rng);
    SCOPED_TRACE(q.ToString());
    Result<RowSet> ref = EvalCrpqReference(view, q);
    ASSERT_TRUE(ref.ok()) << ref.status();

    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const auto& [name, on] : views.all) {
        for (bool optimized : {true, false}) {
          // The matrix engine is a pure physical choice: forcing it on
          // (or off) must never change a row, on optimized and naive
          // plans alike.
          for (MatrixRpqMode matrix :
               {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
            CrpqOptions opts;
            opts.parallel.num_threads = threads;
            if (!optimized) opts.planner = naive;
            opts.planner.matrix_rpq = matrix;
            Result<RowSet> got = EvalCrpq(*on, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_EQ(got->schema, ref->schema);
            ASSERT_EQ(got->rows, ref->rows)
                << name << " threads=" << threads
                << " optimized=" << optimized
                << " matrix=" << (matrix == MatrixRpqMode::kAlways);
          }
        }
      }
    }
  }
}

TEST_P(PlanDifferential, PlannedMatchQueryMatchesReference) {
  const int seed = GetParam();
  Rng rng(4000 + seed);
  LabeledGraph g = ErdosRenyi(10 + rng.Below(6), 30 + rng.Below(20),
                              {"p", "q"}, {"a", "b"}, &rng);
  const PlannedViews views(g);
  const LabeledGraphView& view = views.labeled;

  for (int round = 0; round < 4; ++round) {
    // Random chain of 1–3 hops with random endpoint tests.
    MatchQuery mq;
    size_t hops = 1 + rng.Below(3);
    for (size_t i = 0; i <= hops; ++i) {
      NodePattern np;
      np.var = "x" + std::to_string(i);
      if (rng.Bernoulli(0.4)) {
        np.test = TestExpr::Label(rng.Bernoulli(0.5) ? "p" : "q");
      }
      mq.nodes.push_back(std::move(np));
      if (i < hops) {
        mq.paths.push_back(PathExpr::Regular(RandomPath(&rng, 2)));
      }
    }
    mq.returns = {"x0", "x" + std::to_string(hops)};
    if (rng.Bernoulli(0.3)) mq.limit = 1 + rng.Below(8);
    SCOPED_TRACE(mq.ToString());

    Result<QueryResult> ref = ExecuteMatch(view, mq);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const auto& [name, on] : views.all) {
        for (MatrixRpqMode matrix :
             {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
          MatchPlanOptions opts;
          opts.parallel.num_threads = threads;
          opts.planner.matrix_rpq = matrix;
          Result<QueryResult> got = ExecuteMatchPlanned(*on, mq, opts);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_EQ(got->columns, ref->columns);
          ASSERT_EQ(got->rows, ref->rows)
              << name << " threads=" << threads
              << " matrix=" << (matrix == MatrixRpqMode::kAlways);
        }
      }
    }
  }
}

TEST_P(PlanDifferential, PlannedBgpMatchesReference) {
  const int seed = GetParam();
  Rng rng(7000 + seed);
  // Random small triple store: subjects/objects from a small universe,
  // predicates from {a, b, type}; "type" triples double as node labels.
  TripleStore store;
  size_t n_terms = 6 + rng.Below(5);
  size_t n_triples = 15 + rng.Below(20);
  auto term = [&](size_t i) { return "t" + std::to_string(i); };
  for (size_t i = 0; i < n_triples; ++i) {
    const char* preds[] = {"a", "b"};
    store.Insert(term(rng.Below(n_terms)), preds[rng.Below(2)],
                 term(rng.Below(n_terms)));
  }
  for (size_t i = 0; i < n_terms; ++i) {
    if (rng.Bernoulli(0.4)) {
      store.Insert(term(i), "type", rng.Bernoulli(0.5) ? "p" : "q");
    }
  }

  const RdfGraphView view(store);
  const std::vector<std::string> queries = {
      "?x a ?y",
      "?x a ?y . ?y b ?z",
      "?x a ?y . ?y a ?x",
      "?x (a/b) ?y",
      "?x ((a+b)*) ?y . ?y type p",
      "?x a t0",
      "t1 (a^-) ?x . ?x b ?y",
      "?x a ?x",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    Result<std::vector<TriplePattern>> patterns = ParseBgp(text);
    ASSERT_TRUE(patterns.ok()) << patterns.status();
    Result<std::vector<Binding>> ref = EvalBgp(store, *patterns);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (MatrixRpqMode matrix :
           {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
        BgpPlanOptions opts;
        opts.parallel.num_threads = threads;
        opts.planner.matrix_rpq = matrix;
        Result<std::vector<Binding>> got =
            EvalBgpPlanned(view, *patterns, opts);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(*got, *ref)
            << "threads=" << threads
            << " matrix=" << (matrix == MatrixRpqMode::kAlways);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferential, ::testing::Range(0, 32));

}  // namespace
}  // namespace kgq
