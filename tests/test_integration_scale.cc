// End-to-end integration at non-toy scale: one synthetic city pushed
// through the whole stack — declarative MATCH, modal logic, the product
// engine, analytics, RDF round trip — with cross-engine consistency
// checks. Guards against "works on Figure 2 only" regressions.

#include <gtest/gtest.h>

#include "analytics/pagerank.h"
#include "datasets/contact_scenario.h"
#include "graph/conversions.h"
#include "graph/graph_view.h"
#include "graph/io.h"
#include "logic/modal.h"
#include "pathalg/pairs.h"
#include "query/match_query.h"
#include "rdf/convert.h"
#include "rdf/reify.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/timer.h"

namespace kgq {
namespace {

class ScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(20260705);
    ContactScenarioOptions opts;
    opts.num_people = 2000;
    opts.num_buses = 25;
    opts.num_companies = 4;
    city_ = new PropertyGraph(ContactScenario(opts, &rng));
  }
  static void TearDownTestSuite() {
    delete city_;
    city_ = nullptr;
  }

  static PropertyGraph* city_;
};

PropertyGraph* ScaleTest::city_ = nullptr;

TEST_F(ScaleTest, MatchModalAndPairsAgree) {
  PropertyGraphView view(*city_);
  Timer timer;

  // 1. Declarative MATCH.
  Result<QueryResult> match = RunMatch(
      view,
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) RETURN x");
  ASSERT_TRUE(match.ok()) << match.status();

  // 2. Modal logic on the labeled projection.
  LabeledGraph labeled = PropertyToLabeled(*city_);
  ModalPtr psi = ModalFormula::And(
      ModalFormula::Label("person"),
      ModalFormula::Diamond(
          "rides", 1,
          ModalFormula::DiamondInv("rides", 1,
                                   ModalFormula::Label("infected"))));
  Bitset modal = EvalModal(labeled, *psi);

  // The MATCH x-projection must equal the modal answer set. (The modal
  // form skips the ?bus test; every rides target is a bus by
  // construction of the scenario.)
  Bitset from_match(city_->num_nodes());
  for (size_t r = 0; r < match->rows.size(); ++r) {
    from_match.Set(match->rows[r][0]);
  }
  EXPECT_EQ(from_match, modal);
  EXPECT_GT(modal.Count(), 50u);  // Sanity: infections spread.

  // 3. Pair semantics directly.
  RegexPtr full = *ParseRegex("?person/rides/rides^-/?infected");
  PathNfa nfa = *PathNfa::Compile(view, *full);
  size_t starts_with_answers = 0;
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    if (modal.Test(n)) {
      EXPECT_TRUE(ReachableFrom(nfa, n).Any()) << n;
      ++starts_with_answers;
    }
  }
  EXPECT_EQ(starts_with_answers, modal.Count());

  // The whole consistency check should be fast even at this size.
  EXPECT_LT(timer.Seconds(), 30.0);
}

TEST_F(ScaleTest, SerializationSurvivesScale) {
  std::string text = SavePropertyGraph(*city_);
  Result<PropertyGraph> back = LoadPropertyGraph(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), city_->num_nodes());
  EXPECT_EQ(back->num_edges(), city_->num_edges());
}

TEST_F(ScaleTest, ReifiedRdfRoundTripAtScale) {
  TripleStore store = PropertyToRdf(*city_);
  EXPECT_GT(store.size(), city_->num_edges() * 3);  // src+tgt+label each.
  Result<PropertyGraph> back = RdfToProperty(store);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_edges(), city_->num_edges());
}

TEST_F(ScaleTest, AnalyticsRunAtScale) {
  std::vector<double> pr = PageRank(CsrSnapshot::FromGraph(*city_));
  double sum = 0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Buses should be far more central than the median person.
  NodeId first_bus = 2000;
  double bus_pr = 0;
  for (NodeId b = first_bus; b < first_bus + 25; ++b) bus_pr += pr[b];
  EXPECT_GT(bus_pr / 25.0, pr[0] * 3);
}

}  // namespace
}  // namespace kgq
