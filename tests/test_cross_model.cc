// Cross-model consistency: the same data in every representation the
// paper discusses (labeled graph, property graph, vector-labeled graph,
// RDF triples) must give the same answers to the same query, whichever
// engine asks — the "unified and simple view of the data models" of
// Section 3, checked end to end.

#include <gtest/gtest.h>

#include <set>

#include "datasets/contact_scenario.h"
#include "datasets/figure2.h"
#include "graph/conversions.h"
#include "graph/graph_view.h"
#include "pathalg/pairs.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "rdf/rdf_view.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

namespace kgq {
namespace {

/// Start→end pair set of a query under pair semantics, as strings
/// "a>b" over *original* node ids so different views are comparable.
std::set<std::string> PairSet(const GraphView& view, const std::string& q) {
  RegexPtr regex = *ParseRegex(q);
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  EXPECT_TRUE(nfa.ok()) << q << ": " << nfa.status();
  std::set<std::string> out;
  std::vector<Bitset> pairs = AllPairs(*nfa);
  for (NodeId a = 0; a < view.num_nodes(); ++a) {
    pairs[a].ForEach([&](size_t b) {
      out.insert(std::to_string(a) + ">" + std::to_string(b));
    });
  }
  return out;
}

/// Same, over the RDF view with "n<i>" terms mapped back to indexes.
std::set<std::string> PairSetRdf(const TripleStore& store,
                                 const std::string& q) {
  RdfGraphView view(store);
  RegexPtr regex = *ParseRegex(q);
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  EXPECT_TRUE(nfa.ok()) << q << ": " << nfa.status();
  std::set<std::string> out;
  std::vector<Bitset> pairs = AllPairs(*nfa);
  for (NodeId a = 0; a < view.num_nodes(); ++a) {
    const std::string& a_term = view.TermOf(a);
    if (a_term.empty() || a_term[0] != 'n') continue;
    pairs[a].ForEach([&](size_t b) {
      const std::string& b_term = view.TermOf(static_cast<NodeId>(b));
      if (b_term.empty() || b_term[0] != 'n') return;
      out.insert(a_term.substr(1) + ">" + b_term.substr(1));
    });
  }
  return out;
}

class CrossModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossModelTest, LabelQueriesAgreeAcrossAllModels) {
  const std::string query = GetParam();

  PropertyGraph pg = Figure2Property();
  LabeledGraph lg = Figure2Labeled();
  VectorGraph vg = Figure2Vector(nullptr);
  TripleStore rdf = LabeledToRdf(lg);

  LabeledGraphView lview(lg);
  PropertyGraphView pview(pg);
  VectorGraphView vview(vg);

  std::set<std::string> labeled = PairSet(lview, query);
  EXPECT_EQ(PairSet(pview, query), labeled) << "property vs labeled";
  EXPECT_EQ(PairSet(vview, query), labeled) << "vector vs labeled";
  // RDF: node labels live in kgq:label triples, understood by the view.
  // Parallel edges collapse in this encoding, but pair semantics is
  // insensitive to multiplicity, so the sets still agree.
  EXPECT_EQ(PairSetRdf(rdf, query), labeled) << "rdf vs labeled";
}

INSTANTIATE_TEST_SUITE_P(
    Fig2Queries, CrossModelTest,
    ::testing::Values("?person/rides/?bus/rides^-/?infected",
                      "(contact+lives)*",
                      "?person/(rides+rides^-)*/?company",
                      "owns^-",
                      "?infected/rides/?bus/rides^-/"
                      "(?person/(lives+contact))*/?person"));

TEST(CrossModelTest, MatchRowsAgreeOnScaledScenario) {
  Rng rng(64);
  ContactScenarioOptions opts;
  opts.num_people = 120;
  PropertyGraph pg = ContactScenario(opts, &rng);
  LabeledGraph lg = PropertyToLabeled(pg);
  PropertyGraphView pview(pg);
  LabeledGraphView lview(lg);
  const std::string q =
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) RETURN x, y";
  Result<QueryResult> on_property = RunMatch(pview, q);
  Result<QueryResult> on_labeled = RunMatch(lview, q);
  ASSERT_TRUE(on_property.ok() && on_labeled.ok());
  EXPECT_EQ(on_property->rows, on_labeled->rows);
  EXPECT_FALSE(on_property->rows.empty());
}

TEST(CrossModelTest, BgpAndMatchAgreeOnRdfEncoding) {
  LabeledGraph lg = Figure2Labeled();
  TripleStore rdf = LabeledToRdf(lg);

  // BGP with a property path...
  Result<std::vector<TriplePattern>> patterns = ParseBgp(
      "?x kgq:label person . ?x (rides/rides^-) ?y . ?y kgq:label infected");
  ASSERT_TRUE(patterns.ok());
  Result<std::vector<Binding>> bgp = EvalBgp(rdf, *patterns);
  ASSERT_TRUE(bgp.ok());
  std::set<std::string> from_bgp;
  for (const Binding& b : *bgp) {
    from_bgp.insert(rdf.dict().Lookup(b.at("x")) + ">" +
                    rdf.dict().Lookup(b.at("y")));
  }

  // ...and MATCH over the RDF view must coincide.
  RdfGraphView view(rdf);
  Result<QueryResult> match = RunMatch(
      view,
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) RETURN x, y");
  ASSERT_TRUE(match.ok());
  std::set<std::string> from_match;
  for (size_t r = 0; r < match->rows.size(); ++r) {
    from_match.insert(view.TermOf(match->rows[r][0]) + ">" +
                      view.TermOf(match->rows[r][1]));
  }
  EXPECT_EQ(from_bgp, from_match);
  EXPECT_EQ(from_bgp.size(), 2u);  // Juan and Rosa to Pedro.
}

}  // namespace
}  // namespace kgq
