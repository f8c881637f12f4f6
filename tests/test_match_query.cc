#include "query/match_query.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "datasets/figure2.h"
#include "graph/graph_view.h"

namespace kgq {
namespace {

PropertyGraph g_fig2 = Figure2Property();

/// One result row, copied out to compare with a literal.
std::vector<NodeId> Row(std::span<const NodeId> row) {
  return {row.begin(), row.end()};
}

QueryResult RunQuery(const std::string& text) {
  PropertyGraphView view(g_fig2);
  Result<QueryResult> r = RunMatch(view, text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return r.ok() ? *r : QueryResult{};
}

TEST(MatchQueryTest, BasicSharedBusQuery) {
  QueryResult r = RunQuery(
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) RETURN x, y");
  ASSERT_EQ(r.columns, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(Row(r.rows[0]), (std::vector<NodeId>{fig2::kJuan, fig2::kPedro}));
  EXPECT_EQ(Row(r.rows[1]), (std::vector<NodeId>{fig2::kRosa, fig2::kPedro}));
}

TEST(MatchQueryTest, ProjectionDeduplicates) {
  QueryResult r = RunQuery(
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) RETURN y");
  ASSERT_EQ(r.rows.size(), 1u);  // Both matches project to Pedro.
  EXPECT_EQ(r.rows[0][0], fig2::kPedro);
}

TEST(MatchQueryTest, WhereClauseFiltersByProperty) {
  QueryResult r = RunQuery(
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) "
      "WHERE x.age = \"34\" RETURN x");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], fig2::kJuan);

  QueryResult both = RunQuery(
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) "
      "WHERE x.name = \"Rosa\" AND y.name = \"Pedro\" RETURN x, y");
  ASSERT_EQ(both.rows.size(), 1u);
  EXPECT_EQ(both.rows[0][0], fig2::kRosa);
}

TEST(MatchQueryTest, LimitTruncates) {
  QueryResult r = RunQuery(
      "MATCH (x) -[ (rides+rides^-+contact+lives)* ]-> (y) RETURN x, y "
      "LIMIT 5");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST(MatchQueryTest, UnrestrictedVariables) {
  QueryResult r = RunQuery("MATCH (a) -[ owns ]-> (b) RETURN a, b");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Row(r.rows[0]), (std::vector<NodeId>{fig2::kCompany, fig2::kBus}));
}

TEST(MatchQueryTest, CompoundNodeTest) {
  QueryResult r = RunQuery(
      "MATCH (x: [person | infected]) -[ rides ]-> (y: bus) RETURN x");
  EXPECT_EQ(r.rows.size(), 3u);  // Juan, Pedro, Rosa.
}

TEST(MatchQueryTest, PathWithNestedBracketsAndQuotes) {
  QueryResult r = RunQuery(
      "MATCH (x) -[ [contact & date=\"3/4/21\"] ]-> (y) RETURN x, y");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Row(r.rows[0]), (std::vector<NodeId>{fig2::kJuan, fig2::kAna}));
}

TEST(MatchQueryTest, KeywordsCaseInsensitive) {
  QueryResult r = RunQuery(
      "match (x: person) -[ rides ]-> (y: bus) return x limit 10");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(MatchQueryTest, ToStringRoundTrips) {
  Result<MatchQuery> q = ParseMatchQuery(
      "MATCH (x: person) -[ rides/rides^- ]-> (y: infected) "
      "WHERE x.age = \"34\" RETURN x, y LIMIT 3");
  ASSERT_TRUE(q.ok());
  Result<MatchQuery> again = ParseMatchQuery(q->ToString());
  ASSERT_TRUE(again.ok()) << q->ToString();
  EXPECT_EQ(q->ToString(), again->ToString());
}

TEST(MatchQueryTest, ParseErrors) {
  auto fails = [](const std::string& text) {
    PropertyGraphView view(g_fig2);
    Result<QueryResult> r = RunMatch(view, text);
    EXPECT_FALSE(r.ok()) << text;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
    }
  };
  fails("");
  fails("SELECT x");
  fails("MATCH x -[ a ]-> (y) RETURN x");
  fails("MATCH (x) -[ a ]-> (x) RETURN x");           // Duplicate variable.
  fails("MATCH (x) -[ a ]-> (y) -[ b ]-> (x) RETURN x");  // Dup in chain.
  fails("MATCH (x) RETURN x");                        // No hops.
  fails("MATCH (x) -[ a ]-> (y) RETURN z");           // Unknown var.
  fails("MATCH (x) -[ a ]-> (y) WHERE z.p = q RETURN x");
  fails("MATCH (x) -[ a ]-> (y)");                    // Missing RETURN.
  fails("MATCH (x) -[ a ]-> (y) RETURN x LIMIT 0");
  fails("MATCH (x) -[ a ]-> (y) RETURN x LIMIT ten");
  fails("MATCH (x) -[ a/ ]-> (y) RETURN x");          // Bad regex.
  fails("MATCH (x) -[ a ]-> (y) RETURN x extra");
  fails("MATCH (x -[ a ]-> (y) RETURN x");
  fails("MATCH (x) -[ a -> (y) RETURN x");
}

TEST(MatchQueryTest, MultiHopChain) {
  // Three node variables, two hops: person → bus → infected, with the
  // bus exposed as a column.
  QueryResult r = RunQuery(
      "MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> "
      "(y: infected) RETURN x, b, y");
  ASSERT_EQ(r.columns, (std::vector<std::string>{"x", "b", "y"}));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(Row(r.rows[0]),
            (std::vector<NodeId>{fig2::kJuan, fig2::kBus, fig2::kPedro}));
  EXPECT_EQ(Row(r.rows[1]),
            (std::vector<NodeId>{fig2::kRosa, fig2::kBus, fig2::kPedro}));
}

TEST(MatchQueryTest, MultiHopWhereOnMiddleVariable) {
  QueryResult r = RunQuery(
      "MATCH (c: company) -[ owns ]-> (b: bus) -[ rides^- ]-> (p) "
      "WHERE p.name = \"Rosa\" RETURN c, p");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Row(r.rows[0]), (std::vector<NodeId>{fig2::kCompany, fig2::kRosa}));
}

TEST(MatchQueryTest, MultiHopJoinIsConsistentWithSingleHop) {
  // (x)-[a]->(m)-[b]->(y) projected to (x,y) must equal (x)-[a/b]->(y).
  QueryResult chain = RunQuery(
      "MATCH (x) -[ rides ]-> (m) -[ owns^- ]-> (y) RETURN x, y");
  QueryResult direct = RunQuery(
      "MATCH (x) -[ rides/owns^- ]-> (y) RETURN x, y");
  EXPECT_EQ(chain.rows, direct.rows);
  EXPECT_FALSE(chain.rows.empty());
}

TEST(MatchQueryTest, WorksOnLabeledGraphs) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<QueryResult> r = RunMatch(
      view,
      "MATCH (x: infected) -[ rides/rides^-/(contact+lives)* ]-> (y: person)"
      " RETURN y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);  // Juan, Ana, Rosa.
}

}  // namespace
}  // namespace kgq
