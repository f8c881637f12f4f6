// Plan/result cache semantics of the serving layer: hit at the same
// epoch, miss after a content-changing Publish(), invalidation exactly
// once per *content change* (empty publishes bump the epoch but keep
// the cache), canonical-text keying, and the obs counter trail
// (serve.cache.hit/miss/invalidate).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace kgq {
namespace serve {
namespace {

Request Query(QueryLang lang, std::string text) {
  Request req;
  req.op = RequestOp::kQuery;
  req.lang = lang;
  req.text = std::move(text);
  return req;
}

/// Counter read that is 0 in a -DKGQ_OBS=OFF build; assertions about
/// counters must be gated on obs::kCompiledIn.
uint64_t Count(const char* name) {
  return obs::Registry::Get().CounterValue(name);
}

class ServeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Get().Reset();
    server_.store().AddNode("person");
    server_.store().AddNode("bus");
    ASSERT_TRUE(server_.store().InsertEdge(0, 1, "rides").ok());
    server_.store().Publish();
  }

  Server server_;
};

TEST_F(ServeCacheTest, HitAtSameEpochMissAfterPublish) {
  const Request req =
      Query(QueryLang::kMatch, "MATCH (x) -[ rides ]-> (y) RETURN x, y");

  const uint64_t miss0 = Count("serve.cache.miss");
  const uint64_t hit0 = Count("serve.cache.hit");

  Result<QueryAnswer> first =
      server_.ExecuteQueryAt(req, server_.store().Acquire());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cached);

  Result<QueryAnswer> second =
      server_.ExecuteQueryAt(req, server_.store().Acquire());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cached);
  EXPECT_TRUE(*second == *first);  // Same rows, same epoch.

  if (obs::kCompiledIn) {
    EXPECT_EQ(Count("serve.cache.miss"), miss0 + 1);
    EXPECT_EQ(Count("serve.cache.hit"), hit0 + 1);
  }

  // Publish bumps the epoch: the same query text misses again and the
  // answer moves to the new epoch.
  ASSERT_TRUE(server_.store().DeleteEdge(0, 1, "rides").ok());
  server_.Publish();

  Result<QueryAnswer> third =
      server_.ExecuteQueryAt(req, server_.store().Acquire());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cached);
  EXPECT_EQ(third->epoch, first->epoch + 1);
  EXPECT_TRUE(third->rows.empty());
  if (obs::kCompiledIn) {
    EXPECT_EQ(Count("serve.cache.miss"), miss0 + 2);
  }
}

TEST_F(ServeCacheTest, PublishInvalidatesOnlyOnContentChange) {
  const std::string query =
      R"j({"op":"query","lang":"crpq","text":"q(x, y) :- (x) -[ rides ]-> (y)"})j";

  const uint64_t inval0 = Count("serve.cache.invalidate");
  EXPECT_NE(server_.HandleLine(query).find("\"cached\":false"),
            std::string::npos);
  EXPECT_NE(server_.HandleLine(query).find("\"cached\":true"),
            std::string::npos);

  // An *empty* publish bumps the epoch but republishes identical
  // content: the cache survives, the next request still hits, and the
  // served answer reports the new epoch.
  const uint64_t epoch_before = server_.store().CurrentEpoch();
  server_.HandleLine(R"({"op":"publish"})");
  if (obs::kCompiledIn) {
    EXPECT_EQ(Count("serve.cache.invalidate"), inval0);
  }
  EXPECT_EQ(server_.cache().size(), 1u);
  std::string after_empty = server_.HandleLine(query);
  EXPECT_NE(after_empty.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(after_empty.find("\"epoch\":" +
                             std::to_string(epoch_before + 1)),
            std::string::npos);

  // A content-changing publish — exactly one invalidation, and the next
  // request recomputes.
  server_.HandleLine(R"({"op":"add_node","label":"late"})");
  server_.HandleLine(R"({"op":"publish"})");
  if (obs::kCompiledIn) {
    EXPECT_EQ(Count("serve.cache.invalidate"), inval0 + 1);
  }
  EXPECT_EQ(server_.cache().size(), 0u);

  EXPECT_NE(server_.HandleLine(query).find("\"cached\":false"),
            std::string::npos);
  EXPECT_NE(server_.HandleLine(query).find("\"cached\":true"),
            std::string::npos);

  // Back-to-back empty publishes: no further invalidations.
  server_.HandleLine(R"({"op":"publish"})");
  server_.HandleLine(R"({"op":"publish"})");
  if (obs::kCompiledIn) {
    EXPECT_EQ(Count("serve.cache.invalidate"), inval0 + 1);
  }
  EXPECT_EQ(server_.cache().size(), 1u);
}

TEST_F(ServeCacheTest, CanonicalTextSharesOneEntry) {
  // Same query modulo whitespace and keyword case: one cache entry.
  Result<QueryAnswer> a = server_.ExecuteQueryAt(
      Query(QueryLang::kMatch, "MATCH (x) -[ rides ]-> (y) RETURN x, y"),
      server_.store().Acquire());
  Result<QueryAnswer> b = server_.ExecuteQueryAt(
      Query(QueryLang::kMatch, "match   (x)-[rides]->(y)   return x, y"),
      server_.store().Acquire());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->cached);
  EXPECT_TRUE(b->cached);
  EXPECT_TRUE(*a == *b);
  EXPECT_EQ(server_.cache().size(), 1u);

  // Same text in a different front-end is a *different* key.
  Result<QueryAnswer> c =
      server_.ExecuteQueryAt(Query(QueryLang::kBgp, "?x rides ?y"),
                             server_.store().Acquire());
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->cached);
}

TEST_F(ServeCacheTest, FailuresAreCachedDeterministically) {
  // Compiles fine but fails in planning (head variable never declared
  // in the body is caught at parse; use an unsupported BGP instead).
  const Request bad = Query(QueryLang::kBgp, "?x ?p ?y");
  Result<QueryAnswer> first =
      server_.ExecuteQueryAt(bad, server_.store().Acquire());
  ASSERT_FALSE(first.ok());
  Result<QueryAnswer> second =
      server_.ExecuteQueryAt(bad, server_.store().Acquire());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().code(), second.status().code());
}

TEST(ServeCacheDisabled, ZeroCapacityNeverHits) {
  ServerOptions options;
  options.cache_capacity = 0;
  Server server(options);
  server.store().AddNode("n");
  server.store().AddNode("n");
  ASSERT_TRUE(server.store().InsertEdge(0, 1, "e").ok());
  server.store().Publish();

  const Request req = Query(QueryLang::kBgp, "?x e ?y");
  for (int i = 0; i < 3; ++i) {
    Result<QueryAnswer> answer =
        server.ExecuteQueryAt(req, server.store().Acquire());
    ASSERT_TRUE(answer.ok());
    EXPECT_FALSE(answer->cached);
  }
  EXPECT_EQ(server.cache().size(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace kgq
