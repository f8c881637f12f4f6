// Protocol robustness suite (fuzz tier): the jsonl request parser and
// the full HandleLine path against malformed, truncated, mutated and
// oversized input. The server must answer every line with a structured
// error or a valid response — never crash, never partially apply a
// write.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/quantile.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgq {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// ParseJson basics.

TEST(ParseJson, ParsesScalarsAndNesting) {
  auto v = ParseJson(R"( {"a": [1, -2.5, "x\n\u0041\u00e9"], "b": true,
                          "c": null, "d": {"e": 9007199254740992}} )");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[0].number_is_int);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_FALSE(a->items[1].number_is_int);
  EXPECT_EQ(a->items[2].string, "x\nA\xc3\xa9");
  EXPECT_TRUE(v->Find("b")->boolean);
  EXPECT_EQ(v->Find("c")->kind, JsonValue::Kind::kNull);
  // 2^53 is outside the exact-integer window.
  EXPECT_FALSE(v->Find("d")->Find("e")->number_is_int);
}

TEST(ParseJson, ParsesSurrogatePairs) {
  auto v = ParseJson(R"("\ud83d\ude00")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string, "\xf0\x9f\x98\x80");
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());        // Lone high surrogate.
  EXPECT_FALSE(ParseJson(R"("\ud83dxx")").ok());
  EXPECT_FALSE(ParseJson(R"("\ude00")").ok());        // Lone low surrogate.
}

TEST(ParseJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",          "[1,]",         "{\"a\":}",
      "tru",        "nulll",      "01",           "1.",
      "+1",         "\"\x01\"",   "\"unclosed",   "{\"a\":1,}",
      "[1] x",      "{\"a\" 1}",  "\"\\q\"",      "--1",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

TEST(ParseJson, EnforcesDepthAndSizeLimits) {
  std::string deep(kMaxJsonDepth + 1, '[');
  deep += std::string(kMaxJsonDepth + 1, ']');
  auto v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);

  std::string shallow(kMaxJsonDepth, '[');
  shallow += std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(shallow).ok());
}

// ---------------------------------------------------------------------------
// ParseRequestLine validation.

TEST(ParseRequestLine, ValidatesPerOpFields) {
  Request req;
  EXPECT_TRUE(ParseRequestLine(R"({"op":"add_node","label":"x"})", &req).ok());
  EXPECT_EQ(req.op, RequestOp::kAddNode);
  EXPECT_EQ(req.label, "x");

  EXPECT_TRUE(ParseRequestLine(
                  R"({"op":"query","lang":"bgp","text":"?x a ?y","threads":3})",
                  &req)
                  .ok());
  EXPECT_EQ(req.lang, QueryLang::kBgp);
  EXPECT_EQ(req.threads, 3u);

  const char* bad[] = {
      R"({"op":"add_node"})",                          // Missing label.
      R"({"op":"insert_edge","from":0,"label":"x"})",  // Missing to.
      R"({"op":"insert_edge","from":-1,"to":0,"label":"x"})",
      R"({"op":"insert_edge","from":0.5,"to":0,"label":"x"})",
      R"({"op":"query","lang":"sql","text":"x"})",     // Unknown lang.
      R"({"op":"query","lang":"bgp"})",                // Missing text.
      R"({"op":"frobnicate"})",                        // Unknown op.
      R"({"op":42})",
      R"([1,2,3])",                                    // Not an object.
      R"({"op":"query","lang":"bgp","text":"x","threads":99999})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequestLine(line, &req).ok()) << "accepted: " << line;
  }
}

TEST(ParseRequestLine, ParsesProfileFlagAndMetricsOp) {
  Request req;
  // "profile" defaults to false and must be a boolean when present.
  EXPECT_TRUE(ParseRequestLine(
                  R"({"op":"query","lang":"bgp","text":"?x a ?y"})", &req)
                  .ok());
  EXPECT_FALSE(req.profile);
  EXPECT_TRUE(
      ParseRequestLine(
          R"({"op":"query","lang":"bgp","text":"?x a ?y","profile":true})",
          &req)
          .ok());
  EXPECT_TRUE(req.profile);
  EXPECT_TRUE(
      ParseRequestLine(
          R"({"op":"query","lang":"bgp","text":"?x a ?y","profile":false})",
          &req)
          .ok());
  EXPECT_FALSE(req.profile);
  EXPECT_FALSE(
      ParseRequestLine(
          R"({"op":"query","lang":"bgp","text":"?x a ?y","profile":1})",
          &req)
          .ok());

  EXPECT_TRUE(ParseRequestLine(R"({"op":"metrics"})", &req).ok());
  EXPECT_EQ(req.op, RequestOp::kMetrics);
  EXPECT_TRUE(ParseRequestLine(R"({"op":"metrics","id":5})", &req).ok());
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 5u);
}

TEST(ParseRequestLine, ValidatesAnalyticsRequests) {
  Request req;
  EXPECT_TRUE(
      ParseRequestLine(R"({"op":"analytics","view":"components"})", &req)
          .ok());
  EXPECT_EQ(req.op, RequestOp::kAnalytics);
  EXPECT_EQ(req.view, "components");
  EXPECT_FALSE(req.has_node);

  EXPECT_TRUE(ParseRequestLine(
                  R"({"op":"analytics","view":"components","node":7})", &req)
                  .ok());
  EXPECT_TRUE(req.has_node);
  EXPECT_EQ(req.node, 7u);

  EXPECT_TRUE(ParseRequestLine(
                  R"({"op":"analytics","view":"pagerank","top":5})", &req)
                  .ok());
  EXPECT_EQ(req.view, "pagerank");
  EXPECT_EQ(req.top, 5u);

  EXPECT_TRUE(
      ParseRequestLine(
          R"({"op":"analytics","view":"reach","label":"rides","node":2})",
          &req)
          .ok());
  EXPECT_EQ(req.label, "rides");

  // Label-only reach (served as the closure's nnz) is valid too.
  EXPECT_TRUE(ParseRequestLine(
                  R"({"op":"analytics","view":"reach","label":"rides"})", &req)
                  .ok());
  EXPECT_FALSE(req.has_node);

  const char* bad[] = {
      R"({"op":"analytics"})",                              // Missing view.
      R"({"op":"analytics","view":"betweenness"})",         // Unknown view.
      R"({"op":"analytics","view":"reach"})",               // Reach sans label.
      R"({"op":"analytics","view":"pagerank"})",            // No node, no top.
      R"({"op":"analytics","view":"pagerank","top":0})",    // Zero top.
      R"({"op":"analytics","view":"pagerank","top":9999999})",
      R"({"op":"analytics","view":"components","node":-1})",
      R"({"op":"analytics","view":"components","node":0.5})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequestLine(line, &req).ok()) << "accepted: " << line;
  }
}

// ---------------------------------------------------------------------------
// Stats and metrics responses.

/// Integer member accessor with assertion plumbing.
uint64_t IntMember(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  EXPECT_NE(v, nullptr) << "missing member " << key;
  if (v == nullptr) return 0;
  EXPECT_TRUE(v->number_is_int) << key;
  return static_cast<uint64_t>(v->number);
}

TEST(ServeStats, ReportsCacheAndWriteTallies) {
  obs::Registry::SetEnabled(true);
  Server server;
  (void)server.HandleLine(R"({"op":"add_node","label":"person"})");
  (void)server.HandleLine(R"({"op":"add_node","label":"bus"})");
  // One applied insert, one duplicate (noop), one applied delete.
  (void)server.HandleLine(
      R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})");
  (void)server.HandleLine(
      R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})");
  (void)server.HandleLine(
      R"({"op":"delete_edge","from":0,"to":1,"label":"rides"})");
  (void)server.HandleLine(
      R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})");
  (void)server.HandleLine(R"({"op":"publish"})");
  // Two distinct queries, one repeated: 2 misses + 1 hit.
  (void)server.HandleLine(
      R"({"op":"query","lang":"bgp","text":"?x rides ?y"})");
  (void)server.HandleLine(
      R"({"op":"query","lang":"bgp","text":"?x rides ?y"})");
  (void)server.HandleLine(
      R"x({"op":"query","lang":"crpq","text":"q(x) :- (x: person)"})x");

  const std::string resp = server.HandleLine(R"({"op":"stats","id":9})");
  Result<JsonValue> json = ParseJson(resp);
  ASSERT_TRUE(json.ok()) << resp;
  EXPECT_EQ(IntMember(*json, "id"), 9u);
  EXPECT_EQ(IntMember(*json, "epoch"), 1u);
  EXPECT_EQ(IntMember(*json, "nodes"), 2u);
  EXPECT_EQ(IntMember(*json, "edges"), 1u);
  // add_node x2 + applied insert/delete/insert = 5 applied, 1 noop.
  EXPECT_EQ(IntMember(*json, "writes_applied"), 5u);
  EXPECT_EQ(IntMember(*json, "writes_noop"), 1u);
  EXPECT_EQ(IntMember(*json, "cache_misses"), 2u);
  EXPECT_EQ(IntMember(*json, "cache_hits"), 1u);
  EXPECT_EQ(IntMember(*json, "cache_size"), 2u);
  ASSERT_NE(json->Find("p50_ns"), nullptr) << resp;
  ASSERT_NE(json->Find("p99_ns"), nullptr) << resp;
}

TEST(ServeMetrics, QuantilesMatchOfflineRecompute) {
  obs::Registry::SetEnabled(true);
  Server server;
  (void)server.HandleLine(R"({"op":"add_node","label":"person"})");
  (void)server.HandleLine(R"({"op":"publish"})");
  for (int i = 0; i < 20; ++i) {
    (void)server.HandleLine(
        R"x({"op":"query","lang":"crpq","text":"q(x) :- (x: person)"})x");
  }

  // Recompute from the reservoir's window BEFORE the metrics request
  // lands (its own latency is recorded after rendering, so the served
  // quantiles are over exactly these samples).
  std::vector<uint64_t> sorted = server.latency_reservoir().Samples();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), 22u);  // 2 writes + 20 queries.

  const std::string resp = server.HandleLine(R"({"op":"metrics","id":3})");
  Result<JsonValue> json = ParseJson(resp);
  ASSERT_TRUE(json.ok()) << resp;
  EXPECT_EQ(IntMember(*json, "id"), 3u);
  EXPECT_EQ(IntMember(*json, "epoch"), 1u);

  const JsonValue* latency = json->Find("latency");
  ASSERT_NE(latency, nullptr) << resp;
  EXPECT_EQ(IntMember(*latency, "samples"), sorted.size());
  EXPECT_EQ(IntMember(*latency, "p50_ns"),
            obs::QuantileReservoir::PercentileOfSorted(sorted, 50.0));
  EXPECT_EQ(IntMember(*latency, "p95_ns"),
            obs::QuantileReservoir::PercentileOfSorted(sorted, 95.0));
  EXPECT_EQ(IntMember(*latency, "p99_ns"),
            obs::QuantileReservoir::PercentileOfSorted(sorted, 99.0));

  // The embedded registry dump is itself valid JSON.
  const JsonValue* metrics = json->Find("metrics");
  ASSERT_NE(metrics, nullptr) << resp;
  ASSERT_EQ(metrics->kind, JsonValue::Kind::kObject) << resp;
  if (obs::kCompiledIn) {
    EXPECT_NE(metrics->Find("counters"), nullptr) << resp;
  }

  // MetricsJson (the --metrics-interval export) renders the same shape
  // without a correlation id.
  const std::string exported = server.MetricsJson();
  Result<JsonValue> exported_json = ParseJson(exported);
  ASSERT_TRUE(exported_json.ok()) << exported;
  EXPECT_EQ(exported_json->Find("id"), nullptr);
  ASSERT_NE(exported_json->Find("latency"), nullptr);
}

TEST(ParseRequestLine, RecoversIdFromInvalidRequests) {
  Request req;
  Status s = ParseRequestLine(R"({"id":77,"op":"frobnicate"})", &req);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 77u);
}

TEST(ParseRequestLine, RejectsOversizedLines) {
  std::string line = R"({"op":"add_node","label":")";
  line += std::string(kMaxRequestBytes, 'x');
  line += "\"}";
  Request req;
  Status s = ParseRequestLine(line, &req);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz over HandleLine.

/// The server's externally visible store state — what a rejected request
/// must leave untouched.
struct StoreFingerprint {
  uint64_t epoch;
  size_t nodes;
  size_t edges;
  size_t pending;

  bool operator==(const StoreFingerprint&) const = default;
};

StoreFingerprint Fingerprint(Server& server) {
  return {server.store().CurrentEpoch(), server.store().NumNodes(),
          server.store().NumLiveEdges(), server.store().PendingOps()};
}

/// Checks one response line: parseable JSON object with a boolean "ok";
/// errors carry "code" and "error" strings.
void ExpectWellFormedResponse(const std::string& resp) {
  auto v = ParseJson(resp);
  ASSERT_TRUE(v.ok()) << "unparseable response: " << resp;
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject) << resp;
  const JsonValue* ok = v->Find("ok");
  ASSERT_NE(ok, nullptr) << resp;
  ASSERT_EQ(ok->kind, JsonValue::Kind::kBool) << resp;
  if (!ok->boolean) {
    const JsonValue* code = v->Find("code");
    const JsonValue* error = v->Find("error");
    ASSERT_NE(code, nullptr) << resp;
    ASSERT_NE(error, nullptr) << resp;
    EXPECT_EQ(code->kind, JsonValue::Kind::kString) << resp;
    EXPECT_EQ(error->kind, JsonValue::Kind::kString) << resp;
  }
}

TEST(ServeProtocolFuzz, MutatedRequestsNeverCrashOrPartiallyApply) {
  const std::vector<std::string> valid = {
      R"({"op":"add_node","label":"person"})",
      R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})",
      R"({"op":"delete_edge","from":1,"to":0,"label":"rides"})",
      R"({"op":"publish"})",
      R"({"op":"stats"})",
      R"({"op":"query","id":3,"lang":"match",)"
      R"("text":"MATCH (x) -[ rides ]-> (y) RETURN x, y"})",
      R"j({"op":"query","lang":"crpq","text":"q(x) :- (x: person)"})j",
      R"({"op":"query","lang":"bgp","text":"?x rides ?y","threads":2})",
      R"({"op":"explain","lang":"bgp","text":"?x rides ?y"})",
      R"({"op":"analytics","view":"components","node":1})",
      R"({"op":"analytics","view":"pagerank","top":3})",
      R"({"op":"analytics","view":"reach","label":"rides","node":0})",
  };

  Server server;
  server.store().AddNode("person");
  server.store().AddNode("bus");
  server.store().Publish();

  for (uint64_t seed = 0; seed < 256; ++seed) {
    Rng rng(seed);
    std::string line = valid[rng.Below(valid.size())];
    const uint64_t mode = rng.Below(10);
    if (mode < 3) {
      // Truncate.
      line.resize(rng.Below(line.size() + 1));
    } else if (mode < 6) {
      // Flip 1–4 random bytes (printable range, keeps it line-shaped).
      const size_t flips = 1 + rng.Below(4);
      for (size_t i = 0; i < flips && !line.empty(); ++i) {
        line[rng.Below(line.size())] =
            static_cast<char>(0x20 + rng.Below(0x5f));
      }
    } else if (mode < 8) {
      // Insert random printable bytes.
      const size_t inserts = 1 + rng.Below(6);
      for (size_t i = 0; i < inserts; ++i) {
        line.insert(line.begin() + rng.Below(line.size() + 1),
                    static_cast<char>(0x20 + rng.Below(0x5f)));
      }
    } else if (mode < 9) {
      // Oversize: balloon past the request cap.
      line.insert(line.size() / 2, std::string(kMaxRequestBytes + 7, 'a'));
    }
    // mode 9: leave the line valid — responses must be well-formed too.

    const StoreFingerprint before = Fingerprint(server);
    std::string resp = server.HandleLine(line);
    ASSERT_FALSE(resp.empty()) << "seed " << seed;
    ExpectWellFormedResponse(resp);

    auto parsed = ParseJson(resp);
    ASSERT_TRUE(parsed.ok());
    if (!parsed->Find("ok")->boolean) {
      // A rejected request leaves the store exactly as it was.
      EXPECT_TRUE(Fingerprint(server) == before) << "seed " << seed
                                                 << " line: " << line;
    }
  }
}

TEST(ServeProtocolFuzz, RandomGarbageLines) {
  Server server;
  for (uint64_t seed = 0; seed < 256; ++seed) {
    Rng rng(0xBADull * 257 + seed);
    std::string line;
    const size_t len = rng.Below(120);
    for (size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.Below(256)));
    }
    const StoreFingerprint before = Fingerprint(server);
    std::string resp = server.HandleLine(line);
    ExpectWellFormedResponse(resp);
    EXPECT_TRUE(Fingerprint(server) == before) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Context-free path queries through the protocol: grammar preambles ride
// inside the query text (no new protocol fields), so cache keys fold
// them in automatically; malformed grammars come back as structured
// ParseError responses, never as dropped lines.

// No served request may build an epoch's LabeledGraph: the epoch view
// answers from the CSR and the node table, and graph() stays a lazy
// convenience for oracles. Every served shape runs on every kind of
// publish; then every pinned epoch must still have an unbuilt graph.
TEST(ServeEpochViews, NoServedRequestMaterializesTheGraph) {
  Server server;
  const std::vector<std::string> kRequests = {
      // MATCH, CRPQ and BGP (n<i> constants, kgq:label, ASK).
      R"x({"op":"query","lang":"match","text":"MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b"})x",
      R"x({"op":"query","lang":"crpq","text":"q(x, y) :- (x) -[ rides ]-> (b), (y) -[ rides ]-> (b)"})x",
      R"x({"op":"query","lang":"bgp","text":"n0 rides ?b . ?y rides ?b . ?y kgq:label person"})x",
      R"x({"op":"query","lang":"bgp","text":"n0 knows n2"})x",
      R"x({"op":"query","lang":"bgp","text":"?x (rides/stops_at) ?s"})x",
      // Regexes with node tests and a filtered edge atom; a grammar.
      R"x({"op":"query","lang":"crpq","text":"q(x, y) :- (x) -[ rides/?bus/rides^- ]-> (y)"})x",
      R"x({"op":"query","lang":"crpq","text":"q(x, y) :- (x) -[ ?person/[!rides]* ]-> (y)"})x",
      R"x({"op":"query","lang":"crpq","text":"grammar SG { SG -> rides SG rides^- | rides rides^- } q(x, y) :- (x) -[ SG ]-> (y)"})x",
      // EXPLAIN and a profiled query.
      R"x({"op":"explain","lang":"match","text":"MATCH (x: person) -[ knows ]-> (y: person) RETURN x, y"})x",
      R"x({"op":"query","lang":"match","text":"MATCH (x: person) -[ knows ]-> (y: person) RETURN x, y","profile":true})x",
      // The maintained analytics views.
      R"x({"op":"analytics","view":"pagerank","top":3})x",
      R"x({"op":"analytics","view":"components","node":0})x",
      R"x({"op":"analytics","view":"reach","label":"rides","node":0})x",
      R"x({"op":"stats"})x",
  };
  std::vector<EpochPtr> pinned;
  auto serve_all = [&] {
    pinned.push_back(server.store().Acquire());
    for (const std::string& line : kRequests) {
      const std::string resp = server.HandleLine(line);
      EXPECT_EQ(resp.find("\"error\""), std::string::npos) << line << "\n"
                                                           << resp;
    }
  };
  auto line = [&server](const std::string& text) {
    const std::string resp = server.HandleLine(text);
    ASSERT_EQ(resp.find("\"error\""), std::string::npos) << resp;
  };

  for (const char* label : {"person", "bus", "person", "stop", "person"}) {
    line(std::string(R"({"op":"add_node","label":")") + label + "\"}");
  }
  line(R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})");
  line(R"({"op":"insert_edge","from":2,"to":1,"label":"rides"})");
  line(R"({"op":"insert_edge","from":1,"to":3,"label":"stops_at"})");
  line(R"({"op":"insert_edge","from":0,"to":2,"label":"knows"})");
  line(R"({"op":"publish"})");  // Content-changing.
  serve_all();
  line(R"({"op":"publish"})");  // Empty.
  serve_all();
  line(R"({"op":"add_node","label":"bus"})");
  line(R"({"op":"publish"})");  // Node-adding only.
  serve_all();
  line(R"({"op":"insert_edge","from":4,"to":5,"label":"rides"})");
  line(R"({"op":"delete_edge","from":2,"to":1,"label":"rides"})");
  line(R"({"op":"insert_edge","from":2,"to":4,"label":"knows"})");
  line(R"({"op":"publish"})");  // Content-changing with a delete.
  serve_all();

  ASSERT_EQ(pinned.size(), 4u);
  EXPECT_EQ(pinned[1]->content_version, pinned[0]->content_version);
  for (const EpochPtr& snap : pinned) {
    EXPECT_EQ(snap->lazy_graph->graph, nullptr) << "epoch " << snap->epoch;
  }
}

TEST(ServeCfpq, GrammarQueriesAndErrorPaths) {
  Server server;
  // Papers 1 and 2 both cite paper 0 — the same-generation relation is
  // {1, 2}² (each reaches the other, and itself, through the shared
  // citation).
  (void)server.HandleLine(R"({"op":"add_node","label":"paper"})");
  (void)server.HandleLine(R"({"op":"add_node","label":"paper"})");
  (void)server.HandleLine(R"({"op":"add_node","label":"paper"})");
  (void)server.HandleLine(
      R"({"op":"insert_edge","from":1,"to":0,"label":"cites"})");
  (void)server.HandleLine(
      R"({"op":"insert_edge","from":2,"to":0,"label":"cites"})");
  (void)server.HandleLine(R"({"op":"publish"})");

  const std::string kPreamble =
      "grammar SG { SG -> cites SG cites^- | cites cites^- } ";
  auto expect_sg_rows = [](const JsonValue& json) {
    const JsonValue* rows = json.Find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), 4u);  // {1,2} x {1,2}.
    for (const JsonValue& row : rows->items) {
      ASSERT_EQ(row.items.size(), 2u);
      EXPECT_GE(row.items[0].number, 1.0);
      EXPECT_LE(row.items[1].number, 2.0);
    }
  };

  // The same CF query through both graph front-ends.
  {
    const std::string resp = server.HandleLine(
        R"({"op":"query","id":1,"lang":"crpq","text":")" + kPreamble +
        R"x(q(x, y) :- (x) -[ SG ]-> (y)"})x");
    Result<JsonValue> json = ParseJson(resp);
    ASSERT_TRUE(json.ok()) << resp;
    EXPECT_EQ(json->Find("ok")->boolean, true) << resp;
    expect_sg_rows(*json);
  }
  {
    const std::string resp = server.HandleLine(
        R"({"op":"query","id":2,"lang":"match","text":")" + kPreamble +
        R"x(MATCH (x) -[ SG ]-> (y) RETURN x, y"})x");
    Result<JsonValue> json = ParseJson(resp);
    ASSERT_TRUE(json.ok()) << resp;
    EXPECT_EQ(json->Find("ok")->boolean, true) << resp;
    expect_sg_rows(*json);
  }

  // Grammar misuse answers with ok:false + {code, error}, id preserved.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"grammar G { } q(x) :- (x) -[ a ]-> (y)", "no productions"},
      {"grammar G { X -> a } q(x) :- (x) -[ G ]-> (y)",
       "has no production"},
      {"grammar G { G -> a eps } q(x) :- (x) -[ G ]-> (y)",
       "eps must be an entire alternative"},
      {"grammar G { G -> a } grammar G { G -> b } q(x) :- "
       "(x) -[ G ]-> (y)",
       "duplicate grammar"},
      {"grammar G { G -> a } q(x) :- (x) -[ G.Zzz ]-> (y)",
       "unknown nonterminal"},
      {"q(x) :- (x) -[ H.X ]-> (y)", "unknown grammar"},
  };
  for (const auto& [text, needle] : bad) {
    std::string line = R"({"op":"query","id":7,"lang":"crpq","text":)";
    AppendJsonString(&line, text);
    line += "}";
    const std::string resp = server.HandleLine(line);
    Result<JsonValue> json = ParseJson(resp);
    ASSERT_TRUE(json.ok()) << resp;
    EXPECT_EQ(IntMember(*json, "id"), 7u);
    EXPECT_EQ(json->Find("ok")->boolean, false) << resp;
    ASSERT_NE(json->Find("code"), nullptr) << resp;
    EXPECT_EQ(json->Find("code")->string, "ParseError") << resp;
    ASSERT_NE(json->Find("error"), nullptr) << resp;
    EXPECT_NE(json->Find("error")->string.find(needle), std::string::npos)
        << resp;
  }
}

}  // namespace
}  // namespace serve
}  // namespace kgq
