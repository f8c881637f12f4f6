// Profiling suite for the serving layer: the "profile":true request
// flag, the EXPLAIN/profile structural correspondence, determinism of
// the profile's non-wall-clock fields across worker counts and thread
// budgets, the slow-query log, and the runtime kill switch flipped
// concurrently with profiled traffic (TSan-checked in CI via the
// `serve` clause of the tsan job's -R regex).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace kgq {
namespace serve {
namespace {

/// Restores the runtime obs switch after each test.
class ServeProfileTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Registry::SetEnabled(true); }
  void TearDown() override { obs::Registry::SetEnabled(true); }
};

/// A small fixed graph: people riding buses and knowing each other —
/// enough to exercise scans, joins and both path engines.
void Seed(Server* server) {
  DeltaStore& store = server->store();
  for (int i = 0; i < 8; ++i) {
    store.AddNode(i % 2 == 0 ? "person" : "bus");
  }
  ASSERT_TRUE(store.InsertEdge(0, 1, "rides").ok());
  ASSERT_TRUE(store.InsertEdge(2, 1, "rides").ok());
  ASSERT_TRUE(store.InsertEdge(2, 3, "rides").ok());
  ASSERT_TRUE(store.InsertEdge(4, 5, "rides").ok());
  ASSERT_TRUE(store.InsertEdge(0, 2, "knows").ok());
  ASSERT_TRUE(store.InsertEdge(2, 4, "knows").ok());
  ASSERT_TRUE(store.InsertEdge(4, 6, "knows").ok());
  server->Publish();
}

std::string QueryLine(const char* lang, const std::string& text,
                      bool profile, int id = -1) {
  std::string line = "{\"op\":\"query\"";
  if (id >= 0) line += ",\"id\":" + std::to_string(id);
  line += ",\"lang\":\"";
  line += lang;
  line += "\",\"text\":";
  AppendJsonString(&line, text);
  if (profile) line += ",\"profile\":true";
  line += "}";
  return line;
}

/// Zeroes the digit run after any key ending in `_ns":` — same contract
/// as the CI filter (tools/normalize_serve_output.py).
std::string NormalizeNs(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  const std::string key = "_ns\":";
  size_t i = 0;
  while (i < text.size()) {
    out += text[i++];
    if (out.size() >= key.size() &&
        out.compare(out.size() - key.size(), key.size(), key) == 0) {
      size_t j = i;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      if (j > i) {
        out += '0';
        i = j;
      }
    }
  }
  return out;
}

/// One operator of a flattened tree: kind plus nesting depth.
struct FlatOp {
  std::string kind;
  int depth = 0;

  bool operator==(const FlatOp& other) const {
    return kind == other.kind && depth == other.depth;
  }
};

/// Flattens a parsed profile JSON object (pre-order), asserting the
/// schema along the way.
void FlattenProfile(const JsonValue& node, int depth,
                    std::vector<FlatOp>* out) {
  ASSERT_EQ(node.kind, JsonValue::Kind::kObject);
  const JsonValue* op = node.Find("op");
  ASSERT_NE(op, nullptr);
  ASSERT_EQ(op->kind, JsonValue::Kind::kString);
  ASSERT_NE(node.Find("rows_in"), nullptr);
  ASSERT_NE(node.Find("rows_out"), nullptr);
  ASSERT_NE(node.Find("time_ns"), nullptr);
  out->push_back({op->string, depth});
  const JsonValue* children = node.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->kind, JsonValue::Kind::kArray);
  for (const JsonValue& child : children->items) {
    FlattenProfile(child, depth + 1, out);
  }
}

/// Flattens an EXPLAIN plan string: one line per operator, two spaces of
/// indent per level, first token is the operator kind.
std::vector<FlatOp> FlattenExplain(const std::string& plan) {
  std::vector<FlatOp> out;
  std::istringstream in(plan);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    size_t end = line.find_first_of(" \t", indent);
    if (end == std::string::npos) end = line.size();
    out.push_back({line.substr(indent, end - indent),
                   static_cast<int>(indent / 2)});
  }
  return out;
}

// The profile tree a profiled query returns mirrors the EXPLAIN tree of
// the same query: same operator kinds, same nesting — the structural
// acceptance gate of the ISSUE.
TEST_F(ServeProfileTest, ProfileTreeMatchesExplainStructure) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "profiling is compiled out (KGQ_OBS=OFF)";
  }
  Server server;
  Seed(&server);

  const std::vector<std::pair<const char*, std::string>> cases = {
      {"match", "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b"},
      {"crpq",
       "q(x, z) :- (x) -[ rides ]-> (y), (y) -[ knows* ]-> (z)"},
      {"bgp", "?x rides ?y . ?x kgq:label person"},
  };
  for (const auto& [lang, text] : cases) {
    // EXPLAIN side.
    std::string explain_line = QueryLine(lang, text, /*profile=*/false);
    explain_line.replace(explain_line.find("\"query\""), 7, "\"explain\"");
    const std::string explain_resp = server.HandleLine(explain_line);
    Result<JsonValue> explain_json = ParseJson(explain_resp);
    ASSERT_TRUE(explain_json.ok()) << explain_resp;
    const JsonValue* plan = explain_json->Find("plan");
    ASSERT_NE(plan, nullptr) << explain_resp;
    const std::vector<FlatOp> want = FlattenExplain(plan->string);
    ASSERT_FALSE(want.empty());

    // Profile side.
    const std::string resp =
        server.HandleLine(QueryLine(lang, text, /*profile=*/true));
    Result<JsonValue> json = ParseJson(resp);
    ASSERT_TRUE(json.ok()) << resp;
    const JsonValue* profile = json->Find("profile");
    ASSERT_NE(profile, nullptr) << resp;
    ASSERT_EQ(profile->kind, JsonValue::Kind::kObject) << resp;
    std::vector<FlatOp> got;
    FlattenProfile(*profile, 0, &got);
    ASSERT_FALSE(HasFatalFailure());

    ASSERT_EQ(got.size(), want.size()) << lang << ": " << text;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << lang << " line " << i << ": profile op " << got[i].kind
          << "@" << got[i].depth << " vs explain " << want[i].kind << "@"
          << want[i].depth;
    }
  }
}

// A query that does not ask for a profile gets no "profile" member at
// all; one that asks always gets the member — a tree when profiling is
// live, null when it is compiled out or disabled.
TEST_F(ServeProfileTest, ProfileMemberPresenceFollowsTheRequestFlag) {
  Server server;
  Seed(&server);
  const std::string text =
      "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b";

  const std::string plain =
      server.HandleLine(QueryLine("match", text, /*profile=*/false));
  EXPECT_EQ(plain.find("\"profile\""), std::string::npos) << plain;

  // A different query (queries canonicalize, so a textual variant of
  // the first would be a cache hit carrying its null profile).
  const std::string profiled = server.HandleLine(QueryLine(
      "match", "MATCH (x) -[ knows ]-> (y) RETURN x, y", /*profile=*/true));
  Result<JsonValue> json = ParseJson(profiled);
  ASSERT_TRUE(json.ok()) << profiled;
  const JsonValue* profile = json->Find("profile");
  ASSERT_NE(profile, nullptr) << profiled;
  if (obs::kCompiledIn) {
    EXPECT_EQ(profile->kind, JsonValue::Kind::kObject) << profiled;
  } else {
    EXPECT_EQ(profile->kind, JsonValue::Kind::kNull) << profiled;
  }
}

// With the runtime switch off, a profiled query degrades to
// "profile":null — same shape the OFF build serves.
TEST_F(ServeProfileTest, RuntimeDisabledProfilingYieldsNull) {
  Server server;
  Seed(&server);
  obs::Registry::SetEnabled(false);
  const std::string resp = server.HandleLine(QueryLine(
      "match", "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b",
      /*profile=*/true));
  Result<JsonValue> json = ParseJson(resp);
  ASSERT_TRUE(json.ok()) << resp;
  const JsonValue* profile = json->Find("profile");
  ASSERT_NE(profile, nullptr) << resp;
  EXPECT_EQ(profile->kind, JsonValue::Kind::kNull) << resp;
}

// A cache hit returns the profile the original computation captured —
// or null when that computation ran unprofiled. Either way the hit
// never recomputes.
TEST_F(ServeProfileTest, CacheHitServesStoredProfile) {
  Server server;
  Seed(&server);
  const std::string profiled_first =
      "q(x, z) :- (x) -[ rides ]-> (y), (y) -[ knows* ]-> (z)";
  const std::string unprofiled_first = "q(x) :- (x: person)";

  // Computed with a profile → the hit carries the same tree.
  (void)server.HandleLine(QueryLine("crpq", profiled_first, true));
  const std::string hit =
      server.HandleLine(QueryLine("crpq", profiled_first, true));
  Result<JsonValue> hit_json = ParseJson(hit);
  ASSERT_TRUE(hit_json.ok()) << hit;
  EXPECT_TRUE(hit_json->Find("cached")->boolean) << hit;
  if (obs::kCompiledIn) {
    EXPECT_EQ(hit_json->Find("profile")->kind, JsonValue::Kind::kObject)
        << hit;
  }

  // Computed without a profile → the profiled re-request gets null.
  (void)server.HandleLine(QueryLine("crpq", unprofiled_first, false));
  const std::string null_hit =
      server.HandleLine(QueryLine("crpq", unprofiled_first, true));
  Result<JsonValue> null_json = ParseJson(null_hit);
  ASSERT_TRUE(null_json.ok()) << null_hit;
  EXPECT_TRUE(null_json->Find("cached")->boolean) << null_hit;
  EXPECT_EQ(null_json->Find("profile")->kind, JsonValue::Kind::kNull)
      << null_hit;
}

/// The profiled differential workload: seed writes, then a mix of
/// profiled and unprofiled queries with repeats (cache hits), a stats
/// probe and a publish in the middle.
std::string DifferentialScript() {
  std::ostringstream out;
  for (int i = 0; i < 8; ++i) {
    out << R"({"op":"add_node","label":")"
        << (i % 2 == 0 ? "person" : "bus") << "\"}\n";
  }
  out << R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})" << "\n"
      << R"({"op":"insert_edge","from":2,"to":1,"label":"rides"})" << "\n"
      << R"({"op":"insert_edge","from":0,"to":2,"label":"knows"})" << "\n"
      << R"({"op":"insert_edge","from":2,"to":4,"label":"knows"})" << "\n"
      << R"({"op":"publish"})" << "\n";
  const std::vector<std::pair<const char*, std::string>> queries = {
      {"match", "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b"},
      {"crpq",
       "q(x, z) :- (x) -[ rides ]-> (y), (y) -[ knows* ]-> (z)"},
      {"bgp", "?x (rides/rides^-) ?y"},
  };
  int id = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [lang, text] : queries) {
      out << QueryLine(lang, text, /*profile=*/(round + id) % 2 == 0,
                       id)
          << "\n";
      ++id;
    }
    if (round == 1) {
      out << R"({"op":"insert_edge","from":4,"to":5,"label":"rides"})"
          << "\n"
          << R"({"op":"publish"})" << "\n";
    }
    out << R"({"op":"stats"})" << "\n";
  }
  return out.str();
}

// The ISSUE's determinism gate: the full response stream — profile
// trees included — is byte-identical across worker counts 1/4/8 and
// per-query thread budgets 1/4 once `_ns` wall-clock values are
// normalized.
TEST_F(ServeProfileTest, ProfileDeterministicAcrossWorkersAndThreadBudgets) {
  const std::string script = DifferentialScript();

  std::string want;
  {
    Server server;
    std::istringstream in(script);
    std::string line;
    while (std::getline(in, line)) {
      want += server.HandleLine(line);
      want += '\n';
    }
    want = NormalizeNs(want);
  }
  ASSERT_NE(want.find("\"rows\""), std::string::npos);
  if (obs::kCompiledIn) {
    ASSERT_NE(want.find("\"profile\":{"), std::string::npos);
  }

  for (size_t workers : {1u, 4u, 8u}) {
    for (size_t threads : {1u, 4u}) {
      ServerOptions options;
      options.workers = workers;
      options.default_query_threads = threads;
      Server server(options);
      std::istringstream in(script);
      std::ostringstream out;
      server.ServeStream(in, out);
      ASSERT_EQ(NormalizeNs(out.str()), want)
          << "workers=" << workers << " threads=" << threads;
    }
  }
}

// Flipping the runtime obs switch from another thread while a 4-worker
// stream serves profiled queries must never tear a profile: every
// profiled response carries a "profile" member that is either null or a
// complete tree (the enable decision is snapshotted once per
// computation). TSan guards the switch itself.
TEST_F(ServeProfileTest, EnableToggleUnderProfiledLoadNeverTearsProfiles) {
  std::ostringstream script;
  for (int i = 0; i < 6; ++i) {
    script << R"({"op":"add_node","label":")"
           << (i % 2 == 0 ? "person" : "bus") << "\"}\n";
  }
  script << R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})"
         << "\n"
         << R"({"op":"insert_edge","from":2,"to":3,"label":"rides"})"
         << "\n"
         << R"({"op":"publish"})" << "\n";
  for (int i = 0; i < 400; ++i) {
    // Alternate front-ends; always profiled. Unique texts defeat the
    // cache so every request actually computes under the toggling
    // switch.
    const std::string text =
        "MATCH (x: person) -[ rides ]-> (b) RETURN x, b LIMIT " +
        std::to_string(100 + i);
    script << QueryLine("match", text, /*profile=*/true, i) << "\n";
  }

  ServerOptions options;
  options.workers = 4;
  Server server(options);

  std::atomic<bool> stop{false};
  std::thread toggler([&stop] {
    bool on = false;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Registry::SetEnabled(on);
      on = !on;
      std::this_thread::yield();
    }
  });

  std::istringstream in(script.str());
  std::ostringstream out;
  server.ServeStream(in, out);
  stop.store(true);
  toggler.join();
  obs::Registry::SetEnabled(true);

  std::istringstream lines(out.str());
  std::string line;
  size_t profiled = 0, with_tree = 0;
  while (std::getline(lines, line)) {
    Result<JsonValue> json = ParseJson(line);
    ASSERT_TRUE(json.ok()) << line;
    if (json->Find("rows") == nullptr) continue;  // write/publish acks
    ++profiled;
    const JsonValue* profile = json->Find("profile");
    ASSERT_NE(profile, nullptr) << line;
    // Null (switch was off at compute time) or a complete tree — never
    // a torn object.
    if (profile->kind == JsonValue::Kind::kObject) {
      std::vector<FlatOp> ops;
      FlattenProfile(*profile, 0, &ops);
      ASSERT_FALSE(HasFatalFailure()) << line;
      EXPECT_FALSE(ops.empty()) << line;
      ++with_tree;
    } else {
      EXPECT_EQ(profile->kind, JsonValue::Kind::kNull) << line;
    }
  }
  EXPECT_EQ(profiled, 400u);
  if (!obs::kCompiledIn) {
    EXPECT_EQ(with_tree, 0u);
  }
}

// The slow-query log: with a 1ns threshold every query is slow; each
// log line carries the query text, epoch, duration and (when profiling
// is live) up to 3 operators ranked by time.
TEST_F(ServeProfileTest, SlowLogEmitsQueryTextAndTopOperators) {
  std::ostringstream slow;
  ServerOptions options;
  options.slow_query_ns = 1;
  options.slow_log = &slow;
  Server server(options);
  Seed(&server);

  const std::string text =
      "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b";
  // Not asking for a profile: the armed slow log captures one anyway.
  (void)server.HandleLine(QueryLine("match", text, /*profile=*/false));

  std::istringstream lines(slow.str());
  std::string line;
  size_t logged = 0;
  while (std::getline(lines, line)) {
    Result<JsonValue> json = ParseJson(line);
    ASSERT_TRUE(json.ok()) << line;
    const JsonValue* body = json->Find("slow_query");
    ASSERT_NE(body, nullptr) << line;
    ASSERT_NE(body->Find("lang"), nullptr);
    const JsonValue* got_text = body->Find("text");
    ASSERT_NE(got_text, nullptr);
    EXPECT_EQ(got_text->string, text);
    ASSERT_NE(body->Find("epoch"), nullptr);
    ASSERT_NE(body->Find("time_ns"), nullptr);
    const JsonValue* top = body->Find("top_ops");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->kind, JsonValue::Kind::kArray);
    EXPECT_LE(top->items.size(), 3u);
    if (obs::kCompiledIn) {
      EXPECT_FALSE(top->items.empty()) << line;
      for (const JsonValue& op : top->items) {
        ASSERT_NE(op.Find("op"), nullptr);
        ASSERT_NE(op.Find("time_ns"), nullptr);
      }
    }
    ++logged;
  }
  EXPECT_EQ(logged, 1u);

  // A fast-threshold server (effectively unreachable) logs nothing.
  std::ostringstream quiet;
  ServerOptions quiet_options;
  quiet_options.slow_query_ns = ~0ull;
  quiet_options.slow_log = &quiet;
  Server fast(quiet_options);
  Seed(&fast);
  (void)fast.HandleLine(QueryLine("match", text, false));
  EXPECT_TRUE(quiet.str().empty());
}

// One slow-log rule for every entry point: with a 1ns threshold each
// `query` request logs exactly one line, whatever its outcome — a text
// that fails to parse, one that fails to compile, a computed answer and
// a cache hit of it — and HandleLine and ServeStream log the same lines.
TEST_F(ServeProfileTest, SlowLogIsTheSameUnderHandleLineAndServeStream) {
  const std::string ok_text =
      "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b";
  std::ostringstream script;
  for (int i = 0; i < 4; ++i) {
    script << R"({"op":"add_node","label":")"
           << (i % 2 == 0 ? "person" : "bus") << "\"}\n";
  }
  script << R"({"op":"insert_edge","from":0,"to":1,"label":"rides"})"
         << "\n"
         << R"({"op":"insert_edge","from":2,"to":3,"label":"rides"})"
         << "\n"
         << R"({"op":"publish"})" << "\n"
         << QueryLine("crpq", "q(x) :- (((", false, 1) << "\n"
         << QueryLine("bgp", "?x kgq:label ?l", false, 2) << "\n"
         << QueryLine("match", ok_text, false, 3) << "\n"
         << QueryLine("match", ok_text, false, 4) << "\n";

  // The normalized slow-log lines, sorted (workers log in any order).
  auto sorted_lines = [](const std::string& log) {
    std::vector<std::string> lines;
    std::istringstream in(NormalizeNs(log));
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };

  std::ostringstream handled;
  {
    ServerOptions options;
    options.slow_query_ns = 1;
    options.slow_log = &handled;
    Server server(options);
    std::istringstream in(script.str());
    std::string line;
    while (std::getline(in, line)) (void)server.HandleLine(line);
  }
  const std::vector<std::string> want = sorted_lines(handled.str());
  ASSERT_EQ(want.size(), 4u) << handled.str();

  for (size_t workers : {1u, 4u}) {
    std::ostringstream streamed;
    ServerOptions options;
    options.workers = workers;
    options.slow_query_ns = 1;
    options.slow_log = &streamed;
    Server server(options);
    std::istringstream in(script.str());
    std::ostringstream out;
    server.ServeStream(in, out);
    EXPECT_EQ(sorted_lines(streamed.str()), want) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace serve
}  // namespace kgq
