// Concurrency suite for the serving layer: writers publishing epochs
// while readers run epoch-pinned queries, checked differentially against
// single-threaded replay. Runs under TSan in CI (the `serve` clause of
// the tsan job's -R regex).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/delta_store.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"

namespace kgq {
namespace serve {
namespace {

Request QueryRequest(QueryLang lang, std::string text) {
  Request req;
  req.op = RequestOp::kQuery;
  req.lang = lang;
  req.text = std::move(text);
  return req;
}

/// The fixed query mix the readers draw from — all three front-ends.
std::vector<Request> QueryMix() {
  return {
      QueryRequest(QueryLang::kMatch,
                   "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b"),
      QueryRequest(QueryLang::kMatch,
                   "MATCH (x) -[ rides / rides^- ]-> (y) RETURN x, y"),
      QueryRequest(QueryLang::kCrpq,
                   "q(x, z) :- (x) -[ rides ]-> (y), (y) -[ knows* ]-> (z)"),
      QueryRequest(QueryLang::kCrpq, "q(x) :- (x: person)"),
      QueryRequest(QueryLang::kBgp, "?x rides ?y . ?x kgq:label person"),
      QueryRequest(QueryLang::kBgp, "?x (rides/rides^-) ?y"),
  };
}

/// One answered query as observed by a reader thread: the pinned epoch
/// and what the server returned for it.
struct Observation {
  EpochPtr snap;
  size_t query_index = 0;
  QueryAnswer answer;
};

// 2 writers mutate and publish concurrently with 4 readers running
// epoch-pinned queries through the cache. Writer 0 publishes through
// Server::Publish, whose cache invalidation races the readers' lookups;
// writer 1 through the store alone. Afterwards every recorded answer is
// replayed single-threaded and cache-free against its pinned snapshot —
// the served rows must be exactly the replay's.
TEST(ServeConcurrent, ReadersMatchSingleThreadedReplay) {
  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 4;
  constexpr size_t kNodes = 24;
  constexpr size_t kWritesPerWriter = 160;
  constexpr size_t kQueriesPerReader = 120;

  Server server;
  // Node set up front: writers then race only on edges and publishes.
  for (size_t i = 0; i < kNodes; ++i) {
    server.store().AddNode(i % 3 == 0 ? "person" : (i % 3 == 1 ? "bus"
                                                               : "stop"));
  }
  server.store().Publish();

  const std::vector<Request> queries = QueryMix();
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&server, &failed, w] {
      auto publish = [&server, w] {
        if (w == 0) {
          server.Publish();
        } else {
          server.store().Publish();
        }
      };
      Rng rng(0x5EEDull + w);
      const char* labels[] = {"rides", "knows"};
      for (size_t i = 0; i < kWritesPerWriter; ++i) {
        NodeId from = static_cast<NodeId>(rng.Below(kNodes));
        NodeId to = static_cast<NodeId>(rng.Below(kNodes));
        const char* label = labels[rng.Below(2)];
        Result<bool> applied = rng.Bernoulli(0.7)
                                   ? server.store().InsertEdge(from, to, label)
                                   : server.store().DeleteEdge(from, to,
                                                               label);
        if (!applied.ok()) failed = true;
        if (rng.Bernoulli(0.15)) publish();
      }
      publish();
    });
  }

  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &queries, &observed, &failed, r] {
      Rng rng(0xACCE55ull + r);
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        const size_t qi = rng.Below(queries.size());
        Observation obs;
        obs.snap = server.store().Acquire();
        obs.query_index = qi;
        Result<QueryAnswer> answer =
            server.ExecuteQueryAt(queries[qi], obs.snap);
        if (!answer.ok()) {
          failed = true;
          continue;
        }
        obs.answer = std::move(answer).value();
        observed[r].push_back(std::move(obs));
      }
    });
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load()) << "a concurrent write or query errored";

  // Replay: single-threaded, cache-free, against the pinned snapshot.
  size_t replayed = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    for (const Observation& obs : observed[r]) {
      ASSERT_EQ(obs.answer.epoch, obs.snap->epoch);
      Result<QueryAnswer> want =
          EvalServeQuery(queries[obs.query_index], *obs.snap);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(obs.answer == *want)
          << "reader " << r << " query " << obs.query_index << " at epoch "
          << obs.snap->epoch << " diverged from replay";
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kReaders * kQueriesPerReader);
}

// A query pinned to an epoch keeps answering from it — publishes that
// happen between acquisition and execution do not leak in.
TEST(ServeConcurrent, PinnedEpochIsImmuneToLaterPublishes) {
  Server server;
  NodeId a = server.store().AddNode("person");
  NodeId b = server.store().AddNode("bus");
  ASSERT_TRUE(server.store().InsertEdge(a, b, "rides").ok());
  server.store().Publish();

  EpochPtr pinned = server.store().Acquire();
  ASSERT_TRUE(server.store().DeleteEdge(a, b, "rides").ok());
  server.store().Publish();  // The edge is gone in the new epoch...

  Request req = QueryRequest(QueryLang::kCrpq, "q(x, y) :- (x) -[ rides ]-> (y)");
  Result<QueryAnswer> at_pin = server.ExecuteQueryAt(req, pinned);
  ASSERT_TRUE(at_pin.ok());
  EXPECT_EQ(at_pin->epoch, pinned->epoch);
  ASSERT_EQ(at_pin->rows.size(), 1u);  // ...but not at the pin.

  Result<QueryAnswer> at_head =
      server.ExecuteQueryAt(req, server.store().Acquire());
  ASSERT_TRUE(at_head.ok());
  EXPECT_TRUE(at_head->rows.empty());
}

/// Deterministic jsonl workload: writes, publishes, queries in all three
/// front-ends (with repeats for cache hits), analytics requests against
/// the maintained views, and malformed lines.
std::string WorkloadScript() {
  Rng rng(0xFEEDull);
  std::ostringstream out;
  size_t nodes = 0;
  auto emit_node = [&] {
    out << R"({"op":"add_node","label":")"
        << (nodes % 2 == 0 ? "person" : "bus") << "\"}\n";
    ++nodes;
  };
  for (int i = 0; i < 6; ++i) emit_node();
  const std::vector<Request> queries = QueryMix();
  for (int i = 0; i < 220; ++i) {
    const uint64_t pick = rng.Below(100);
    if (pick < 12) {
      emit_node();
    } else if (pick < 40) {
      out << R"({"op":"insert_edge","from":)" << rng.Below(nodes)
          << R"(,"to":)" << rng.Below(nodes) << R"(,"label":")"
          << (rng.Bernoulli(0.5) ? "rides" : "knows") << "\"}\n";
    } else if (pick < 50) {
      out << R"({"op":"delete_edge","from":)" << rng.Below(nodes)
          << R"(,"to":)" << rng.Below(nodes) << R"(,"label":"rides"})"
          << "\n";
    } else if (pick < 58) {
      out << R"({"op":"publish"})" << "\n";
    } else if (pick < 62) {
      out << R"({"op":"stats"})" << "\n";
    } else if (pick < 66) {
      out << "{\"op\":\"nonsense\"}\n";  // Structured error path.
    } else if (pick < 78) {
      // Analytics over the maintained views. Runs on the dispatcher, so
      // the responses must be byte-identical at every worker count.
      // Nodes may exceed the published snapshot (added but unpublished):
      // that is the deterministic out-of-range error path.
      switch (rng.Below(6)) {
        case 0:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"components"})" << "\n";
          break;
        case 1:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"components","node":)" << rng.Below(nodes)
              << "}\n";
          break;
        case 2:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"pagerank","top":3})" << "\n";
          break;
        case 3:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"pagerank","node":)" << rng.Below(nodes)
              << "}\n";
          break;
        case 4:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"reach","label":"rides","node":)"
              << rng.Below(nodes) << "}\n";
          break;
        default:
          out << R"({"op":"analytics","id":)" << i
              << R"(,"view":"reach","label":"knows"})" << "\n";
          break;
      }
    } else {
      const Request& q = queries[rng.Below(queries.size())];
      const bool profile = rng.Bernoulli(0.4);
      std::string text = q.text;
      out << R"({"op":"query","id":)" << i << R"(,"lang":")"
          << QueryLangName(q.lang) << R"(","text":")";
      for (char c : text) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << "\"";
      // Mix profiled queries in: their trees must be as deterministic
      // as the rows (time_ns aside).
      if (profile) out << ",\"profile\":true";
      out << "}\n";
    }
  }
  return out.str();
}

/// Zeroes every wall-clock value in a response stream: the digit run
/// after any key ending in `_ns":` (stats p50_ns/p99_ns, profile
/// time_ns) becomes a single 0. Everything else — rows, profile shape,
/// engines, row counts, the per-instance stats tallies — is left
/// byte-exact, so comparing normalized streams still pins every
/// deterministic field.
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

// The production loop's byte stream equals the sequential replay's, for
// several worker counts — the determinism gate of the ISSUE. Wall-clock
// (`_ns`) values are normalized on both sides; every other byte,
// profiled responses included, must match exactly.
TEST(ServeConcurrent, ServeStreamMatchesHandleLineByteForByte) {
  const std::string script = WorkloadScript();

  // Reference: a fresh server, every line handled synchronously.
  std::string want;
  {
    Server server;
    std::istringstream in(script);
    std::string line;
    while (std::getline(in, line)) {
      want += server.HandleLine(line);
      want += '\n';
    }
  }
  want = NormalizeNs(want);

  for (size_t workers : {1u, 2u, 4u, 7u, 8u}) {
    ServerOptions options;
    options.workers = workers;
    options.queue_capacity = 8;  // Small: exercise backpressure.
    Server server(options);
    std::istringstream in(script);
    std::ostringstream out;
    server.ServeStream(in, out);
    ASSERT_EQ(NormalizeNs(out.str()), want) << "workers=" << workers;
  }
}

/// Counts flushes (sync calls) made from one thread.
class SyncCountingBuf : public std::stringbuf {
 public:
  explicit SyncCountingBuf(std::thread::id thread) : thread_(thread) {}
  int syncs_on_thread() const { return syncs_; }

 protected:
  int sync() override {
    if (std::this_thread::get_id() == thread_) ++syncs_;
    return std::stringbuf::sync();
  }

 private:
  const std::thread::id thread_;
  std::atomic<int> syncs_{0};
};

// Reading a tied input stream flushes the tied output. std::cin is tied
// to std::cout, so kgq-serve's dispatcher would flush the response
// stream outside the reorder lock, racing the workers' writes (it
// duplicated response lines). With only queries in flight — all
// answered and emitted by workers — the calling thread must never flush
// `out`, and the tie is restored afterwards.
TEST(ServeConcurrent, ServeStreamNeverFlushesFromTheDispatcher) {
  std::string script;
  script += "{\"op\":\"add_node\",\"label\":\"p\"}\n";
  script += "{\"op\":\"publish\"}\n";
  std::string queries;
  for (int i = 0; i < 20; ++i) {
    queries += "{\"op\":\"query\",\"id\":" + std::to_string(i) +
               ",\"lang\":\"crpq\",\"text\":\"q(x) :- (x: p)\"}\n";
  }
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  std::istringstream setup(script);
  std::ostringstream ignored;
  server.ServeStream(setup, ignored);

  SyncCountingBuf buf(std::this_thread::get_id());
  std::ostream out(&buf);
  std::istringstream in(queries);
  in.tie(&out);
  server.ServeStream(in, out);
  EXPECT_EQ(buf.syncs_on_thread(), 0);
  EXPECT_EQ(in.tie(), &out);
  std::istringstream lines(buf.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 20);
}

}  // namespace
}  // namespace serve
}  // namespace kgq
