// E14 — the versioned-snapshot serving layer (src/serve): kgq-serve's
// request pipeline under concurrent load. Two phases:
//
//  * Phase A (determinism): a scripted jsonl workload — writes,
//    publishes, queries in all three front-ends, malformed lines — runs
//    through ServeStream with several worker counts; every byte stream
//    must equal the sequential HandleLine replay of the same script.
//  * Phase B (load): an open-loop mixed read/write run — reader threads
//    fire epoch-pinned queries through the cache while writer threads
//    mutate and publish epochs. Every recorded answer must be
//    internally consistent per (query, epoch) and must match a
//    single-threaded cache-free replay (EvalServeQuery) after the run.
//
// Reported: QPS and exact p50/p99 latency from the recorded samples,
// mirrored to BENCH_e14_serving.json together with the gates and the
// full obs registry (serve.latency_ns, serve.cache.*, serve.epoch...).
//
// Gate (exit code): Phase A byte-identical for every worker count,
// Phase B consistent and replay-identical.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/quantile.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;
using namespace kgq::serve;

Request QueryRequest(QueryLang lang, std::string text) {
  Request req;
  req.op = RequestOp::kQuery;
  req.lang = lang;
  req.text = std::move(text);
  return req;
}

/// The read-side traffic mix: all three front-ends, from cheap cached
/// lookups to multi-atom joins.
std::vector<Request> QueryMix() {
  return {
      QueryRequest(QueryLang::kMatch,
                   "MATCH (x: person) -[ rides ]-> (b: bus) RETURN x, b"),
      QueryRequest(QueryLang::kMatch,
                   "MATCH (x) -[ rides / rides^- ]-> (y) RETURN x, y"),
      QueryRequest(QueryLang::kCrpq,
                   "q(x, z) :- (x) -[ rides ]-> (y), (y) -[ knows ]-> (z)"),
      QueryRequest(QueryLang::kCrpq, "q(x) :- (x: person) LIMIT 50"),
      QueryRequest(QueryLang::kBgp, "?x rides ?y . ?x kgq:label person"),
      QueryRequest(QueryLang::kBgp, "?x knows ?y"),
  };
}

/// Deterministic jsonl script for Phase A (same shape as the concurrent
/// test's workload, sized up).
std::string WorkloadScript(size_t lines) {
  Rng rng(0xE14ull);
  std::ostringstream out;
  size_t nodes = 0;
  for (int i = 0; i < 8; ++i) {
    out << R"({"op":"add_node","label":")"
        << (nodes % 2 == 0 ? "person" : "bus") << "\"}\n";
    ++nodes;
  }
  const std::vector<Request> queries = QueryMix();
  for (size_t i = 0; i < lines; ++i) {
    const uint64_t pick = rng.Below(100);
    if (pick < 10) {
      out << R"({"op":"add_node","label":"person"})" << "\n";
      ++nodes;
    } else if (pick < 40) {
      out << R"({"op":"insert_edge","from":)" << rng.Below(nodes)
          << R"(,"to":)" << rng.Below(nodes) << R"(,"label":")"
          << (rng.Bernoulli(0.5) ? "rides" : "knows") << "\"}\n";
    } else if (pick < 48) {
      out << R"({"op":"delete_edge","from":)" << rng.Below(nodes)
          << R"(,"to":)" << rng.Below(nodes) << R"(,"label":"rides"})"
          << "\n";
    } else if (pick < 55) {
      out << R"({"op":"publish"})" << "\n";
    } else if (pick < 58) {
      out << "not json at all\n";
    } else {
      const Request& q = queries[rng.Below(queries.size())];
      out << R"({"op":"query","id":)" << i << R"(,"lang":")"
          << QueryLangName(q.lang) << R"(","text":")";
      for (char c : q.text) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << "\"}\n";
    }
  }
  return out.str();
}

/// One recorded Phase B query: pinned epoch, query index, the served
/// answer and its latency.
struct Sample {
  EpochPtr snap;
  size_t query_index = 0;
  QueryAnswer answer;
  uint64_t latency_ns = 0;
};

struct RunResult {
  std::string name;
  size_t readers = 0;
  size_t writers = 0;
  size_t queries = 0;
  size_t publishes = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t publish_p50_ns = 0;
  uint64_t publish_p99_ns = 0;
};

}  // namespace

int main() {
  bool stream_identical = true;
  bool consistent = true;
  bool replay_identical = true;

  // ---------------------------------------------------------------------
  // Phase A: ServeStream vs sequential HandleLine, byte for byte.
  const std::string script = WorkloadScript(1200);
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
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ServerOptions options;
    options.workers = workers;
    options.queue_capacity = 16;
    Server server(options);
    std::istringstream in(script);
    std::ostringstream out;
    Timer timer;
    server.ServeStream(in, out);
    const double ms = timer.Millis();
    const bool same = out.str() == want;
    stream_identical = stream_identical && same;
    std::printf("phase A: %zu workers, %4zu lines, %7.2f ms — %s\n", workers,
                static_cast<size_t>(1200), ms,
                same ? "byte-identical" : "MISMATCH");
  }

  // ---------------------------------------------------------------------
  // Phase B: open-loop concurrent load, then single-threaded replay.
  constexpr size_t kReaders = 4;
  constexpr size_t kWriters = 2;
  constexpr size_t kNodes = 1200;
  constexpr size_t kBaseEdges = 4000;
  constexpr size_t kQueriesPerReader = 400;
  constexpr size_t kWritesPerWriter = 600;

  ServerOptions options;
  options.default_query_threads = 1;
  Server server(options);
  {
    Rng rng(0xBA5Eull);
    for (size_t i = 0; i < kNodes; ++i) {
      server.store().AddNode(i % 3 == 0 ? "person"
                                        : (i % 3 == 1 ? "bus" : "stop"));
    }
    for (size_t i = 0; i < kBaseEdges; ++i) {
      NodeId from = static_cast<NodeId>(rng.Below(kNodes));
      NodeId to = static_cast<NodeId>(rng.Below(kNodes));
      (void)server.store().InsertEdge(from, to,
                                      rng.Bernoulli(0.5) ? "rides" : "knows");
    }
    server.Publish();
  }

  const std::vector<Request> queries = QueryMix();
  std::vector<std::vector<Sample>> samples(kReaders);
  std::vector<size_t> publishes_per_writer(kWriters, 0);
  // One reservoir shared by both writers (it locks internally): the
  // steady-state incremental publish latency under concurrent load.
  obs::QuantileReservoir publish_lat;

  Timer run_timer;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&server, &publishes_per_writer, &publish_lat, w] {
      Rng rng(0x17E5ull + w);
      for (size_t i = 0; i < kWritesPerWriter; ++i) {
        NodeId from = static_cast<NodeId>(rng.Below(kNodes));
        NodeId to = static_cast<NodeId>(rng.Below(kNodes));
        const char* label = rng.Bernoulli(0.5) ? "rides" : "knows";
        if (rng.Bernoulli(0.7)) {
          (void)server.store().InsertEdge(from, to, label);
        } else {
          (void)server.store().DeleteEdge(from, to, label);
        }
        if (rng.Bernoulli(0.02)) {
          const uint64_t start = obs::NowNanos();
          server.Publish();
          publish_lat.Record(obs::NowNanos() - start);
          ++publishes_per_writer[w];
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &queries, &samples, r] {
      Rng rng(0xD05Eull + r);
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        Sample s;
        s.query_index = rng.Below(queries.size());
        const uint64_t start = obs::NowNanos();
        s.snap = server.store().Acquire();
        Result<QueryAnswer> answer =
            server.ExecuteQueryAt(queries[s.query_index], s.snap);
        s.latency_ns = obs::NowNanos() - start;
        if (answer.ok()) {
          s.answer = std::move(answer).value();
          samples[r].push_back(std::move(s));
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  const double write_ms = run_timer.Millis();
  for (std::thread& t : readers) t.join();
  const double wall_ms = run_timer.Millis();
  (void)write_ms;

  // Gate: per (query, epoch) all served answers agree, and the first
  // one matches the cache-free single-threaded replay.
  std::map<std::pair<size_t, uint64_t>, const Sample*> canon;
  size_t total = 0;
  std::vector<uint64_t> latencies;
  for (const auto& per_reader : samples) {
    for (const Sample& s : per_reader) {
      ++total;
      latencies.push_back(s.latency_ns);
      auto key = std::make_pair(s.query_index, s.snap->epoch);
      auto [it, inserted] = canon.emplace(key, &s);
      if (!inserted && !(it->second->answer == s.answer)) {
        consistent = false;
        std::fprintf(stderr, "INCONSISTENT: query %zu epoch %llu\n",
                     s.query_index,
                     static_cast<unsigned long long>(s.snap->epoch));
      }
    }
  }
  for (const auto& [key, sample] : canon) {
    Result<QueryAnswer> want_answer =
        EvalServeQuery(queries[key.first], *sample->snap);
    if (!want_answer.ok() || !(sample->answer == *want_answer)) {
      replay_identical = false;
      std::fprintf(stderr, "REPLAY MISMATCH: query %zu epoch %llu\n",
                   key.first, static_cast<unsigned long long>(key.second));
    }
  }

  std::sort(latencies.begin(), latencies.end());
  RunResult concurrent;
  concurrent.name = "concurrent_open_loop";
  concurrent.readers = kReaders;
  concurrent.writers = kWriters;
  concurrent.queries = total;
  for (size_t w = 0; w < kWriters; ++w) {
    concurrent.publishes += publishes_per_writer[w];
  }
  concurrent.wall_ms = wall_ms;
  concurrent.qps = wall_ms > 0.0 ? 1000.0 * static_cast<double>(total) /
                                       wall_ms
                                 : 0.0;
  concurrent.p50_ms = static_cast<double>(obs::QuantileReservoir::
                                              PercentileOfSorted(
                                                  latencies, 50.0)) /
                      1e6;
  concurrent.p99_ms = static_cast<double>(obs::QuantileReservoir::
                                              PercentileOfSorted(
                                                  latencies, 99.0)) /
                      1e6;
  concurrent.publish_p50_ns = publish_lat.Quantile(50.0);
  concurrent.publish_p99_ns = publish_lat.Quantile(99.0);

  // Sequential baseline: the same number of queries, one thread, no
  // writers — what the concurrency buys QPS against.
  RunResult baseline;
  baseline.name = "sequential_baseline";
  baseline.readers = 1;
  {
    Rng rng(0xD05Eull);
    std::vector<uint64_t> lat;
    Timer timer;
    for (size_t i = 0; i < total; ++i) {
      const size_t qi = rng.Below(queries.size());
      const uint64_t start = obs::NowNanos();
      (void)server.ExecuteQueryAt(queries[qi], server.store().Acquire());
      lat.push_back(obs::NowNanos() - start);
    }
    baseline.wall_ms = timer.Millis();
    baseline.queries = total;
    baseline.qps = baseline.wall_ms > 0.0
                       ? 1000.0 * static_cast<double>(total) / baseline.wall_ms
                       : 0.0;
    std::sort(lat.begin(), lat.end());
    baseline.p50_ms =
        static_cast<double>(
            obs::QuantileReservoir::PercentileOfSorted(lat, 50.0)) /
        1e6;
    baseline.p99_ms =
        static_cast<double>(
            obs::QuantileReservoir::PercentileOfSorted(lat, 99.0)) /
        1e6;
  }

  Table t("E14 — serving layer: open-loop mixed read/write load",
          {"run", "readers", "writers", "queries", "publishes", "wall(ms)",
           "QPS", "p50(ms)", "p99(ms)", "pub p50(us)", "pub p99(us)"});
  for (const RunResult* r : {&concurrent, &baseline}) {
    t.AddRow({r->name, std::to_string(r->readers), std::to_string(r->writers),
              std::to_string(r->queries), std::to_string(r->publishes),
              std::to_string(r->wall_ms), std::to_string(r->qps),
              std::to_string(r->p50_ms), std::to_string(r->p99_ms),
              std::to_string(r->publish_p50_ns / 1000),
              std::to_string(r->publish_p99_ns / 1000)});
  }
  t.Print(std::cout);
  std::printf("\nphase B: %zu samples over %zu distinct (query, epoch) "
              "pairs, final epoch %llu\n",
              total, canon.size(),
              static_cast<unsigned long long>(server.store().CurrentEpoch()));

  {
    std::ofstream out("BENCH_e14_serving.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e14_serving");
    w.Key("runs");
    w.BeginArray();
    for (const RunResult* r : {&concurrent, &baseline}) {
      w.BeginObject();
      w.Key("run");
      w.String(r->name);
      w.Key("readers");
      w.UInt(r->readers);
      w.Key("writers");
      w.UInt(r->writers);
      w.Key("queries");
      w.UInt(r->queries);
      w.Key("publishes");
      w.UInt(r->publishes);
      w.Key("wall_ms");
      w.Double(r->wall_ms);
      w.Key("qps");
      w.Double(r->qps);
      w.Key("p50_ms");
      w.Double(r->p50_ms);
      w.Key("p99_ms");
      w.Double(r->p99_ms);
      w.Key("publish_p50_ns");
      w.UInt(r->publish_p50_ns);
      w.Key("publish_p99_ns");
      w.UInt(r->publish_p99_ns);
      w.EndObject();
    }
    w.EndArray();
    w.Key("gates");
    w.BeginObject();
    w.Key("stream_byte_identical");
    w.Bool(stream_identical);
    w.Key("within_run_consistent");
    w.Bool(consistent);
    w.Key("replay_identical");
    w.Bool(replay_identical);
    w.EndObject();
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  const bool ok = stream_identical && consistent && replay_identical;
  std::printf("Serving gate: concurrent responses identical to "
              "single-threaded replay → %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
