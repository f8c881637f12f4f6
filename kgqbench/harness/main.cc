// kgq_bench — the kgq-serve benchmark harness.
//
//   kgq_bench --workload point-read|bulk-paths|read-write --seed N
//             --seconds S --trace 0|1 [--scale full|tiny] [--trace-out F]
//
// One closed-loop client drives serve::Server::HandleLine (parse, cache,
// plan, execute, render) with the workload's generated request lines;
// the program sees nothing but those lines. The last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. The traced
// run replaces HandleLine by the same pipeline spelled out through
// kgq's public functions, with a span around every call (tracer.h), and
// re-runs the layers the executor hides (automaton compile, stats,
// planning, the CSR delta merge) as probe spans beside the request.
//
// Correctness is gated after the timed phase. Point-read and read-write
// answers must equal answers computed from the generator's own edge set
// (oracle.h); bulk-paths answers must equal the cache-free, single-thread
// replay EvalServeQuery on the pinned epoch and kgq's sequential
// reference evaluators run on the generator's graph.
// read-write runs one more cycle after the timed phase whose published
// CSR must equal a cold FromLabeledEdges build of the generator's edges
// and whose analytics must equal a cold recompute on that CSR. Any
// mismatch makes "correct" false and the exit code 1.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/components.h"
#include "analytics/pagerank.h"
#include "datasets/dblp_synth.h"
#include "gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "graph/multigraph.h"
#include "obs/clock.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "oracle.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "rpq/crpq.h"
#include "rpq/path_nfa.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/view_cache.h"
#include "tracer.h"
#include "util/rng.h"

#ifndef KGQ_BENCH_BUILD_TYPE
#define KGQ_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef KGQ_BENCH_COMPILER
#define KGQ_BENCH_COMPILER "unknown"
#endif

namespace kgqbench {
namespace {

using kgq::Rng;
using kgq::serve::EpochPtr;
using kgq::serve::QueryAnswer;
using kgq::serve::Request;
using kgq::serve::RequestOp;
using kgq::serve::Server;
using kgq::serve::ServerOptions;

uint64_t Now() { return kgq::obs::NowNanos(); }
double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

/// Input sizes. Full scale is the benchmark; tiny scale runs the same
/// code in seconds (the self-test). read-write runs the point-read
/// generator at a quarter of its size: at one million edges a cycle
/// (publish, LabeledGraph rebuild, dashboards, warm PageRank) takes ~5 s,
/// too few cycles per run for steady medians.
struct Scale {
  size_t transit_nodes;
  size_t transit_edges;
  size_t rw_nodes;
  size_t rw_edges;
  size_t papers;
  size_t authors;
  size_t write_batch;
  // Set-up repetitions (setup_s is their median): as many as the
  // workload's set-up cost allows within one run.
  size_t point_read_reps;
  size_t read_write_reps;
  size_t bulk_paths_reps;
};
constexpr Scale kFullScale = {250000, 1000000, 62500, 250000, 15000,
                              3000,   1000,    3,     5,      31};
constexpr Scale kTinyScale = {20000, 80000, 5000, 20000, 1500,
                              300,   100,   2,    2,     2};

/// Worker threads a bulk-paths query asks for.
constexpr size_t kBulkThreads = 2;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(uint64_t total, uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

/// A memory figure of this process from /proc/self/status, in MB:
/// "VmHWM:" (peak resident set) or "VmRSS:" (current).
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Lowers the process's VmHWM to its current resident set, so the peak
/// read later covers only what runs from here on.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// (steal, total) jiffies of the aggregate cpu line of /proc/stat: time
/// the hypervisor ran other guests on this machine's virtual CPUs.
std::pair<uint64_t, uint64_t> CpuStealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// The serving layer's BGP lowering (n<i> constants, kgq:label node
/// tests), rebuilt from public IR types so the traced run can time the
/// planner on BGP requests; the server keeps its own copy private. Its
/// output is checked against the server's EXPLAIN once per request class.
kgq::Result<kgq::ConjunctiveQuery> LowerServingBgp(
    const std::vector<kgq::TriplePattern>& patterns, size_t num_nodes) {
  std::set<std::string> user_vars;
  for (const kgq::TriplePattern& p : patterns) {
    if (p.s.is_var) user_vars.insert(p.s.text);
    if (p.o.is_var) user_vars.insert(p.o.text);
  }
  kgq::ConjunctiveQuery cq;
  size_t next_const = 0;
  auto var_of = [&](const kgq::Term& t) -> std::string {
    if (t.is_var) return t.text;
    std::string name = "$c" + std::to_string(next_const++);
    while (user_vars.count(name) > 0) name += "_";
    kgq::NodeId id = kgq::kNoNode;
    if (t.text.size() > 1 && t.text[0] == 'n' &&
        t.text.find_first_not_of("0123456789", 1) == std::string::npos &&
        t.text.size() < 11) {
      uint64_t v = std::stoull(t.text.substr(1));
      if (v < num_nodes) id = static_cast<kgq::NodeId>(v);
    }
    cq.bound[name] = id;
    return name;
  };
  for (const kgq::TriplePattern& p : patterns) {
    if (p.path == nullptr && !p.p.is_var &&
        p.p.text == kgq::kNodeLabelPredicate && !p.o.is_var) {
      std::string v = var_of(p.s);
      kgq::TestPtr test = kgq::TestExpr::Label(p.o.text);
      auto it = cq.node_tests.find(v);
      cq.node_tests[v] = it == cq.node_tests.end()
                             ? test
                             : kgq::TestExpr::And(it->second, test);
      continue;
    }
    if (p.path == nullptr && p.p.is_var) {
      return kgq::Status::Unsupported("variable predicate");
    }
    kgq::RegexPtr path =
        p.path != nullptr ? p.path : kgq::Regex::EdgeLabel(p.p.text);
    cq.atoms.push_back({var_of(p.s), var_of(p.o), std::move(path)});
  }
  cq.projection.assign(user_vars.begin(), user_vars.end());
  if (cq.projection.empty()) return kgq::Status::Unsupported("ASK form");
  return cq;
}

/// Analytics response from a view value, exactly as the server renders
/// it (top-K: rank descending, node ascending).
std::string RenderAnalyticsFrom(const Request& req, uint64_t epoch,
                                const kgq::ComponentAssignment* comp,
                                const std::vector<int64_t>* rank) {
  kgq::serve::AnalyticsBody body;
  body.epoch = epoch;
  body.view = req.view;
  if (comp != nullptr) body.num_components = comp->num_components;
  if (rank != nullptr && req.top > 0) {
    body.has_top = true;
    for (kgq::NodeId n = 0; n < rank->size(); ++n) {
      body.top.emplace_back(n, (*rank)[n]);
    }
    const size_t k = std::min<size_t>(req.top, body.top.size());
    std::partial_sort(body.top.begin(), body.top.begin() + k, body.top.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    body.top.resize(k);
  }
  return kgq::serve::RenderAnalytics(req, body);
}


/// One served read kept for the correctness gate.
struct Served {
  std::string line;
  std::string cls;     // request class; "hit" for a repeat the cache serves
  std::string shape;   // what the oracle answers: a read kind or shape name
  uint32_t anchor = 0;  // the node constant of an anchored read
  uint64_t tail_hash = 0;  // Fnv1a of the response's ResponseTail
  bool cached = false;
};

Served Keep(const std::string& line, const std::string& cls,
            const std::string& shape, uint32_t anchor,
            const std::string& response) {
  const std::string tail = ResponseTail(response);
  const std::string head = response.substr(0, response.size() - tail.size());
  return {line, cls, shape, anchor, Fnv1a(tail),
          head.find("\"cached\":true") != std::string::npos};
}

/// obs-registry counters whose per-request deltas the traced run keeps.
const char* const kQueryCounters[] = {
    "rpq.compile.calls",         "rpq.step.edges_scanned",
    "rpq.successor.edges_scanned", "matrix_rpq.spgemm.word_ops",
    "plan.scan.label_partition_entries"};
const char* const kViewCounters[] = {"serve.view.hit", "serve.view.advance",
                                     "serve.view.rebuild",
                                     "serve.view.fallback"};

template <size_t N>
std::vector<uint64_t> ReadCounters(const char* const (&names)[N]) {
  std::vector<uint64_t> v;
  for (const char* name : names) {
    v.push_back(kgq::obs::Registry::Get().CounterValue(name));
  }
  return v;
}

template <size_t N>
std::map<std::string, uint64_t> CounterDeltas(
    const char* const (&names)[N], const std::vector<uint64_t>& before) {
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < N; ++i) {
    out[names[i]] =
        kgq::obs::Registry::Get().CounterValue(names[i]) - before[i];
  }
  return out;
}

bool IsSetupClass(const std::string& cls) {
  return cls.rfind("setup.", 0) == 0;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

class Bench {
 public:
  Bench(const Args& args, const Scale& scale)
      : args_(args), scale_(scale), rng_(args.seed) {}

  /// Runs set-up, the timed phase and the correctness gate, then prints
  /// the result line. Returns the process exit code.
  int Run();

 private:
  // ---- the request path ----
  /// Sends one request line and returns the response; `*ms` is its
  /// serving time (probe spans of the traced run excluded).
  std::string Send(const std::string& line, const std::string& cls,
                   double* ms);
  std::string SendTraced(const std::string& line, const std::string& cls);
  std::string TracedQuery(const Request& req, const std::string& cls);
  std::string TracedPublish(const Request& req);
  std::string TracedAnalytics(const Request& req, const std::string& cls);
  void AddProfile(uint32_t parent, const kgq::obs::ProfileNode& node,
                  uint64_t start_ns);
  void ProbePlanLayers(const Request& req, const EpochPtr& snap,
                       const std::string& cls, size_t answer_rows);

  // ---- set-up ----
  void Generate();
  /// One set-up repetition on a fresh server; the last one is traced in
  /// the traced run and is the server the timed phase measures.
  void SetupRep(bool last);
  void Load();
  std::string FreshReadLine();

  // ---- timed phase ----
  bool TimeUp() const { return timed_ && Now() >= deadline_ns_; }
  void Record(const std::string& series, double ms) {
    if (timed_) series_[series].push_back(ms);
  }
  /// Read samples are staged per block / cycle and kept only when the
  /// block completes, so every class keeps its exact share of the read
  /// percentiles however the deadline cuts the last block.
  void Stage(const std::string& cls, double ms) {
    staged_.emplace_back(cls, ms);
  }
  void CommitStaged() {
    for (const auto& [cls, ms] : staged_) {
      Record("read", ms);
      Record("read." + cls, ms);
    }
    staged_.clear();
  }
  void RunPointRead();
  void RunBulkPaths();
  void ReadWriteCycle(bool check);

  // ---- correctness ----
  void Fail(const std::string& what);
  /// Compares a served read with the oracle's ResponseTail.
  void Expect(const Served& s, const std::string& tail,
              const std::string& oracle);
  void CheckTransitReads(const std::vector<Served>& served);
  void CheckReplay(const std::vector<Served>& served, const EpochPtr& snap);
  void CheckReference(const std::vector<Served>& served);
  void CheckAnalytics(const std::string& line, const std::string& response,
                      uint64_t epoch, const kgq::CsrSnapshot& cold);
  /// A cold CSR of the generator's live transit edges.
  kgq::CsrSnapshot ColdTransitCsr() const;

  // ---- reporting ----
  void PrintProvenance() const;
  Metrics EndToEnd() const;
  Metrics PerLayer() const;
  double SeriesQuantile(const std::string& name, double q = 0.5) const;

  Args args_;
  Scale scale_;
  Rng rng_;
  std::unique_ptr<TransitGraph> transit_;
  std::unique_ptr<AnchorStream> anchors_;
  std::unique_ptr<kgq::LabeledGraph> dblp_;
  std::unique_ptr<Server> server_;
  ServerOptions server_options_;

  // Traced-run state; `active_` is null on the untraced path.
  Tracer tracer_;
  Tracer* active_ = nullptr;
  bool in_setup_ = false;
  uint64_t probe_ns_ = 0;  // probe time of the current traced request
  std::unique_ptr<kgq::serve::ViewCache> views_;  // harness-owned
  std::set<const void*> materialized_;  // lazy-graph cells already built
  std::set<std::string> explain_checked_;
  size_t load_ops_ = 0;

  // Timed phase.
  bool timed_ = false;
  uint64_t deadline_ns_ = 0;
  uint64_t timed_requests_ = 0;
  size_t cycles_ = 0;

  // Tallies.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  double base_rss_mb_ = 0.0;  // resident before the last set-up
  double peak_rss_mb_ = 0.0;  // peak since then, less base_rss_mb_
  double steal_share_ = 0.0;  // stolen share of CPU time, timed phase
  uint64_t timed_ns_ = 0;
  std::map<std::string, std::vector<double>> series_;
  std::vector<std::pair<std::string, double>> staged_;
  std::vector<Served> served_;
  // Serving time per request class: [0] untraced, [1] traced.
  std::map<std::string, std::vector<double>> overhead_[2];

  // Traced-run tallies: [0] timed phase, [1] set-up.
  struct LayerCounts {
    uint64_t queries = 0;
    uint64_t uncached = 0;
    uint64_t compile_calls = 0;
    uint64_t edges_scanned = 0;
    uint64_t word_ops = 0;
    uint64_t op_rows = 0;
    uint64_t answer_rows = 0;
    uint64_t pre_exec_ns = 0;
    uint64_t hits = 0;
    uint64_t hit_ns = 0;
    uint64_t publishes = 0;
    uint64_t delta_edges = 0;
    uint64_t view_calls = 0;
    uint64_t view_fallbacks = 0;
    uint64_t warm_runs = 0;
    uint64_t warm_iterations = 0;
    std::vector<double> q_errors;
  };
  LayerCounts layer_[2];
  LayerCounts& Layer() { return layer_[in_setup_ ? 1 : 0]; }
  // Query-cache tallies at the start and end of the timed phase.
  uint64_t cache_hits_[2] = {0, 0};
  uint64_t cache_misses_[2] = {0, 0};
};

// ---------------------------------------------------------------------
// Request path

std::string Bench::Send(const std::string& line, const std::string& cls,
                        double* ms) {
  ++attempted_;
  std::string response;
  uint64_t ns = 0;
  if (active_ != nullptr) {
    response = SendTraced(line, cls);
    // Serving time: the request span minus its probe spans.
    const uint32_t root = tracer_.last_root();
    ns = tracer_.Duration(root) - probe_ns_;
  } else {
    const uint64_t t0 = Now();
    response = server_->HandleLine(line);
    ns = Now() - t0;
  }
  if (!IsOk(response)) {
    ++failed_;
    std::fprintf(stderr, "request failed: %s -> %.200s\n", line.c_str(),
                 response.c_str());
  }
  if (timed_) {
    ++timed_requests_;
    overhead_[active_ != nullptr ? 1 : 0][cls].push_back(Ms(ns));
  }
  *ms = Ms(ns);
  return response;
}

std::string Bench::SendTraced(const std::string& line,
                              const std::string& cls) {
  Tracer& t = tracer_;
  const std::string full_cls = (in_setup_ ? "setup." : "") + cls;
  const uint32_t root = t.BeginRequest(full_cls);
  probe_ns_ = 0;
  Request req;
  kgq::Status parsed;
  {
    ScopedSpan s(&t, "protocol.parse");
    parsed = kgq::serve::ParseRequestLine(line, &req);
  }
  std::string response;
  if (!parsed.ok()) {
    response = kgq::serve::RenderError(req, parsed);
  } else if (req.op == RequestOp::kQuery) {
    response = TracedQuery(req, full_cls);
  } else if (req.op == RequestOp::kInsertEdge ||
             req.op == RequestOp::kDeleteEdge) {
    kgq::Result<bool> applied = false;
    {
      ScopedSpan s(&t, "delta_store.write");
      applied =
          req.op == RequestOp::kInsertEdge
              ? server_->store().InsertEdge(req.from, req.to, req.label)
              : server_->store().DeleteEdge(req.from, req.to, req.label);
    }
    ScopedSpan s(&t, "protocol.render_status");
    response = applied.ok() ? kgq::serve::RenderApplied(req, *applied)
                            : kgq::serve::RenderError(req, applied.status());
  } else if (req.op == RequestOp::kPublish) {
    response = TracedPublish(req);
  } else if (req.op == RequestOp::kAnalytics) {
    response = TracedAnalytics(req, full_cls);
  } else {
    ScopedSpan s(&t, "serve.other");
    response = server_->HandleLine(line);
  }
  t.End(root);
  return response;
}

std::string Bench::TracedQuery(const Request& req, const std::string& cls) {
  Tracer& t = tracer_;
  EpochPtr snap = server_->store().Acquire();
  if (materialized_.insert(snap->lazy_graph.get()).second) {
    ScopedSpan s(&t, "graph.materialize");
    snap->graph();
  }
  Request profiled = req;
  profiled.profile = true;
  const std::vector<uint64_t> before = ReadCounters(kQueryCounters);
  kgq::Result<QueryAnswer> answer = kgq::Status::Internal("not run");
  uint32_t exec = 0;
  {
    ScopedSpan s(&t, "serve.execute");
    exec = s.id();
    answer = server_->ExecuteQueryAt(profiled, snap);
  }
  const std::map<std::string, uint64_t> deltas =
      CounterDeltas(kQueryCounters, before);
  t.AddCounters(cls, deltas);
  LayerCounts& lc = Layer();
  ++lc.queries;
  lc.compile_calls += deltas.at("rpq.compile.calls");
  lc.edges_scanned += deltas.at("rpq.step.edges_scanned") +
                      deltas.at("rpq.successor.edges_scanned");
  lc.word_ops += deltas.at("matrix_rpq.spgemm.word_ops");
  std::string response;
  {
    ScopedSpan s(&t, "protocol.render");
    response = answer.ok() ? kgq::serve::RenderAnswer(req, *answer)
                           : kgq::serve::RenderError(req, answer.status());
  }
  if (!answer.ok()) return response;
  if (answer->cached) {
    ++lc.hits;
    lc.hit_ns += t.Duration(exec);
    return response;
  }
  if (answer->profile != nullptr) {
    ++lc.uncached;
    const kgq::obs::ProfileNode& root = *answer->profile;
    const uint64_t exec_ns = t.Duration(exec);
    const uint32_t plan_exec =
        t.AddClosed(exec, "plan.exec", t.span(exec).start_ns, root.time_ns);
    AddProfile(plan_exec, root, t.span(exec).start_ns);
    lc.answer_rows += answer->rows.size();
    lc.pre_exec_ns += exec_ns > root.time_ns ? exec_ns - root.time_ns : 0;
  }
  ProbePlanLayers(req, snap, cls, answer->rows.size());
  return response;
}

void Bench::AddProfile(uint32_t parent, const kgq::obs::ProfileNode& node,
                       uint64_t start_ns) {
  std::string name = "op." + node.kind;
  if (!node.engine.empty()) name += "." + node.engine;
  const uint32_t id =
      tracer_.AddClosed(parent, std::move(name), start_ns, node.time_ns);
  Layer().op_rows += node.rows_out;
  uint64_t child_start = start_ns;
  for (const auto& child : node.children) {
    AddProfile(id, *child, child_start);
    child_start += child->time_ns;
  }
}

void Bench::ProbePlanLayers(const Request& req, const EpochPtr& snap,
                            const std::string& cls, size_t answer_rows) {
  Tracer& t = tracer_;
  const uint32_t probe = t.Begin("probe");
  kgq::Result<kgq::ConjunctiveQuery> cq = kgq::Status::Internal("no lang");
  {
    ScopedSpan s(&t, "frontend.parse");
    switch (req.lang) {
      case kgq::serve::QueryLang::kMatch: {
        auto parsed = kgq::ParseMatchQuery(req.text);
        cq = parsed.ok() ? kgq::CompileMatch(*parsed)
                         : kgq::Result<kgq::ConjunctiveQuery>(parsed.status());
        break;
      }
      case kgq::serve::QueryLang::kCrpq: {
        auto parsed = kgq::ParseCrpq(req.text);
        cq = parsed.ok() ? kgq::CompileCrpq(*parsed)
                         : kgq::Result<kgq::ConjunctiveQuery>(parsed.status());
        break;
      }
      case kgq::serve::QueryLang::kBgp: {
        auto parsed = kgq::ParseBgp(req.text);
        cq = parsed.ok() ? LowerServingBgp(*parsed, snap->num_nodes())
                         : kgq::Result<kgq::ConjunctiveQuery>(parsed.status());
        break;
      }
    }
  }
  if (cq.ok()) {
    kgq::LabeledGraphView view(snap->graph());
    kgq::GraphStats stats;
    {
      ScopedSpan s(&t, "plan.stats");
      stats = kgq::GraphStats::From(&view, snap->csr.get(),
                                    snap->node_label_counts.get());
    }
    kgq::Result<kgq::LogicalOpPtr> plan = kgq::Status::Internal("no plan");
    {
      ScopedSpan s(&t, "plan.optimize");
      plan = kgq::PlanQuery(*cq, stats, server_options_.planner);
    }
    if (plan.ok()) {
      const double est = std::max(1.0, (*plan)->est_rows);
      const double rows = std::max<double>(1.0, answer_rows);
      Layer().q_errors.push_back(std::max(est / rows, rows / est));
      if (explain_checked_.insert(cls).second) {
        // The probe must plan what the server plans.
        std::string explain = server_->HandleLine(
            ExplainLine(kgq::serve::QueryLangName(req.lang), req.text));
        kgq::Result<kgq::serve::JsonValue> doc =
            kgq::serve::ParseJson(explain);
        const kgq::serve::JsonValue* text =
            doc.ok() ? doc->Find("plan") : nullptr;
        if (text == nullptr || text->string != kgq::ExplainPlan(**plan)) {
          // Its stats, plan and compile figures would be measured on
          // another plan than the one served.
          Fail("traced planner probe differs from the server's plan for "
               "class " + cls);
        }
      }
      std::vector<const kgq::LogicalOp*> stack = {plan->get()};
      while (!stack.empty()) {
        const kgq::LogicalOp* op = stack.back();
        stack.pop_back();
        for (const auto& child : op->children) stack.push_back(child.get());
        if (op->kind != kgq::LogicalKind::kPathAtom ||
            op->path->kind() != kgq::PathExpr::Kind::kRegular) {
          continue;
        }
        ScopedSpan s(&t, "rpq.compile");
        auto nfa = kgq::PathNfa::Compile(view, *op->path->regex());
        if (nfa.ok()) (void)nfa->AttachSnapshot(snap->csr.get());
      }
    }
  }
  t.End(probe);
  probe_ns_ += t.Duration(probe);
}

std::string Bench::TracedPublish(const Request& req) {
  Tracer& t = tracer_;
  EpochPtr prev = server_->store().Acquire();
  EpochPtr snap;
  {
    ScopedSpan s(&t, "delta_store.publish");
    snap = server_->Publish();
  }
  std::string response;
  {
    ScopedSpan s(&t, "protocol.render_status");
    response = kgq::serve::RenderPublish(req, snap->epoch, snap->num_nodes(),
                                         snap->num_edges());
  }
  LayerCounts& lc = Layer();
  ++lc.publishes;
  lc.delta_edges += snap->delta.inserted.size() + snap->delta.deleted.size();
  if (snap->delta.has_base && snap->delta.base_epoch == prev->epoch) {
    const uint32_t probe = t.Begin("probe");
    {
      ScopedSpan s(&t, "graph.csr_delta");
      kgq::CsrSnapshot merged = kgq::CsrSnapshot::ApplyCanonicalDelta(
          *prev->csr, snap->num_nodes(), snap->delta.inserted,
          snap->delta.deleted);
      (void)merged;
    }
    t.End(probe);
    probe_ns_ += t.Duration(probe);
  }
  return response;
}

std::string Bench::TracedAnalytics(const Request& req,
                                   const std::string& cls) {
  Tracer& t = tracer_;
  EpochPtr snap = server_->store().Acquire();
  const std::vector<uint64_t> before = ReadCounters(kViewCounters);
  const kgq::obs::Histogram* warm =
      kgq::obs::Registry::Get().GetHistogram("pagerank.warm_iterations");
  const uint64_t warm_count = warm->Count();
  const uint64_t warm_sum = warm->Sum();
  std::string response;
  if (req.view == "pagerank") {
    std::shared_ptr<const std::vector<int64_t>> rank;
    {
      ScopedSpan s(&t, "view_cache.pagerank");
      rank = views_->PageRank(snap);
    }
    ScopedSpan s(&t, "protocol.render_status");
    response = RenderAnalyticsFrom(req, snap->epoch, nullptr, rank.get());
  } else {  // components; the workloads request no other view
    std::shared_ptr<const kgq::ComponentAssignment> comp;
    {
      ScopedSpan s(&t, "view_cache.components");
      comp = views_->Components(snap);
    }
    ScopedSpan s(&t, "protocol.render_status");
    response = RenderAnalyticsFrom(req, snap->epoch, comp.get(), nullptr);
  }
  const std::map<std::string, uint64_t> deltas =
      CounterDeltas(kViewCounters, before);
  t.AddCounters(cls, deltas);
  LayerCounts& lc = Layer();
  ++lc.view_calls;
  lc.view_fallbacks += deltas.at("serve.view.fallback");
  lc.warm_runs += warm->Count() - warm_count;
  lc.warm_iterations += warm->Sum() - warm_sum;
  return response;
}

// ---------------------------------------------------------------------
// Set-up

void Bench::Generate() {
  if (args_.workload == "point-read") {
    transit_ = std::make_unique<TransitGraph>(scale_.transit_nodes,
                                              scale_.transit_edges, &rng_);
    anchors_ = std::make_unique<AnchorStream>(transit_->persons(), &rng_);
  } else if (args_.workload == "read-write") {
    transit_ = std::make_unique<TransitGraph>(scale_.rw_nodes,
                                              scale_.rw_edges, &rng_);
    anchors_ = std::make_unique<AnchorStream>(transit_->persons(), &rng_);
  } else {
    kgq::DblpGraphOptions opts;
    opts.num_papers = scale_.papers;
    opts.num_authors = scale_.authors;
    opts.max_citations = 2;
    dblp_ = std::make_unique<kgq::LabeledGraph>(
        kgq::BuildDblpGraph(opts, &rng_));
    server_options_.cache_capacity = 0;
  }
}

void Bench::Load() {
  kgq::serve::DeltaStore& store = server_->store();
  auto insert = [&](kgq::NodeId from, kgq::NodeId to, std::string_view l) {
    ++attempted_;
    if (!store.InsertEdge(from, to, l).ok()) ++failed_;
  };
  if (transit_ != nullptr) {
    for (size_t n = 0; n < transit_->num_nodes(); ++n) {
      ++attempted_;
      store.AddNode(transit_->NodeLabel(n));
    }
    for (const TransitEdge& e : transit_->edges()) {
      insert(e.from, e.to, kTransitLabels[e.label]);
    }
    load_ops_ = transit_->num_nodes() + transit_->edges().size();
  } else {
    const kgq::LabeledGraph& g = *dblp_;
    for (kgq::NodeId n = 0; n < g.num_nodes(); ++n) {
      ++attempted_;
      store.AddNode(g.NodeLabelString(n));
    }
    for (kgq::EdgeId e = 0; e < g.num_edges(); ++e) {
      insert(g.EdgeSource(e), g.EdgeTarget(e), g.EdgeLabelString(e));
    }
    load_ops_ = g.num_nodes() + g.num_edges();
  }
}

std::string Bench::FreshReadLine() {
  if (transit_ != nullptr) {
    return QueryLine("bgp", TwoHopText(anchors_->Next()));
  }
  // kg_authors: its cost follows the common keyword's paper count, which
  // varies little between seeds (the rare-keyword shapes vary several-fold).
  for (const Shape& s : BulkPathShapes()) {
    if (s.name == "kg_authors") return QueryLine(s.lang, s.text, kBulkThreads);
  }
  return "";
}

void Bench::SetupRep(bool last) {
  // The previous repetition's server is torn down outside the clock, and
  // its freed memory handed back, so every repetition starts alike.
  server_.reset();
  views_.reset();
  materialized_.clear();
  malloc_trim(0);
  if (last) {
    // peak_rss_mb covers the measured server, from here to the end of
    // the timed phase, above what the generator holds.
    ResetPeakRss();
    base_rss_mb_ = StatusMb("VmRSS:");
  }
  const bool traced = args_.trace && last;
  active_ = traced ? &tracer_ : nullptr;
  in_setup_ = true;
  const uint64_t t0 = Now();
  server_ = std::make_unique<Server>(server_options_);
  views_ = std::make_unique<kgq::serve::ViewCache>();
  if (traced) {
    const uint32_t root = tracer_.BeginRequest("setup.load");
    {
      ScopedSpan s(&tracer_, "delta_store.load");
      Load();
    }
    tracer_.End(root);
  } else {
    Load();
  }
  double ms = 0;
  Send(PublishLine(), "publish", &ms);
  series_["setup.publish"].push_back(ms);
  Send(FreshReadLine(), "fresh", &ms);
  series_["setup.fresh"].push_back(ms);
  Send(AnalyticsLine("pagerank", 10), "pagerank", &ms);
  series_["setup.pagerank"].push_back(ms);
  Send(AnalyticsLine("components"), "components", &ms);
  series_["setup.components"].push_back(ms);
  series_["setup_s"].push_back(static_cast<double>(Now() - t0) * 1e-9);
  in_setup_ = false;
  active_ = nullptr;
}

// ---------------------------------------------------------------------
// Timed phase

void Bench::RunPointRead() {
  // Stratified 40/30/30 blocks: every block of ten holds four 1-hop, three
  // 2-hop and three join reads, so the class shares do not drift with the
  // seed and p50 / p95 stay inside the 2-hop / join classes.
  std::vector<int> block = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
  while (!TimeUp()) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng_.Below(i)]);
    }
    staged_.clear();
    for (int c : block) {
      if (TimeUp()) return;
      const uint32_t a = anchors_->Next();
      std::string cls;
      std::string shape;
      std::string text;
      if (c == 0) {
        cls = "one_hop";
        const bool out = rng_.Bernoulli(0.5);
        shape = out ? "one_hop_out" : "one_hop_in";
        text = out ? OneHopOutText(a) : OneHopInText(a);
      } else if (c == 1) {
        cls = shape = "two_hop";
        text = TwoHopText(a);
      } else {
        cls = shape = "join";
        text = JoinText(a);
      }
      const std::string line = QueryLine("bgp", text);
      double ms = 0;
      const std::string response = Send(line, cls, &ms);
      Stage(cls, ms);
      served_.push_back(Keep(line, cls, shape, a, response));
    }
    CommitStaged();
  }
}

void Bench::RunBulkPaths() {
  const std::vector<Shape> shapes = BulkPathShapes();
  std::vector<size_t> order(shapes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  while (!TimeUp()) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Below(i)]);
    }
    staged_.clear();
    for (size_t i : order) {
      if (TimeUp()) return;
      const Shape& s = shapes[i];
      const std::string line = QueryLine(s.lang, s.text, kBulkThreads);
      double ms = 0;
      const std::string response = Send(line, s.name, &ms);
      Stage(s.name, ms);
      served_.push_back(Keep(line, s.name, s.name, 0, response));
    }
    CommitStaged();
  }
}

void Bench::ReadWriteCycle(bool check) {
  double ms = 0;
  for (size_t i = 0; i < scale_.write_batch; ++i) {
    if (TimeUp()) return;
    if (rng_.Below(10) < 7) {
      Send(InsertLine(transit_->InsertRandom(&rng_)), "write", &ms);
    } else {
      Send(DeleteLine(transit_->DeleteRandom(&rng_)), "write", &ms);
    }
  }
  if (TimeUp()) return;
  Send(PublishLine(), "publish", &ms);
  Record("publish", ms);
  const EpochPtr snap = server_->store().Acquire();
  std::vector<Served> to_check;
  if (TimeUp()) return;
  const uint32_t anchor = anchors_->Next();
  const std::string fresh = QueryLine("bgp", TwoHopText(anchor));
  std::string response = Send(fresh, "fresh", &ms);
  Record("fresh", ms);
  if (check) {
    to_check.push_back(Keep(fresh, "fresh", "two_hop", anchor, response));
  }
  // Dashboards: the first copy after a publish misses, the repeat hits.
  const std::vector<Shape> dash = DashboardShapes();
  staged_.clear();
  for (int pass = 0; pass < 2; ++pass) {
    for (const Shape& s : dash) {
      if (TimeUp()) return;
      const std::string line = QueryLine(s.lang, s.text);
      const std::string cls = pass == 0 ? s.name : "hit";
      response = Send(line, cls, &ms);
      if (pass == 0) {
        Stage(s.name, ms);
      } else {
        Record("hit", ms);
      }
      if (check) to_check.push_back(Keep(line, cls, s.name, 0, response));
    }
    if (pass == 0) CommitStaged();
  }
  if (TimeUp()) return;
  const std::string pr_line = AnalyticsLine("pagerank", 10);
  const std::string pr = Send(pr_line, "pagerank", &ms);
  Record("pagerank", ms);
  if (TimeUp()) return;
  const std::string cc_line = AnalyticsLine("components");
  const std::string cc = Send(cc_line, "components", &ms);
  Record("components", ms);
  if (check) {
    const kgq::CsrSnapshot cold = ColdTransitCsr();
    if (!(cold == *snap->csr)) {
      Fail("published CSR of epoch " + std::to_string(snap->epoch) +
           " differs from a cold FromLabeledEdges build");
    }
    CheckTransitReads(to_check);
    CheckAnalytics(pr_line, pr, snap->epoch, cold);
    CheckAnalytics(cc_line, cc, snap->epoch, cold);
  }
}

// ---------------------------------------------------------------------
// Correctness

void Bench::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "CORRECTNESS FAILURE: %s\n", what.c_str());
}

void Bench::Expect(const Served& s, const std::string& tail,
                   const std::string& oracle) {
  if (Fnv1a(tail) != s.tail_hash) {
    Fail("served answer differs from " + oracle + ": " + s.line);
  }
  if (s.cached != (s.cls == "hit")) {
    Fail(std::string("served answer is ") + (s.cached ? "" : "not ") +
         "flagged cached: " + s.line);
  }
}

void Bench::CheckTransitReads(const std::vector<Served>& served) {
  const TransitOracle oracle(*transit_);
  for (const Served& s : served) {
    std::string tail;
    if (s.shape == "one_hop_out") {
      tail = oracle.OneHopOut(s.anchor);
    } else if (s.shape == "one_hop_in") {
      tail = oracle.OneHopIn(s.anchor);
    } else if (s.shape == "two_hop") {
      tail = oracle.TwoHop(s.anchor);
    } else if (s.shape == "join") {
      tail = oracle.Join(s.anchor);
    } else {
      tail = oracle.Dashboard(s.shape);
    }
    if (tail.empty()) {
      Fail("no oracle for read " + s.shape);
      continue;
    }
    Expect(s, tail, "the generator's edge set");
  }
}

void Bench::CheckReplay(const std::vector<Served>& served,
                        const EpochPtr& snap) {
  // One replay per distinct line: the served copies must all equal it,
  // whatever their thread budget.
  std::map<std::string, std::string> tails;
  for (const Served& s : served) {
    auto it = tails.find(s.line);
    if (it == tails.end()) {
      Request req;
      kgq::Status parsed = kgq::serve::ParseRequestLine(s.line, &req);
      kgq::Result<QueryAnswer> answer =
          parsed.ok() ? kgq::serve::EvalServeQuery(req, *snap,
                                                   server_options_.planner)
                      : kgq::Result<QueryAnswer>(parsed);
      std::string tail;
      if (answer.ok()) {
        tail = ResponseTail(kgq::serve::RenderAnswer(req, *answer));
      } else {
        Fail("replay oracle failed on " + s.line + ": " +
             answer.status().ToString());
      }
      it = tails.emplace(s.line, std::move(tail)).first;
    }
    if (!it->second.empty()) Expect(s, it->second, "EvalServeQuery");
  }
}

/// ResponseTail of a bulk-paths shape from kgq's sequential reference
/// evaluators (no planner, CSR, matrix engine or threads), run on the
/// generator's LabeledGraph rather than on the store's epoch.
kgq::Result<std::string> ReferenceTail(const Shape& shape,
                                       const kgq::GraphView& view) {
  if (shape.lang == "match") {
    KGQ_ASSIGN_OR_RETURN(kgq::MatchQuery q, kgq::ParseMatchQuery(shape.text));
    KGQ_ASSIGN_OR_RETURN(kgq::QueryResult r, kgq::ExecuteMatch(view, q));
    return AnswerTail(r.columns, r.rows);
  }
  KGQ_ASSIGN_OR_RETURN(
      kgq::Crpq q,
      kgq::ParseCrpq(shape.reference.empty() ? shape.text : shape.reference));
  KGQ_ASSIGN_OR_RETURN(kgq::RowSet r, kgq::EvalCrpqReference(view, q));
  return AnswerTail(r.schema, r.rows);
}

void Bench::CheckReference(const std::vector<Served>& served) {
  const kgq::LabeledGraphView view(*dblp_);
  for (const Shape& shape : BulkPathShapes()) {
    kgq::Result<std::string> tail = ReferenceTail(shape, view);
    if (!tail.ok()) {
      Fail("reference evaluator failed on " + shape.name + ": " +
           tail.status().ToString());
      continue;
    }
    for (const Served& s : served) {
      if (s.shape == shape.name) Expect(s, *tail, "the reference evaluator");
    }
  }
}

void Bench::CheckAnalytics(const std::string& line, const std::string& response,
                           uint64_t epoch, const kgq::CsrSnapshot& cold) {
  Request req;
  if (!kgq::serve::ParseRequestLine(line, &req).ok()) {
    Fail("unparsable analytics line " + line);
    return;
  }
  std::string expected;
  if (req.view == "pagerank") {
    kgq::PageRankFixpoint rank = kgq::PageRankFixpointCold(cold);
    expected = RenderAnalyticsFrom(req, epoch, nullptr, &rank.rank);
  } else {
    kgq::ComponentAssignment comp = kgq::WeaklyConnectedComponentsCsr(cold);
    expected = RenderAnalyticsFrom(req, epoch, &comp, nullptr);
  }
  if (expected != response) {
    Fail("maintained " + req.view + " differs from a cold recompute");
  }
}

kgq::CsrSnapshot Bench::ColdTransitCsr() const {
  // The store publishes its edges in canonical (from, to, label) order.
  std::vector<TransitEdge> edges = transit_->edges();
  std::sort(edges.begin(), edges.end(),
            [](const TransitEdge& a, const TransitEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return std::strcmp(kTransitLabels[a.label],
                                 kTransitLabels[b.label]) < 0;
            });
  kgq::Multigraph g(transit_->num_nodes());
  for (const TransitEdge& e : edges) (void)g.AddEdge(e.from, e.to);
  return kgq::CsrSnapshot::FromLabeledEdges(g, [&](kgq::EdgeId e) {
    return std::string(kTransitLabels[edges[e].label]);
  });
}

// ---------------------------------------------------------------------
// Reporting

double Bench::SeriesQuantile(const std::string& name, double q) const {
  auto it = series_.find(name);
  return it == series_.end() ? 0.0 : Quantile(it->second, q);
}

void Bench::PrintProvenance() const {
  std::ostringstream os;
  kgq::obs::JsonWriter w(os, /*compact=*/true);
  w.BeginObject();
  w.Key("provenance");
  w.BeginObject();
  w.Key("workload");
  w.String(args_.workload);
  w.Key("seed");
  w.UInt(args_.seed);
  w.Key("seconds");
  w.Double(args_.seconds);
  w.Key("trace");
  w.Bool(args_.trace);
  w.Key("scale");
  w.String(args_.tiny ? "tiny" : "full");
  w.Key("nproc");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("compiler");
  w.String(KGQ_BENCH_COMPILER);
  w.Key("build_type");
  w.String(KGQ_BENCH_BUILD_TYPE);
  w.Key("kgq_obs_compiled_in");
  w.Bool(kgq::obs::kCompiledIn);
  w.Key("kgq_obs_runtime_enabled");
  w.Bool(kgq::obs::Registry::Enabled());
  w.Key("cpu_steal_share");
  w.Double(steal_share_);
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", os.str().c_str());
}

Metrics Bench::EndToEnd() const {
  // Workloads without writes in the timed phase report the publish and
  // first read of their set-up repetitions.
  auto timed_or_setup = [&](const std::string& name) {
    return series_.count(name) > 0 ? SeriesQuantile(name)
                                   : SeriesQuantile("setup." + name);
  };
  double log_sum = 0;
  size_t shapes = 0;
  for (const auto& [name, v] : series_) {
    if (name.rfind("read.", 0) != 0 || v.empty()) continue;
    log_sum += std::log(std::max(Median(v), 1e-6));
    ++shapes;
  }
  // read-write's qps leaves out its timed analytics requests and their
  // serving time: the server's 4-thread view kernels swing 2-5x with CPU
  // steal, so they are measured per layer only.
  double requests = static_cast<double>(timed_requests_);
  double seconds = static_cast<double>(timed_ns_) * 1e-9;
  for (const char* view : {"pagerank", "components"}) {
    auto it = series_.find(view);
    if (it == series_.end()) continue;
    requests -= static_cast<double>(it->second.size());
    for (double ms : it->second) seconds -= ms * 1e-3;
  }
  const double qps = seconds > 0 ? requests / seconds : 0.0;
  return {
      {"setup_s", SeriesQuantile("setup_s"), "s"},
      {"read_p50_ms", SeriesQuantile("read", 0.5), "ms"},
      {"read_p95_ms", SeriesQuantile("read", 0.95), "ms"},
      {"qps", qps, "1/s"},
      {"read_geomean_ms",
       shapes == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(shapes)),
       "ms"},
      {"publish_p50_ms", timed_or_setup("publish"), "ms"},
      {"fresh_read_p50_ms", timed_or_setup("fresh"), "ms"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  };
}

Metrics Bench::PerLayer() const {
  const std::map<std::string, LayerTotal> timed =
      tracer_.Totals([](const std::string& c) { return !IsSetupClass(c); });
  const std::map<std::string, LayerTotal> setup =
      tracer_.Totals(IsSetupClass);
  // A layer the timed phase never reached is reported from set-up.
  auto pick = [&](const std::string& name) {
    auto it = timed.find(name);
    if (it != timed.end() && it->second.count > 0) return it->second;
    auto jt = setup.find(name);
    return jt != setup.end() ? jt->second : LayerTotal{};
  };
  auto mean_ms = [&](const std::string& name) {
    LayerTotal t = pick(name);
    return Mean(t.total_ns, t.count) * 1e-6;
  };
  auto mean_us = [&](const std::string& name) {
    LayerTotal t = pick(name);
    return Mean(t.total_ns, t.count) * 1e-3;
  };
  const LayerCounts& q = layer_[0];
  auto self_per_uncached_ms = [&](const std::string& prefix) {
    uint64_t self = 0;
    for (const auto& [name, t] : timed) {
      if (name == prefix || name.rfind(prefix + ".", 0) == 0) self += t.self_ns;
    }
    return Mean(self, q.uncached) * 1e-6;
  };
  const LayerCounts& w = layer_[0].publishes > 0 ? layer_[0] : layer_[1];
  const LayerCounts& v = layer_[0].view_calls > 0 ? layer_[0] : layer_[1];
  double write_us = 0;
  if (timed.count("delta_store.write") > 0) {
    write_us = mean_us("delta_store.write");
  } else {
    write_us = Mean(pick("delta_store.load").total_ns, load_ops_) * 1e-3;
  }
  const uint64_t hits = cache_hits_[1] - cache_hits_[0];
  const uint64_t misses = cache_misses_[1] - cache_misses_[0];
  const auto materialize_timed = timed.find("graph.materialize");

  // obs.trace_overhead: traced over untraced serving time, geometric mean
  // of the per-class median ratios.
  double log_sum = 0;
  size_t classes = 0;
  for (const auto& [cls, traced] : overhead_[1]) {
    auto it = overhead_[0].find(cls);
    if (it == overhead_[0].end() || it->second.empty() || traced.empty()) {
      continue;
    }
    const double base = Median(it->second);
    if (base <= 0) continue;
    log_sum += std::log(Median(traced) / base);
    ++classes;
  }

  return {
      {"rpq.compile_ms", mean_ms("rpq.compile"), "ms"},
      {"rpq.compile_calls",
       static_cast<double>(q.compile_calls) / std::max<uint64_t>(1, q.queries),
       "count"},
      {"rpq.edges_scanned",
       static_cast<double>(q.edges_scanned) / std::max<uint64_t>(1, q.queries),
       "count"},
      {"frontend.parse_us", mean_us("frontend.parse"), "us"},
      {"plan.stats_us", mean_us("plan.stats"), "us"},
      {"plan.optimize_us", mean_us("plan.optimize"), "us"},
      {"plan.q_error", Median(q.q_errors), "ratio"},
      {"plan.exec_ms", mean_ms("plan.exec"), "ms"},
      {"plan.self.node_scan_ms", self_per_uncached_ms("op.NodeScan"), "ms"},
      {"plan.self.edge_scan_ms", self_per_uncached_ms("op.EdgeScan"), "ms"},
      {"plan.self.filter_ms", self_per_uncached_ms("op.Filter"), "ms"},
      {"plan.self.hash_join_ms", self_per_uncached_ms("op.HashJoin"), "ms"},
      {"plan.self.project_ms", self_per_uncached_ms("op.Project"), "ms"},
      {"plan.rows_per_answer_row",
       static_cast<double>(q.op_rows) /
           static_cast<double>(std::max<uint64_t>(1, q.answer_rows)),
       "ratio"},
      {"serve.pre_exec_ms", Mean(q.pre_exec_ns, q.uncached) * 1e-6, "ms"},
      {"pathalg.nfa_ms", self_per_uncached_ms("op.PathAtom.nfa"), "ms"},
      {"pathalg.matrix_ms", self_per_uncached_ms("op.PathAtom.matrix"), "ms"},
      {"matrix_rpq.word_ops",
       static_cast<double>(q.word_ops) / std::max<uint64_t>(1, q.queries),
       "count"},
      {"protocol.parse_us", mean_us("protocol.parse"), "us"},
      {"protocol.render_ms", mean_ms("protocol.render"), "ms"},
      {"query_cache.hit_ratio",
       hits + misses == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(hits + misses),
       "ratio"},
      {"query_cache.hit_ms", Mean(q.hit_ns, q.hits) * 1e-6, "ms"},
      {"graph.materialize_ms", mean_ms("graph.materialize"), "ms"},
      {"graph.materialize_after_setup",
       materialize_timed == timed.end()
           ? 0.0
           : static_cast<double>(materialize_timed->second.count),
       "count"},
      {"graph.csr_delta_ms", mean_ms("graph.csr_delta"), "ms"},
      {"delta_store.write_us", write_us, "us"},
      {"delta_store.publish_ms", mean_ms("delta_store.publish"), "ms"},
      {"delta_store.delta_edges",
       static_cast<double>(w.delta_edges) / std::max<uint64_t>(1, w.publishes),
       "count"},
      {"view_cache.pagerank_ms", mean_ms("view_cache.pagerank"), "ms"},
      {"view_cache.components_ms", mean_ms("view_cache.components"), "ms"},
      {"pagerank.warm_iterations",
       static_cast<double>(v.warm_iterations) /
           static_cast<double>(std::max<uint64_t>(1, v.warm_runs)),
       "count"},
      {"view_cache.fallback_ratio",
       static_cast<double>(v.view_fallbacks) /
           static_cast<double>(std::max<uint64_t>(1, v.view_calls)),
       "ratio"},
      {"obs.trace_overhead",
       classes == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(classes)),
       "ratio"},
  };
}

int Bench::Run() {
  Generate();
  size_t reps = 1;
  if (!args_.trace) {
    reps = args_.workload == "point-read"   ? scale_.point_read_reps
           : args_.workload == "read-write" ? scale_.read_write_reps
                                            : scale_.bulk_paths_reps;
  }
  for (size_t r = 0; r < reps; ++r) SetupRep(r + 1 == reps);
  cache_hits_[0] = server_->cache().hits();
  cache_misses_[0] = server_->cache().misses();

  // The traced run spends the first half traced and the second half
  // untraced on the same server, which gives obs.trace_overhead.
  const uint64_t total_ns = static_cast<uint64_t>(args_.seconds * 1e9);
  const std::pair<uint64_t, uint64_t> steal0 = CpuStealJiffies();
  const uint64_t t0 = Now();
  timed_ = true;
  for (int half = 0; half < (args_.trace ? 2 : 1); ++half) {
    active_ = args_.trace && half == 0 ? &tracer_ : nullptr;
    deadline_ns_ = t0 + (args_.trace && half == 0 ? total_ns / 2 : total_ns);
    if (args_.workload == "point-read") {
      RunPointRead();
    } else if (args_.workload == "bulk-paths") {
      RunBulkPaths();
    } else {
      while (!TimeUp()) {
        ReadWriteCycle(false);
        ++cycles_;
      }
    }
  }
  active_ = nullptr;
  timed_ = false;
  timed_ns_ = Now() - t0;
  peak_rss_mb_ = StatusMb("VmHWM:") - base_rss_mb_;
  cache_hits_[1] = server_->cache().hits();
  cache_misses_[1] = server_->cache().misses();
  const std::pair<uint64_t, uint64_t> steal1 = CpuStealJiffies();
  if (steal1.second > steal0.second) {
    steal_share_ = static_cast<double>(steal1.first - steal0.first) /
                   static_cast<double>(steal1.second - steal0.second);
  }

  // The correctness gate, after the peak is read so that the oracles'
  // memory stays out of it.
  const uint64_t check0 = Now();
  if (args_.workload == "read-write") {
    ReadWriteCycle(true);  // one more cycle, checked end to end
  } else if (args_.workload == "point-read") {
    CheckTransitReads(served_);
  } else {
    CheckReplay(served_, server_->store().Acquire());
    CheckReference(served_);
  }
  std::fprintf(stderr, "correctness gate: %.2f s\n",
               static_cast<double>(Now() - check0) * 1e-9);

  std::fprintf(stderr,
               "%s seed=%llu: %llu timed requests in %.2f s, %zu cycles, "
               "steal %.3f, attempted=%llu failed=%llu correct=%d\n",
               args_.workload.c_str(),
               static_cast<unsigned long long>(args_.seed),
               static_cast<unsigned long long>(timed_requests_),
               static_cast<double>(timed_ns_) * 1e-9, cycles_, steal_share_,
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_), correct_ ? 1 : 0);
  for (const auto& [name, v] : series_) {
    std::fprintf(stderr, "  %-24s n=%-5zu min=%-10.3f p50=%-10.3f max=%.3f\n",
                 name.c_str(), v.size(), Quantile(v, 0), Median(v),
                 Quantile(v, 1));
  }
  if (args_.trace && !args_.trace_out.empty() &&
      !tracer_.Write(args_.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args_.trace_out.c_str());
  }

  PrintProvenance();
  const Metrics metrics = args_.trace ? PerLayer() : EndToEnd();
  std::ostringstream os;
  kgq::obs::JsonWriter w(os, /*compact=*/true);
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct_);
  w.Key("attempted");
  w.UInt(attempted_);
  w.Key("failed");
  w.UInt(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value, unit] : metrics) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Double(value, 17);
    w.Key("unit");
    w.String(unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", os.str().c_str());
  return correct_ ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "point-read" || args->workload == "bulk-paths" ||
          args->workload == "read-write");
}

}  // namespace
}  // namespace kgqbench

int main(int argc, char** argv) {
  kgqbench::Args args;
  if (!kgqbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgq_bench --workload point-read|bulk-paths|"
                 "read-write --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--trace-out FILE]\n");
    return 2;
  }
  kgqbench::Bench bench(args, args.tiny ? kgqbench::kTinyScale
                                        : kgqbench::kFullScale);
  const int code = bench.Run();
  // Skip tearing down the million-edge graph: nothing is left to flush.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(code);
}
