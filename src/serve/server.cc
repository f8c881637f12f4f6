#include "serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iostream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/clock.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "plan/exec.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "rpq/crpq.h"

namespace kgq {
namespace serve {

/// A query request after parsing and canonicalization: the parsed
/// front-end form (the alternative matches the request's `lang`), the
/// cache key and the resolved thread budget. Graph-independent —
/// preparing touches no snapshot, so the dispatcher can do it before
/// pinning an epoch.
struct Server::PreparedQuery {
  std::variant<MatchQuery, Crpq, std::vector<TriplePattern>> form;
  std::string key;
  ParallelOptions parallel;
  /// The request asked for a per-operator profile ("profile":true).
  bool profile = false;
};

/// A request between the pipeline's two steps. Admission either answers
/// it — `response` holds the rendered line or the error to render — or
/// leaves a query pending: prepared, pinned to `snap` and resolved
/// against the cache in `slot`.
struct Server::Admitted {
  Request req;
  uint64_t start_ns = 0;
  Result<std::string> response = std::string();
  PreparedQuery prep;
  EpochPtr snap;  ///< Non-null iff a query is pending.
  QueryCache::Slot slot;
};

namespace {

/// Canonical rendering of a BGP pattern list — the cache key for the
/// bgp front-end. Injective (constants are JSON-quoted), not meant to
/// be re-parsed.
std::string RenderBgpCanonical(const std::vector<TriplePattern>& patterns) {
  std::string out;
  auto term = [&out](const Term& t) {
    if (t.is_var) {
      out.push_back('?');
      out += t.text;
    } else {
      AppendJsonString(&out, t.text);
    }
  };
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (i > 0) out += " . ";
    const TriplePattern& p = patterns[i];
    term(p.s);
    out.push_back(' ');
    if (p.path != nullptr) {
      out.push_back('(');
      out += p.path->ToString();
      out.push_back(')');
    } else {
      term(p.p);
    }
    out.push_back(' ');
    term(p.o);
  }
  return out;
}

/// Resolves a BGP constant against the served epoch's node space. The
/// serving layer names nodes "n<i>" — the same convention as the RDF
/// encoding of a labeled graph (rdf/convert.h) — so clients address
/// nodes by the ids the write path handed out. Anything else (including
/// out-of-range ids) resolves to kNoNode, the uniform "no match"
/// binding CompileBgp also uses.
NodeId ResolveBgpConstant(const std::string& term, size_t num_nodes) {
  if (term.size() < 2 || term[0] != 'n') return kNoNode;
  uint64_t v = 0;
  for (size_t i = 1; i < term.size(); ++i) {
    char c = term[i];
    if (c < '0' || c > '9') return kNoNode;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > 0xFFFFFFFFull) return kNoNode;
  }
  if (v >= num_nodes) return kNoNode;
  return static_cast<NodeId>(v);
}

/// Lowers a BGP to the shared IR over a served epoch of `num_nodes`
/// nodes — the serving-layer sibling of CompileBgp (rdf/bgp.cc), with
/// two differences: constants are "n<i>" node names instead of RDF
/// terms, and a plain pattern whose predicate is kgq:label with a
/// constant object becomes a node-label test on the subject (mirroring
/// the LabeledToRdf encoding, where node labels live on kgq:label
/// triples).
Result<ConjunctiveQuery> CompileBgpOverLabeled(
    const std::vector<TriplePattern>& patterns, size_t num_nodes) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  std::set<std::string> user_vars;
  for (const TriplePattern& p : patterns) {
    if (p.s.is_var) user_vars.insert(p.s.text);
    if (p.o.is_var) user_vars.insert(p.o.text);
  }

  ConjunctiveQuery cq;
  size_t next_const = 0;
  auto var_of = [&](const Term& t) -> std::string {
    if (t.is_var) return t.text;
    std::string name = "$c" + std::to_string(next_const++);
    while (user_vars.count(name) > 0) name += "_";
    cq.bound[name] = ResolveBgpConstant(t.text, num_nodes);
    return name;
  };
  for (const TriplePattern& p : patterns) {
    if (p.path == nullptr && !p.p.is_var &&
        p.p.text == kNodeLabelPredicate) {
      if (p.o.is_var) {
        return Status::Unsupported(
            "kgq:label with a variable object (label enumeration) is not "
            "supported");
      }
      std::string v = var_of(p.s);
      TestPtr test = TestExpr::Label(p.o.text);
      auto it = cq.node_tests.find(v);
      cq.node_tests[v] =
          it == cq.node_tests.end() ? test : TestExpr::And(it->second, test);
      continue;
    }
    RegexPtr path = p.path;
    if (path == nullptr) {
      if (p.p.is_var) {
        return Status::Unsupported(
            "variable predicates are not supported by the serving "
            "front-end");
      }
      path = Regex::EdgeLabel(p.p.text);
    }
    cq.atoms.push_back({var_of(p.s), var_of(p.o), std::move(path)});
  }
  cq.projection.assign(user_vars.begin(), user_vars.end());
  return cq;
}

/// Parses and canonicalizes a query/explain request. The one front-end
/// switch, shared by the server's admit step and the replay oracle.
Result<Server::PreparedQuery> Prepare(const Request& req, size_t threads) {
  Server::PreparedQuery prep;
  switch (req.lang) {
    case QueryLang::kMatch: {
      KGQ_ASSIGN_OR_RETURN(MatchQuery match, ParseMatchQuery(req.text));
      prep.key = "match\n" + match.ToString();
      prep.form = std::move(match);
      break;
    }
    case QueryLang::kCrpq: {
      KGQ_ASSIGN_OR_RETURN(Crpq crpq, ParseCrpq(req.text));
      prep.key = "crpq\n" + crpq.ToString();
      prep.form = std::move(crpq);
      break;
    }
    case QueryLang::kBgp: {
      KGQ_ASSIGN_OR_RETURN(std::vector<TriplePattern> bgp,
                           ParseBgp(req.text));
      prep.key = "bgp\n" + RenderBgpCanonical(bgp);
      prep.form = std::move(bgp);
      break;
    }
  }
  prep.parallel.num_threads = threads;
  prep.profile = req.op == RequestOp::kQuery && req.profile;
  return prep;
}

/// Compile → stats → plan: the prefix of both EXPLAIN and execution.
/// Sets `*ask` for BGPs with no user variable (the "does this pattern
/// hold" form), whose answer collapses to zero or one empty row.
Result<LogicalOpPtr> PlanPrepared(const Server::PreparedQuery& prep,
                                  const EpochSnapshot& snap,
                                  const PlannerOptions& planner, bool* ask) {
  Result<ConjunctiveQuery> compiled = std::visit(
      [&snap](const auto& form) -> Result<ConjunctiveQuery> {
        using Form = std::decay_t<decltype(form)>;
        if constexpr (std::is_same_v<Form, MatchQuery>) {
          return CompileMatch(form);
        } else if constexpr (std::is_same_v<Form, Crpq>) {
          return CompileCrpq(form);
        } else {
          return CompileBgpOverLabeled(form, snap.num_nodes());
        }
      },
      prep.form);
  if (!compiled.ok()) return compiled.status();
  ConjunctiveQuery& cq = *compiled;
  *ask = std::holds_alternative<std::vector<TriplePattern>>(prep.form) &&
         cq.projection.empty();
  if (*ask) cq.projection.push_back(cq.bound.begin()->first);
  EpochGraphView view = snap.View();
  GraphStats stats = GraphStats::From(&view, snap.csr.get(),
                                      snap.node_label_counts.get());
  return PlanQuery(cq, stats, planner);
}

/// Plan → execute one prepared query against one epoch. The uncached
/// compute path shared by the server and the replay oracle. With
/// `capture_profile`, execution runs under a request-scoped
/// TraceContext and the answer carries the per-operator profile tree.
Result<QueryAnswer> ComputePrepared(const Server::PreparedQuery& prep,
                                    const EpochSnapshot& snap,
                                    const PlannerOptions& planner,
                                    bool capture_profile = false) {
  KGQ_SPAN("serve.query");
  bool ask = false;
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanPrepared(prep, snap, planner, &ask));
  EpochGraphView view = snap.View();
  ExecOptions eopts;
  eopts.parallel = prep.parallel;  // The snapshot is view.csr().

  // The enable decision is snapshotted once, here: a concurrent
  // SetEnabled flip mid-execution can therefore never produce a torn
  // tree — the profile is captured whole or not at all (the executor
  // gates node construction only on the installed trace).
  std::shared_ptr<const obs::ProfileNode> profile;
  RowSet rows;
  if (capture_profile && obs::kCompiledIn && obs::Registry::Enabled()) {
    obs::TraceContext ctx;
    obs::ScopedTrace trace(&ctx);
    KGQ_ASSIGN_OR_RETURN(rows, ExecutePlan(view, *plan, eopts));
    profile = ctx.TakeProfile();
  } else {
    KGQ_ASSIGN_OR_RETURN(rows, ExecutePlan(view, *plan, eopts));
  }

  QueryAnswer answer;
  answer.epoch = snap.epoch;
  answer.profile = std::move(profile);
  if (ask) {
    if (!rows.rows.empty()) answer.rows.NewRow();  // One row, no columns.
  } else {
    answer.columns = std::move(rows.schema);
    answer.rows = std::move(rows.rows);
  }
  return answer;
}

/// Plan → EXPLAIN (uncached; a debugging surface).
Result<std::string> ExplainPrepared(const Server::PreparedQuery& prep,
                                    const EpochSnapshot& snap,
                                    const PlannerOptions& planner) {
  bool ask = false;
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanPrepared(prep, snap, planner, &ask));
  return ExplainPlan(*plan);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), cache_(options.cache_capacity) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.default_query_threads == 0) options_.default_query_threads = 1;
  if (options_.max_query_threads == 0) options_.max_query_threads = 1;
}

EpochPtr Server::Publish() {
  const uint64_t before = store_.Acquire()->content_version;
  EpochPtr snap = store_.Publish();
  // Cached answers are keyed on content_version, so an empty publish
  // (same content, new epoch number) keeps every entry; responses served
  // from them get their epoch patched to the pinned snapshot's.
  if (snap->content_version != before) cache_.Invalidate();
  return snap;
}

Server::Admitted Server::Admit(const std::string& line) {
  Admitted a;
  a.start_ns = obs::NowNanos();
  Status parsed = ParseRequestLine(line, &a.req);
  if (!parsed.ok()) {
    a.response = parsed;
    return a;
  }
  const Request& req = a.req;
  switch (req.op) {
    case RequestOp::kQuery:
    case RequestOp::kExplain:
      AdmitQuery(&a, store_.Acquire());
      break;
    case RequestOp::kAddNode:
      a.response = RenderNode(req, store_.AddNode(req.label));
      break;
    case RequestOp::kInsertEdge:
    case RequestOp::kDeleteEdge: {
      Result<bool> applied =
          req.op == RequestOp::kInsertEdge
              ? store_.InsertEdge(req.from, req.to, req.label)
              : store_.DeleteEdge(req.from, req.to, req.label);
      if (applied.ok()) {
        a.response = RenderApplied(req, *applied);
      } else {
        a.response = applied.status();
      }
      break;
    }
    case RequestOp::kPublish: {
      EpochPtr snap = Publish();
      a.response = RenderPublish(req, snap->epoch, snap->num_nodes(),
                                 snap->num_edges());
      break;
    }
    case RequestOp::kStats:
      a.response = RenderStats(req, BuildStats());
      break;
    case RequestOp::kMetrics:
      a.response = RenderMetrics(req, BuildMetrics());
      break;
    case RequestOp::kAnalytics:
      a.response = HandleAnalytics(req);
      break;
  }
  return a;
}

void Server::AdmitQuery(Admitted* a, EpochPtr snap) {
  const size_t threads = a->req.threads == 0
                             ? options_.default_query_threads
                             : a->req.threads;
  Result<PreparedQuery> prep =
      Prepare(a->req, std::min(threads, options_.max_query_threads));
  if (!prep.ok()) {
    a->response = prep.status();
    return;
  }
  if (a->req.op == RequestOp::kExplain) {
    Result<std::string> plan = ExplainPrepared(*prep, *snap, options_.planner);
    if (plan.ok()) {
      a->response = RenderExplain(a->req, snap->epoch, *plan);
    } else {
      a->response = plan.status();
    }
    return;
  }
  if (prep->profile) KGQ_COUNTER_INC("serve.profile.requests");
  a->prep = std::move(*prep);
  a->snap = std::move(snap);
  a->slot = cache_.Lookup(a->prep.key, a->snap->content_version);
}

Result<QueryAnswer> Server::Complete(Admitted* a, std::string* response) {
  Result<QueryAnswer> answer = QueryAnswer();
  if (a->snap != nullptr) {
    answer = FinishSlot(a->prep, a->snap, &a->slot);
  } else if (!a->response.ok()) {
    answer = a->response.status();
  }
  if (response != nullptr) {
    if (!answer.ok()) {
      *response = RenderError(a->req, answer.status());
    } else if (a->snap != nullptr) {
      *response = RenderAnswer(a->req, *answer);
    } else {
      *response = std::move(*a->response);
    }
  }
  KGQ_COUNTER_INC("serve.requests");
  if (!answer.ok()) KGQ_COUNTER_INC("serve.errors");
  const uint64_t latency_ns = obs::NowNanos() - a->start_ns;
  RecordLatency(latency_ns);
  MaybeLogSlow(*a, latency_ns, answer.ok() ? &*answer : nullptr);
  return answer;
}

Result<QueryAnswer> Server::FinishSlot(const PreparedQuery& prep,
                                       const EpochPtr& snap,
                                       QueryCache::Slot* slot) {
  if (slot->hit) {
    CachedAnswerPtr cached = slot->future.get();
    if (!cached->status.ok()) return cached->status;
    QueryAnswer answer = cached->answer;
    answer.cached = true;
    // The entry may predate an empty publish (same content version,
    // older epoch number); the response reports the pinned epoch.
    answer.epoch = snap->epoch;
    return answer;
  }
  auto cached = std::make_shared<CachedAnswer>();
  // Profile when the computing request asked, or whenever the slow
  // log is armed (its lines need per-operator attribution). Coalesced
  // requests waiting on this slot — and later cache hits — get this
  // computation's profile (or none), which keeps the profile member
  // deterministic: admission order decides who computes.
  const bool capture_profile =
      prep.profile || options_.slow_query_ns > 0;
  Result<QueryAnswer> computed =
      ComputePrepared(prep, *snap, options_.planner, capture_profile);
  if (computed.ok()) {
    cached->answer = std::move(computed).value();
  } else {
    cached->status = computed.status();
  }
  // Fill on every path — a forever-pending slot would hang coalesced
  // requests waiting on this computation.
  slot->fill->set_value(cached);
  if (!cached->status.ok()) return cached->status;
  QueryAnswer answer = cached->answer;
  answer.cached = false;
  return answer;
}

std::string Server::HandleLine(const std::string& line) {
  Admitted a = Admit(line);
  std::string response;
  Complete(&a, &response);
  return response;
}

Result<QueryAnswer> Server::ExecuteQueryAt(const Request& req,
                                           const EpochPtr& snap) {
  Admitted a;
  a.start_ns = obs::NowNanos();
  a.req = req;
  if (req.op == RequestOp::kQuery) {
    AdmitQuery(&a, snap);
  } else {
    a.response =
        Status::InvalidArgument("ExecuteQueryAt handles \"query\" requests");
  }
  return Complete(&a, nullptr);
}

Result<std::string> Server::HandleAnalytics(const Request& req) {
  KGQ_SPAN("serve.analytics");
  EpochPtr snap = store_.Acquire();
  if (req.has_node && req.node >= snap->num_nodes()) {
    return Status::InvalidArgument("analytics: no such node");
  }
  AnalyticsBody body;
  body.epoch = snap->epoch;
  body.view = req.view;
  body.has_node = req.has_node;
  body.node = req.node;
  if (req.view == "components") {
    std::shared_ptr<const ComponentAssignment> comp = views_.Components(snap);
    body.num_components = comp->num_components;
    if (req.has_node) body.component = comp->component[req.node];
  } else if (req.view == "pagerank") {
    std::shared_ptr<const std::vector<int64_t>> rank = views_.PageRank(snap);
    if (req.has_node) body.rank = (*rank)[req.node];
    if (req.top > 0) {
      body.has_top = true;
      body.top.reserve(rank->size());
      for (NodeId n = 0; n < rank->size(); ++n) {
        body.top.emplace_back(n, (*rank)[n]);
      }
      const size_t k = std::min<size_t>(req.top, body.top.size());
      std::partial_sort(body.top.begin(), body.top.begin() + k,
                        body.top.end(),
                        [](const std::pair<NodeId, int64_t>& a,
                           const std::pair<NodeId, int64_t>& b) {
                          if (a.second != b.second) return a.second > b.second;
                          return a.first < b.first;
                        });
      body.top.resize(k);
    }
  } else {  // reach
    std::shared_ptr<const BoolCsr> closure =
        views_.Reachability(snap, req.label);
    body.label = req.label;
    if (req.has_node) {
      body.reach_nodes.assign(
          closure->cols.begin() +
              static_cast<ptrdiff_t>(closure->offsets[req.node]),
          closure->cols.begin() +
              static_cast<ptrdiff_t>(closure->offsets[req.node + 1]));
    } else {
      body.nnz = closure->nnz();
    }
  }
  return RenderAnalytics(req, body);
}

StatsBody Server::BuildStats() {
  StatsBody s;
  s.epoch = store_.CurrentEpoch();
  s.nodes = store_.NumNodes();
  s.edges = store_.NumLiveEdges();
  s.pending = store_.PendingOps();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_size = cache_.size();
  s.writes_applied = store_.WritesApplied();
  s.writes_noop = store_.WritesNoop();
  const std::vector<uint64_t> q = latency_.Quantiles({50, 99});
  s.p50_ns = q[0];
  s.p99_ns = q[1];
  return s;
}

MetricsBody Server::BuildMetrics() {
  MetricsBody m;
  m.epoch = store_.CurrentEpoch();
  m.samples = latency_.WindowSize();
  const std::vector<uint64_t> q = latency_.Quantiles({50, 95, 99});
  m.p50_ns = q[0];
  m.p95_ns = q[1];
  m.p99_ns = q[2];
  std::ostringstream os;
  obs::JsonWriter w(os, /*compact=*/true);
  obs::Registry::Get().WriteJson(&w);
  m.registry_json = os.str();
  return m;
}

std::string Server::MetricsJson() {
  Request req;  // No correlation id: the periodic-export shape.
  return RenderMetrics(req, BuildMetrics());
}

void Server::RecordLatency(uint64_t latency_ns) {
  KGQ_HISTOGRAM_RECORD("serve.latency_ns", latency_ns);
  latency_.Record(latency_ns);
}

void Server::MaybeLogSlow(const Admitted& a, uint64_t latency_ns,
                          const QueryAnswer* answer) {
  if (options_.slow_query_ns == 0 || latency_ns < options_.slow_query_ns) {
    return;
  }
  if (a.req.op != RequestOp::kQuery) return;
  KGQ_COUNTER_INC("serve.profile.slow");

  // Top-3 operators by (inclusive) wall time, from the profile tree the
  // armed slow log made every computation capture. A cache hit may
  // carry the computing request's tree; an obs-disabled run has none.
  std::vector<const obs::ProfileNode*> ops;
  if (answer != nullptr && answer->profile != nullptr) {
    std::vector<const obs::ProfileNode*> stack = {answer->profile.get()};
    while (!stack.empty()) {
      const obs::ProfileNode* node = stack.back();
      stack.pop_back();
      ops.push_back(node);
      for (const auto& child : node->children) stack.push_back(child.get());
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const obs::ProfileNode* x, const obs::ProfileNode* y) {
                       return x->time_ns > y->time_ns;
                     });
    if (ops.size() > 3) ops.resize(3);
  }

  std::ostream* out =
      options_.slow_log != nullptr ? options_.slow_log : &std::cerr;
  std::lock_guard<std::mutex> lock(slow_mu_);
  obs::JsonWriter w(*out, /*compact=*/true);
  w.BeginObject();
  w.Key("slow_query");
  w.BeginObject();
  w.Key("lang");
  w.String(QueryLangName(a.req.lang));
  w.Key("text");
  w.String(a.req.text);
  w.Key("epoch");
  w.UInt(a.snap != nullptr ? a.snap->epoch : 0);
  w.Key("cached");
  w.Bool(a.snap != nullptr && a.slot.hit);
  w.Key("time_ns");
  w.UInt(latency_ns);
  w.Key("top_ops");
  w.BeginArray();
  for (const obs::ProfileNode* op : ops) {
    w.BeginObject();
    w.Key("op");
    w.String(op->kind);
    if (!op->engine.empty()) {
      w.Key("engine");
      w.String(op->engine);
    }
    w.Key("rows_out");
    w.UInt(op->rows_out);
    w.Key("time_ns");
    w.UInt(op->time_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  *out << '\n';
  out->flush();
}

/// Shared state of one ServeStream run: the bounded job queue feeding
/// the workers and the reorder buffer serializing responses back into
/// input order.
struct Server::StreamState {
  struct Job {
    uint64_t seq = 0;
    Admitted request;
  };

  explicit StreamState(std::ostream& o) : out(o) {}

  std::mutex mu;
  std::condition_variable cv_space;  // Dispatcher waits for queue room.
  std::condition_variable cv_work;   // Workers wait for jobs.
  std::deque<Job> queue;
  bool done = false;

  std::mutex emit_mu;
  std::map<uint64_t, std::string> reorder;
  uint64_t next_emit = 0;
  std::ostream& out;

  /// Hands one response line to the reorder buffer; flushes every line
  /// that is now next in input order.
  void Emit(uint64_t seq, std::string line) {
    std::lock_guard<std::mutex> lock(emit_mu);
    reorder.emplace(seq, std::move(line));
    bool wrote = false;
    for (auto it = reorder.find(next_emit); it != reorder.end();
         it = reorder.find(next_emit)) {
      out << it->second << '\n';
      reorder.erase(it);
      ++next_emit;
      wrote = true;
    }
    if (wrote) out.flush();
  }
};

void Server::ServeStream(std::istream& in, std::ostream& out) {
  StreamState state(out);
  // Reading a tied input stream flushes the tied output (std::cin is
  // tied to std::cout) from the dispatcher thread, outside emit_mu —
  // a race with the workers' Emit that can write buffered responses
  // twice. Untie for the run; every flush then happens in Emit.
  std::ostream* const tied = in.tie(nullptr);

  // FIFO pop order plus admission-order cache lookups make the worker
  // pool deadlock-free under request coalescing: the computing (miss)
  // job always precedes the jobs waiting on its future.
  std::vector<std::thread> workers;
  workers.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers.emplace_back([this, &state] {
      for (;;) {
        StreamState::Job job;
        {
          std::unique_lock<std::mutex> lock(state.mu);
          state.cv_work.wait(
              lock, [&state] { return state.done || !state.queue.empty(); });
          if (state.queue.empty()) return;  // done and drained.
          job = std::move(state.queue.front());
          state.queue.pop_front();
          KGQ_GAUGE_SET("serve.queue.depth", state.queue.size());
        }
        state.cv_space.notify_one();
        std::string resp;
        Complete(&job.request, &resp);
        state.Emit(job.seq, std::move(resp));
      }
    });
  }

  std::string line;
  uint64_t seq = 0;
  while (std::getline(in, line)) {
    StreamState::Job job;
    job.seq = seq++;
    job.request = Admit(line);
    if (job.request.snap == nullptr) {
      // Answered at admission: writes must apply in input order, and
      // the rest are cheap.
      std::string resp;
      Complete(&job.request, &resp);
      state.Emit(job.seq, std::move(resp));
      continue;
    }
    // The epoch was pinned and the cache slot resolved at admission, in
    // input order — this is what makes hit/miss (and the whole response
    // stream) deterministic for any worker count.
    {
      std::unique_lock<std::mutex> lock(state.mu);
      state.cv_space.wait(lock, [this, &state] {
        return state.queue.size() < options_.queue_capacity;
      });
      state.queue.push_back(std::move(job));
      KGQ_GAUGE_SET("serve.queue.depth", state.queue.size());
    }
    state.cv_work.notify_one();
  }

  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.done = true;
  }
  state.cv_work.notify_all();
  for (std::thread& t : workers) t.join();
  in.tie(tied);
}

Result<QueryAnswer> EvalServeQuery(const Request& req,
                                   const EpochSnapshot& snap,
                                   const PlannerOptions& planner) {
  if (req.op != RequestOp::kQuery) {
    return Status::InvalidArgument("EvalServeQuery replays \"query\" requests");
  }
  // One thread: the single-threaded reference path.
  KGQ_ASSIGN_OR_RETURN(Server::PreparedQuery prep, Prepare(req, 1));
  return ComputePrepared(prep, snap, planner);
}

}  // namespace serve
}  // namespace kgq
