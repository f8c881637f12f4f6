#ifndef KGQ_SERVE_SERVER_H_
#define KGQ_SERVE_SERVER_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/quantile.h"
#include "plan/optimizer.h"
#include "serve/delta_store.h"
#include "serve/protocol.h"
#include "serve/query_cache.h"
#include "serve/view_cache.h"
#include "util/result.h"

namespace kgq {
namespace serve {

/// Knobs of one Server instance.
struct ServerOptions {
  /// Query worker threads in ServeStream (writes always run on the
  /// dispatcher, in input order). At least 1.
  size_t workers = 4;
  /// Bounded admission queue: when this many queries are in flight the
  /// dispatcher blocks before admitting the next one (backpressure
  /// towards the client). At least 1.
  size_t queue_capacity = 128;
  /// ParallelOptions thread budget for a query that does not ask for
  /// one ("threads" absent or 0).
  size_t default_query_threads = 1;
  /// Upper bound on the per-query "threads" request field.
  size_t max_query_threads = 8;
  /// Plan/result cache entries; 0 disables caching.
  size_t cache_capacity = 1024;
  /// Planner configuration shared by every query.
  PlannerOptions planner;
  /// Slow-query log threshold in nanoseconds; 0 disables the log. When
  /// armed, every query computation also captures a profile tree (so
  /// slow-log lines can name their top operators), and any query whose
  /// latency reaches the threshold emits one JSON line to `slow_log`.
  uint64_t slow_query_ns = 0;
  /// Destination of slow-query log lines; nullptr means std::cerr.
  std::ostream* slow_log = nullptr;
};

/// The kgq-serve core: a DeltaStore plus the three query front-ends
/// compiled through the unified plan IR, a plan/result cache and a
/// bounded-queue concurrent executor.
///
/// Every request runs through one pipeline of two steps:
///
///  * admit — parse the line, then Prepare a query or explain. Writes,
///    publish, stats, metrics, analytics and explain are answered right
///    here; a query is pinned to the current epoch and its cache slot
///    resolved.
///  * complete — FinishSlot (wait on a hit, compute on a miss), render,
///    then the request's bookkeeping in one place: serve.requests,
///    serve.errors for an error response, the latency histogram and
///    reservoir, and the slow-query log (every `query` request at or
///    above the threshold logs one line, whatever its outcome).
///
/// The entry points differ only in who runs each step:
///
///  * HandleLine() runs both steps on the calling thread.
///  * ServeStream() — the production loop — runs admit on the calling
///    (dispatcher) thread in input order and complete on `workers`
///    threads; a request answered at admission completes on the
///    dispatcher. Writes are thereby serialized in input order, and
///    epochs and cache slots are resolved in input order too. Responses
///    pass through a reorder buffer, so the byte stream is identical to
///    HandleLine-ing the same input for any worker count — the gate
///    tests/test_serve_concurrent.cc enforces.
///  * ExecuteQueryAt() runs both steps for one query pinned to a given
///    epoch and returns its answer unrendered.
///
/// Epoch semantics: a query runs against the snapshot current when it
/// was admitted; a publish between admission and execution does not
/// retroactively move it. Writes never make a query torn or blocked —
/// readers hold their EpochSnapshot by shared_ptr.
///
/// obs: counters serve.requests / serve.errors, histogram
/// serve.latency_ns (admission → response, per request), gauge
/// serve.queue.depth (admitted, not yet completed queries), plus the
/// DeltaStore and QueryCache metrics (serve.epoch, serve.writes.*,
/// serve.publish.edges, serve.cache.*).
class Server {
 public:
  /// Defined in server.cc; public so the cache-free replay oracle
  /// (EvalServeQuery) and the compile helpers can share it.
  struct PreparedQuery;

  explicit Server(ServerOptions options = {});

  DeltaStore& store() { return store_; }
  QueryCache& cache() { return cache_; }
  const ServerOptions& options() const { return options_; }

  /// Publishes the pending writes as a new epoch and invalidates the
  /// query cache iff the published *content* changed (an empty publish
  /// bumps the epoch but keeps every cached answer) — what the
  /// "publish" request does; in-process clients should use this rather
  /// than store().Publish() so the cache stays in step.
  EpochPtr Publish();

  /// Parses one request line, executes it and renders the response —
  /// all on the calling thread. Never throws; malformed input yields a
  /// structured error response and leaves the store untouched.
  std::string HandleLine(const std::string& line);

  /// Executes one "query" request (any other op is an InvalidArgument
  /// error) pinned to `snap`, through the cache, and returns the answer
  /// unrendered: a copy of the cache entry's rows, the one copy the
  /// serving path makes. Thread-safe; used by in-process clients (the
  /// benches' load generators).
  Result<QueryAnswer> ExecuteQueryAt(const Request& req,
                                     const EpochPtr& snap);

  /// Reads jsonl requests from `in` until EOF and writes one response
  /// line per request to `out`, in input order. Runs the dispatcher on
  /// the calling thread and options().workers query workers. `in` is
  /// untied from its tied output stream for the run (restored after).
  void ServeStream(std::istream& in, std::ostream& out);

  /// The "stats" payload: store/cache/write tallies (deterministic
  /// under admission ordering) plus exact latency quantiles.
  StatsBody BuildStats();
  /// The "metrics" payload: exact latency quantiles plus the full
  /// (compact) obs registry export.
  MetricsBody BuildMetrics();
  /// One rendered metrics line (no correlation id) — what the
  /// `--metrics-interval` exporter of kgq-serve emits periodically.
  std::string MetricsJson();

  /// The exact-latency reservoir behind stats/metrics quantiles. Every
  /// request's latency (the same observations as the serve.latency_ns
  /// histogram) is recorded here; tests recompute quantiles offline
  /// from Samples() and byte-compare them against served responses.
  const obs::QuantileReservoir& latency_reservoir() const {
    return latency_;
  }

 private:
  struct Admitted;
  struct StreamState;

  /// admit: parses `line` and answers the request, or leaves a query
  /// pending (see Admitted).
  Admitted Admit(const std::string& line);
  /// admit's query/explain half: Prepare against `snap`, then render
  /// the plan (explain) or resolve the cache slot (query).
  void AdmitQuery(Admitted* a, EpochPtr snap);
  /// complete: finishes a pending query, renders the response into
  /// `*response` unless it is null, and settles the request's counters,
  /// latency and slow-log line. Returns the query's shared cache entry
  /// (null for a request answered at admission) or the error; the
  /// answer is rendered from the entry in place, with the pinned epoch
  /// and the slot's hit flag, and never copied.
  Result<CachedAnswerPtr> Complete(Admitted* a, std::string* response);

  /// Completes a resolved cache slot: waits on a hit, computes and
  /// fills the promise (on every path) on a miss. Returns the entry, OK.
  Result<CachedAnswerPtr> FinishSlot(const PreparedQuery& prep,
                                     const EpochPtr& snap,
                                     QueryCache::Slot* slot);
  /// Serves one "analytics" request from the materialized-view cache,
  /// pinned to the current epoch.
  Result<std::string> HandleAnalytics(const Request& req);

  /// Feeds one request latency to the histogram and the reservoir.
  void RecordLatency(uint64_t latency_ns);
  /// Emits a slow-query log line when the log is armed, the request is
  /// a query and `latency_ns` reaches the threshold: query text, pinned
  /// epoch, duration and the top-3 operators by inclusive time from the
  /// answer's profile tree (none when `answer` is null).
  void MaybeLogSlow(const Admitted& a, uint64_t latency_ns,
                    const QueryAnswer* answer);

  ServerOptions options_;
  DeltaStore store_;
  QueryCache cache_;
  ViewCache views_;
  obs::QuantileReservoir latency_;
  std::mutex slow_mu_;  // Serializes slow-log lines across workers.
};

/// Cache-free, single-threaded evaluation of one "query" request
/// against one epoch — the replay oracle the concurrency tests compare
/// the served answers to. `answer.cached` is always
/// false and `answer.epoch` is `snap.epoch`.
Result<QueryAnswer> EvalServeQuery(const Request& req,
                                   const EpochSnapshot& snap,
                                   const PlannerOptions& planner = {});

}  // namespace serve
}  // namespace kgq

#endif  // KGQ_SERVE_SERVER_H_
