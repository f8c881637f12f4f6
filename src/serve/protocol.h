#ifndef KGQ_SERVE_PROTOCOL_H_
#define KGQ_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <memory>

#include "graph/multigraph.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "plan/row_table.h"
#include "util/result.h"

namespace kgq {
namespace serve {

/// Hard cap on one request line. Longer lines are rejected with
/// OutOfRange before any parsing happens — the "oversized" arm of the
/// protocol fuzz suite.
inline constexpr size_t kMaxRequestBytes = 1 << 16;  // 64 KiB

/// Maximum nesting depth ParseJson accepts (objects/arrays). Requests
/// are flat; the limit only bounds adversarial input.
inline constexpr size_t kMaxJsonDepth = 16;

/// A parsed JSON value — the minimal DOM behind the jsonl request
/// protocol. Numbers are kept as double plus an exact-integer flag
/// (node ids and epoch numbers must arrive as integers).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  bool number_is_int = false;  ///< No '.', 'e' and within int64 range.
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  /// First member with this key, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;
};

/// Parses exactly one JSON value spanning all of `text` (leading and
/// trailing whitespace allowed, trailing garbage is an error). Errors
/// are ParseError (syntax) or OutOfRange (too deep / too long).
Result<JsonValue> ParseJson(std::string_view text);

/// The request operations of the jsonl protocol. Writes mutate the
/// delta store and take effect at the next publish; queries and
/// explains run against the latest published epoch.
enum class RequestOp {
  kAddNode,     ///< {"op":"add_node","label":L} → node id
  kInsertEdge,  ///< {"op":"insert_edge","from":N,"to":N,"label":L}
  kDeleteEdge,  ///< {"op":"delete_edge","from":N,"to":N,"label":L}
  kPublish,     ///< {"op":"publish"} → new epoch
  kQuery,       ///< {"op":"query","lang":...,"text":...[,"threads":T]
                ///<  [,"profile":true]}
  kExplain,     ///< {"op":"explain","lang":...,"text":...} → plan text
  kStats,       ///< {"op":"stats"} → epoch/nodes/edges/pending/cache/...
  kMetrics,     ///< {"op":"metrics"} → registry dump + exact latency
                ///<  quantiles
  kAnalytics,   ///< {"op":"analytics","view":V[,"label":L][,"node":N]
                ///<  [,"top":K]} → materialized view lookup
};

/// The three query front-ends the server compiles through src/plan.
enum class QueryLang { kMatch, kCrpq, kBgp };

const char* RequestOpName(RequestOp op);
const char* QueryLangName(QueryLang lang);

/// One validated request. `id` is an optional client-chosen correlation
/// number echoed in the response.
struct Request {
  RequestOp op = RequestOp::kStats;
  bool has_id = false;
  uint64_t id = 0;
  std::string label;      // add_node / insert_edge / delete_edge
  NodeId from = kNoNode;  // insert_edge / delete_edge
  NodeId to = kNoNode;
  QueryLang lang = QueryLang::kMatch;  // query / explain
  std::string text;                    // query / explain
  size_t threads = 0;  // query: per-query thread budget (0 = server default)
  /// query: attach the per-operator profile tree to the response. The
  /// response then always carries a "profile" member — the tree when
  /// one was captured, null when profiling is unavailable (obs compiled
  /// out or disabled) or the answer was served from a cache entry
  /// computed without a profile.
  bool profile = false;
  /// analytics: which materialized view — "components", "pagerank" or
  /// "reach" (the latter requires `label`: the edge label whose
  /// positive-length closure is queried).
  std::string view;
  bool has_node = false;  ///< analytics: scope the response to one node.
  NodeId node = kNoNode;
  uint64_t top = 0;  ///< analytics pagerank: top-K ranked nodes.
};

/// Parses and validates one request line. On failure returns a non-OK
/// status and leaves in `*out` whatever could still be recovered — in
/// particular a well-formed "id" member, so the error response can be
/// correlated. Never throws, never reads past the line.
Status ParseRequestLine(std::string_view line, Request* out);

/// A query's answer: the epoch it was pinned to, whether it was served
/// from the plan/result cache, and the canonical (sorted, deduplicated,
/// limited) rows — the executor's flat RowTable, moved in without a
/// per-row copy and rendered straight from its buffer. An ASK answer
/// has no columns and one zero-arity row when the pattern holds. A
/// cache hit copies the table (one memcpy of its buffer).
struct QueryAnswer {
  uint64_t epoch = 0;
  bool cached = false;
  std::vector<std::string> columns;
  RowTable rows;  ///< arity == columns.size().
  /// Per-operator profile tree, when the computation captured one
  /// (request asked for it, or the server's slow-query log is armed).
  /// Shared with the cache entry; never mutated after capture.
  std::shared_ptr<const obs::ProfileNode> profile;

  bool operator==(const QueryAnswer& other) const {
    return epoch == other.epoch && columns == other.columns &&
           rows == other.rows;
  }
};

/// The "stats" response payload. Every field except the `_ns` pair is
/// deterministic under the serving layer's admission-order discipline
/// (cache lookups, writes and the stats request itself are all resolved
/// on the dispatcher in input order), so golden diffs byte-compare them
/// at any worker count; the `_ns` fields are wall-clock and rendered
/// last so gates can normalize everything `_ns`-suffixed to 0.
struct StatsBody {
  uint64_t epoch = 0;
  size_t nodes = 0;
  size_t edges = 0;
  size_t pending = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t cache_size = 0;
  uint64_t writes_applied = 0;
  uint64_t writes_noop = 0;
  uint64_t p50_ns = 0;  ///< Exact reservoir p50 of serve.latency_ns.
  uint64_t p99_ns = 0;  ///< Exact reservoir p99 of serve.latency_ns.
};

/// The "analytics" response payload. Every rendered field is a pure
/// function of the pinned epoch's logical graph (no iteration counts,
/// no wall-clock — maintenance telemetry goes to the obs registry), so
/// analytics responses are byte-stable across hit/advance/rebuild paths
/// and across worker counts. `view` selects which members render.
struct AnalyticsBody {
  uint64_t epoch = 0;
  std::string view;  ///< "components" | "pagerank" | "reach"

  // components
  size_t num_components = 0;
  uint32_t component = 0;  ///< with node: that node's component id.

  // pagerank (integer fixed-point, kPageRankScale units)
  int64_t rank = 0;  ///< with node: that node's rank.
  /// With top-K: (node, rank) sorted by rank descending, node ascending.
  std::vector<std::pair<NodeId, int64_t>> top;

  // reach
  std::string label;
  size_t nnz = 0;                   ///< closure size (no node given).
  std::vector<NodeId> reach_nodes;  ///< with node: successors, ascending.

  bool has_node = false;
  NodeId node = kNoNode;
  bool has_top = false;
};

/// The "metrics" response payload: exact latency quantiles from the
/// server's QuantileReservoir plus the full obs registry export
/// (`registry_json` must be one compact JSON object; it is embedded
/// verbatim as the "metrics" member).
struct MetricsBody {
  uint64_t epoch = 0;
  uint64_t samples = 0;  ///< Reservoir window size the quantiles are over.
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  std::string registry_json = "{}";
};

/// Response renderers. One line each (no trailing newline), fixed field
/// order so responses are byte-stable for golden diffs: "id" first when
/// the request carried one, then "ok", then the payload.
std::string RenderError(const Request& req, const Status& status);
std::string RenderNode(const Request& req, NodeId node);
std::string RenderApplied(const Request& req, bool applied);
std::string RenderPublish(const Request& req, uint64_t epoch, size_t nodes,
                          size_t edges);
std::string RenderStats(const Request& req, const StatsBody& stats);
std::string RenderMetrics(const Request& req, const MetricsBody& metrics);
std::string RenderAnalytics(const Request& req, const AnalyticsBody& body);
std::string RenderAnswer(const Request& req, const QueryAnswer& answer);
std::string RenderExplain(const Request& req, uint64_t epoch,
                          const std::string& plan);

/// Appends one profile tree as a JSON object: fixed field order
/// {"op","engine"?,"rows_in","rows_out","time_ns","children"}; "engine"
/// is omitted for operators with no engine choice. `time_ns` is the
/// only non-deterministic field.
void AppendProfileNode(std::string* out, const obs::ProfileNode& node);

/// Appends `s` JSON-escaped (quotes included) to `out` — the one
/// escaper every renderer and obs::JsonWriter share.
using obs::AppendJsonString;

}  // namespace serve
}  // namespace kgq

#endif  // KGQ_SERVE_PROTOCOL_H_
