#ifndef KGQ_OBS_TRACE_H_
#define KGQ_OBS_TRACE_H_

/// Request-scoped observability: a thread-local ObsSink that receives a
/// copy of every counter/histogram/span event the KGQ_* macros emit on
/// the installing thread, and a TraceContext that aggregates them and
/// additionally carries an EXPLAIN-shaped per-operator profile tree.
///
/// The global Registry stays the always-on aggregate; a sink is an
/// *additional* destination a request can install for its own lifetime:
///
///   obs::TraceContext ctx;
///   {
///     obs::ScopedTrace trace(&ctx);
///     ExecutePlan(...);               // operators feed ctx
///   }
///   std::shared_ptr<const obs::ProfileNode> profile = ctx.TakeProfile();
///
/// Cost model (the same two-level kill switch as the macros):
///  * compiled out (-DKGQ_OBS=OFF): CurrentSink()/CurrentTrace() are
///    constexpr nullptr, ScopedTrace is an empty struct — every
///    `if (CurrentTrace())` guard is dead code, zero overhead.
///  * disabled at runtime: the macros bail on Registry::Enabled()
///    before looking at the sink — still one relaxed load.
///  * enabled, no sink installed: one additional thread-local read and
///    a predictable branch per macro call site.
///
/// Threading: a sink is installed on exactly one thread and only that
/// thread's events reach it — pool workers spawned inside an operator
/// keep feeding the global registry only. A TraceContext is therefore
/// single-threaded by construction and unsynchronized; do not share one
/// across threads.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kgq {
namespace obs {

/// One operator of a per-request profile tree — the runtime mirror of
/// one EXPLAIN line. Deterministic fields (kind, engine, rows) depend
/// only on the plan and the epoch; `time_ns` is the only wall-clock
/// field, so gates can normalize it and byte-compare the rest.
struct ProfileNode {
  std::string kind;    ///< LogicalKindName of the operator.
  std::string engine;  ///< Physical engine ("csr", "matrix"/"nfa");
                       ///< empty when the operator has no engine choice.
  uint64_t rows_in = 0;   ///< Sum of the children's rows_out (0 for leaves).
  uint64_t rows_out = 0;  ///< Rows this operator produced.
  uint64_t time_ns = 0;   ///< Wall time, children included.
  std::vector<std::unique_ptr<ProfileNode>> children;
};

/// Receiver of per-request observability events. OnCounter/OnHistogram/
/// OnSpan mirror the three event kinds the KGQ_* macros emit (gauges are
/// process-level state, not request events, and are not forwarded).
class ObsSink {
 public:
  virtual ~ObsSink() = default;
  virtual void OnCounter(std::string_view name, uint64_t delta) = 0;
  /// `times` samples of `value` (KGQ_HISTOGRAM_RECORD sends 1).
  virtual void OnHistogram(std::string_view name, uint64_t value,
                           uint64_t times) = 0;
  virtual void OnSpan(std::string_view path, uint64_t duration_ns) = 0;
};

/// The request-scoped sink of the serving layer: aggregates counters,
/// histogram stats and span stats per name (sorted maps, so exports are
/// stable) and owns the profile tree the executor builds via
/// PushOp/PopOp. Not thread-safe — see the file comment.
class TraceContext : public ObsSink {
 public:
  struct HistogramStat {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = ~0ull;
    uint64_t max = 0;
  };
  struct SpanStat {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };

  TraceContext();

  void OnCounter(std::string_view name, uint64_t delta) override;
  void OnHistogram(std::string_view name, uint64_t value,
                   uint64_t times) override;
  void OnSpan(std::string_view path, uint64_t duration_ns) override;

  /// Appends a child under the current operator and makes it current.
  /// The returned pointer stays valid for the context's lifetime.
  ProfileNode* PushOp(std::string_view kind);
  /// Closes the current operator, restoring its parent as current.
  void PopOp();
  /// The innermost open operator, or nullptr outside any PushOp.
  ProfileNode* CurrentOp();

  /// Moves the profile tree out: the root operator when exactly one was
  /// recorded at top level (the executor's shape), otherwise a synthetic
  /// "" root holding all of them; nullptr when nothing was recorded.
  std::shared_ptr<const ProfileNode> TakeProfile();

  /// Aggregate accessors (0 / nullptr-style defaults when absent).
  uint64_t CounterValue(std::string_view name) const;
  const HistogramStat* FindHistogram(std::string_view name) const;
  const SpanStat* FindSpan(std::string_view path) const;
  const std::map<std::string, uint64_t, std::less<>>& counters() const {
    return counters_;
  }

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, HistogramStat, std::less<>> histograms_;
  std::map<std::string, SpanStat, std::less<>> spans_;
  std::unique_ptr<ProfileNode> root_;   // Synthetic; kind "".
  std::vector<ProfileNode*> stack_;     // Innermost open op last.
};

#if defined(KGQ_OBS_ENABLED)

namespace internal {
/// The installing thread's current sink/trace. Two variables so that
/// CurrentTrace() needs no downcast: ScopedTrace sets both, ScopedSink
/// (a non-trace sink) sets only the sink.
extern thread_local ObsSink* tl_sink;
extern thread_local TraceContext* tl_trace;
}  // namespace internal

/// The calling thread's installed sink (nullptr when none).
inline ObsSink* CurrentSink() { return internal::tl_sink; }
/// The calling thread's installed TraceContext (nullptr when none, or
/// when the installed sink is not a TraceContext).
inline TraceContext* CurrentTrace() { return internal::tl_trace; }

/// RAII installation of a TraceContext as the calling thread's sink and
/// trace. Nests: the previous sink is restored on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext* ctx)
      : prev_sink_(internal::tl_sink), prev_trace_(internal::tl_trace) {
    internal::tl_sink = ctx;
    internal::tl_trace = ctx;
  }
  ~ScopedTrace() {
    internal::tl_sink = prev_sink_;
    internal::tl_trace = prev_trace_;
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  ObsSink* prev_sink_;
  TraceContext* prev_trace_;
};

/// RAII installation of an arbitrary ObsSink (no profile tree — the
/// executor only builds trees into a TraceContext).
class ScopedSink {
 public:
  explicit ScopedSink(ObsSink* sink)
      : prev_sink_(internal::tl_sink), prev_trace_(internal::tl_trace) {
    internal::tl_sink = sink;
    internal::tl_trace = nullptr;
  }
  ~ScopedSink() {
    internal::tl_sink = prev_sink_;
    internal::tl_trace = prev_trace_;
  }

  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  ObsSink* prev_sink_;
  TraceContext* prev_trace_;
};

#else  // !defined(KGQ_OBS_ENABLED)

/// Compiled out: the accessors are constant nullptr, so every guarded
/// block (`if (auto* t = CurrentTrace()) ...`) folds to nothing, and the
/// scoped installers are empty.
inline constexpr ObsSink* CurrentSink() { return nullptr; }
inline constexpr TraceContext* CurrentTrace() { return nullptr; }

class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext*) {}
};

class ScopedSink {
 public:
  explicit ScopedSink(ObsSink*) {}
};

#endif  // KGQ_OBS_ENABLED

}  // namespace obs
}  // namespace kgq

#endif  // KGQ_OBS_TRACE_H_
