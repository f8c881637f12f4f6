#ifndef KGQ_OBS_OBS_H_
#define KGQ_OBS_OBS_H_

/// kgq::obs — the observability front-end the kernels are wired
/// through: counters, gauges, log-bucketed histograms and RAII trace
/// spans behind macros with a two-level kill switch.
///
///  * Compile time: configuring with `-DKGQ_OBS=OFF` removes the
///    KGQ_OBS_ENABLED definition and every macro below expands to
///    nothing — arguments are not evaluated, no symbol is referenced,
///    the instrumented kernels are token-for-token the bare kernels.
///  * Run time (compiled in): collection is on by default; when
///    disabled via Registry::SetEnabled(false) or KGQ_OBS=0 in the
///    environment, a macro call site costs exactly one relaxed atomic
///    load and a predictable branch.
///
/// When enabled, each call site resolves its metric once (function-
/// local static pointer; metrics are never removed from the registry)
/// and then pays only the relaxed atomic updates of the metric itself.
///
/// The guarantee the differential tests pin down: instrumentation is
/// passive. Kernel outputs are bit-identical with obs compiled out,
/// disabled, or fully collecting.
///
/// Naming convention: "subsystem.component.metric" (dots, not slashes —
/// '/' is the span-nesting separator), units spelled in the name
/// suffix: `_ns` nanoseconds, `_ms` milliseconds; unsuffixed counts.
/// README "Observability" lists every name exported by the library.

#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"

#if defined(KGQ_OBS_ENABLED)

/// True when runtime collection is active. Use to guard a block of
/// instrumentation-only work (computing a value worth recording); the
/// whole expression is constant-false — and the guarded block dead
/// code — when compiled out.
#define KGQ_OBS_ON() (::kgq::obs::Registry::Enabled())

/// counter(name) += delta — in the global registry and, when the
/// calling thread has a request-scoped sink installed (obs/trace.h), in
/// that sink too.
#define KGQ_COUNTER_ADD(name, delta)                                     \
  do {                                                                   \
    if (::kgq::obs::Registry::Enabled()) {                               \
      static ::kgq::obs::Counter* kgq_obs_counter_ =                     \
          ::kgq::obs::Registry::Get().GetCounter(name);                  \
      const uint64_t kgq_obs_delta_ = static_cast<uint64_t>(delta);      \
      kgq_obs_counter_->Add(kgq_obs_delta_);                             \
      if (::kgq::obs::ObsSink* kgq_obs_sink_ = ::kgq::obs::CurrentSink()) \
        kgq_obs_sink_->OnCounter(name, kgq_obs_delta_);                  \
    }                                                                    \
  } while (0)

/// counter(name) += 1.
#define KGQ_COUNTER_INC(name) KGQ_COUNTER_ADD(name, 1)

/// gauge(name) = value (last observation wins).
#define KGQ_GAUGE_SET(name, value)                                       \
  do {                                                                   \
    if (::kgq::obs::Registry::Enabled()) {                               \
      static ::kgq::obs::Gauge* kgq_obs_gauge_ =                         \
          ::kgq::obs::Registry::Get().GetGauge(name);                    \
      kgq_obs_gauge_->Set(static_cast<int64_t>(value));                  \
    }                                                                    \
  } while (0)

/// histogram(name) <- sample (non-negative integer); mirrored into the
/// calling thread's sink when one is installed.
#define KGQ_HISTOGRAM_RECORD(name, value) \
  KGQ_HISTOGRAM_RECORD_TIMES(name, value, 1)

/// histogram(name) <- `times` samples of `value`, for a caller that
/// tallied repeated values locally (one update instead of `times`).
#define KGQ_HISTOGRAM_RECORD_TIMES(name, value, times)                   \
  do {                                                                   \
    if (::kgq::obs::Registry::Enabled()) {                               \
      static ::kgq::obs::Histogram* kgq_obs_histogram_ =                 \
          ::kgq::obs::Registry::Get().GetHistogram(name);                \
      const uint64_t kgq_obs_value_ = static_cast<uint64_t>(value);      \
      const uint64_t kgq_obs_times_ = static_cast<uint64_t>(times);      \
      kgq_obs_histogram_->Record(kgq_obs_value_, kgq_obs_times_);        \
      if (::kgq::obs::ObsSink* kgq_obs_sink_ = ::kgq::obs::CurrentSink()) \
        kgq_obs_sink_->OnHistogram(name, kgq_obs_value_, kgq_obs_times_); \
    }                                                                    \
  } while (0)

#define KGQ_OBS_CONCAT_INNER_(a, b) a##b
#define KGQ_OBS_CONCAT_(a, b) KGQ_OBS_CONCAT_INNER_(a, b)

/// Opens an RAII trace span covering the rest of the enclosing scope.
/// Spans nest across call boundaries per thread; `name` must be a
/// string literal without '/'.
#define KGQ_SPAN(name) \
  ::kgq::obs::Span KGQ_OBS_CONCAT_(kgq_obs_span_, __LINE__)(name)

#else  // !defined(KGQ_OBS_ENABLED)

#define KGQ_OBS_ON() (false)
#define KGQ_COUNTER_ADD(name, delta) ((void)0)
#define KGQ_COUNTER_INC(name) ((void)0)
#define KGQ_GAUGE_SET(name, value) ((void)0)
#define KGQ_HISTOGRAM_RECORD(name, value) ((void)0)
#define KGQ_HISTOGRAM_RECORD_TIMES(name, value, times) ((void)0)
#define KGQ_SPAN(name) ((void)0)

#endif  // KGQ_OBS_ENABLED

#endif  // KGQ_OBS_OBS_H_
