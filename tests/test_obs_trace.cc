// Unit tests of request-scoped observability: the QuantileReservoir
// (exact nearest-rank percentiles behind stats/metrics), the ObsSink /
// TraceContext capture path of the KGQ_* macros, and the profile-tree
// builder (PushOp/PopOp/TakeProfile).
//
// Everything here must pass in BOTH configure modes. With KGQ_OBS=OFF
// the macros expand to nothing and ScopedTrace/ScopedSink are inert
// (obs::kCompiledIn == false) — the macro-capture expectations flip to
// "the sink saw nothing" — while TraceContext and QuantileReservoir,
// used directly, keep full behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/quantile.h"
#include "obs/trace.h"

namespace kgq {
namespace {

using obs::ObsSink;
using obs::ProfileNode;
using obs::QuantileReservoir;
using obs::Registry;
using obs::TraceContext;

/// Restores the runtime switch after each test (tests toggle it).
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::SetEnabled(true); }
  void TearDown() override { Registry::SetEnabled(true); }
};

// ---------------------------------------------------------------------
// QuantileReservoir
// ---------------------------------------------------------------------

TEST_F(ObsTraceTest, PercentileOfSortedMatchesHandComputedRanks) {
  // Nearest-rank: index round(p/100 * (n-1)), clamped. Pinned against
  // hand-computed values — this formula is shared between the benches
  // and the serving layer's stats/metrics, so it must never drift.
  const std::vector<uint64_t> sorted = {10, 20, 30, 40, 50};
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 0.0), 10u);
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 50.0), 30u);
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 95.0), 50u);
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 99.0), 50u);
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 100.0), 50u);
  // p=25 over n=5: idx = round(0.25 * 4) = 1.
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted(sorted, 25.0), 20u);
  // Single element: every percentile is that element.
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted({7}, 99.0), 7u);
  // Empty: 0 by convention.
  EXPECT_EQ(QuantileReservoir::PercentileOfSorted({}, 50.0), 0u);
}

TEST_F(ObsTraceTest, ReservoirQuantileEqualsOfflineRecompute) {
  QuantileReservoir r(/*capacity=*/1024);
  EXPECT_EQ(r.Quantile(50.0), 0u);  // Empty.
  // Record in a scrambled order; quantiles sort internally.
  for (uint64_t v : {900ull, 100ull, 500ull, 300ull, 700ull}) r.Record(v);
  EXPECT_EQ(r.TotalCount(), 5u);
  EXPECT_EQ(r.WindowSize(), 5u);

  std::vector<uint64_t> sorted = r.Samples();
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(r.Quantile(p),
              QuantileReservoir::PercentileOfSorted(sorted, p))
        << "p=" << p;
  }
  EXPECT_EQ(r.Quantile(50.0), 500u);
}

TEST_F(ObsTraceTest, ReservoirQuantilesEqualPerPercentileReads) {
  // One copy and nth_element per rank must pick exactly what a full sort
  // does — ties, an unsorted percentile list and repeated p included.
  QuantileReservoir r(/*capacity=*/4096);
  const std::vector<double> ps = {99.0, 50.0, 0.0, 95.0, 100.0, 50.0, 12.5};
  EXPECT_EQ(r.Quantiles(ps), std::vector<uint64_t>(ps.size(), 0u));
  uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    r.Record((x >> 33) % 997);  // Many duplicates.
  }
  std::vector<uint64_t> sorted = r.Samples();
  std::sort(sorted.begin(), sorted.end());
  const std::vector<uint64_t> got = r.Quantiles(ps);
  ASSERT_EQ(got.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(got[i], r.Quantile(ps[i])) << "p=" << ps[i];
    EXPECT_EQ(got[i], QuantileReservoir::PercentileOfSorted(sorted, ps[i]))
        << "p=" << ps[i];
  }
}

TEST_F(ObsTraceTest, ReservoirRingOverwritesOldestBeyondCapacity) {
  QuantileReservoir r(/*capacity=*/4);
  for (uint64_t v = 1; v <= 10; ++v) r.Record(v);
  // Window holds the most recent 4 samples: {7, 8, 9, 10}.
  EXPECT_EQ(r.TotalCount(), 10u);
  EXPECT_EQ(r.WindowSize(), 4u);
  std::vector<uint64_t> window = r.Samples();
  std::sort(window.begin(), window.end());
  EXPECT_EQ(window, (std::vector<uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(r.Quantile(0.0), 7u);
  EXPECT_EQ(r.Quantile(100.0), 10u);

  r.Reset();
  EXPECT_EQ(r.TotalCount(), 0u);
  EXPECT_EQ(r.WindowSize(), 0u);
  EXPECT_EQ(r.Quantile(99.0), 0u);
}

TEST_F(ObsTraceTest, ReservoirIsThreadSafeUnderConcurrentRecords) {
  QuantileReservoir r(/*capacity=*/1 << 14);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        r.Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(r.TotalCount(), kThreads * kPerThread);
  EXPECT_EQ(r.WindowSize(), kThreads * kPerThread);
  // Every sample value landed exactly once.
  std::vector<uint64_t> window = r.Samples();
  std::sort(window.begin(), window.end());
  for (size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window[i], i);
  }
}

// ---------------------------------------------------------------------
// TraceContext aggregation (direct calls — build-mode independent)
// ---------------------------------------------------------------------

TEST_F(ObsTraceTest, TraceContextAggregatesEventsPerName) {
  TraceContext ctx;
  ctx.OnCounter("a", 2);
  ctx.OnCounter("a", 3);
  ctx.OnCounter("b", 1);
  ctx.OnHistogram("h", 10);
  ctx.OnHistogram("h", 4);
  ctx.OnSpan("s", 100);
  ctx.OnSpan("s", 50);

  EXPECT_EQ(ctx.CounterValue("a"), 5u);
  EXPECT_EQ(ctx.CounterValue("b"), 1u);
  EXPECT_EQ(ctx.CounterValue("absent"), 0u);

  const TraceContext::HistogramStat* h = ctx.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 14u);
  EXPECT_EQ(h->min, 4u);
  EXPECT_EQ(h->max, 10u);
  EXPECT_EQ(ctx.FindHistogram("absent"), nullptr);

  const TraceContext::SpanStat* s = ctx.FindSpan("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2u);
  EXPECT_EQ(s->total_ns, 150u);
  EXPECT_EQ(ctx.FindSpan("absent"), nullptr);

  // counters() iterates sorted (stable export order).
  std::vector<std::string> names;
  for (const auto& [name, value] : ctx.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// Profile tree building
// ---------------------------------------------------------------------

TEST_F(ObsTraceTest, TakeProfileReturnsNullWhenNothingRecorded) {
  TraceContext ctx;
  EXPECT_EQ(ctx.CurrentOp(), nullptr);
  EXPECT_EQ(ctx.TakeProfile(), nullptr);
}

TEST_F(ObsTraceTest, TakeProfileReturnsSingleRootDirectly) {
  TraceContext ctx;
  ProfileNode* join = ctx.PushOp("HashJoin");
  EXPECT_EQ(ctx.CurrentOp(), join);
  ProfileNode* left = ctx.PushOp("EdgeScan");
  left->engine = "csr";
  left->rows_out = 3;
  ctx.PopOp();
  ProfileNode* right = ctx.PushOp("PathAtom");
  right->engine = "matrix";
  right->rows_out = 4;
  ctx.PopOp();
  join->rows_in = 7;
  join->rows_out = 2;
  ctx.PopOp();
  EXPECT_EQ(ctx.CurrentOp(), nullptr);

  std::shared_ptr<const ProfileNode> profile = ctx.TakeProfile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->kind, "HashJoin");
  EXPECT_EQ(profile->rows_in, 7u);
  EXPECT_EQ(profile->rows_out, 2u);
  ASSERT_EQ(profile->children.size(), 2u);
  EXPECT_EQ(profile->children[0]->kind, "EdgeScan");
  EXPECT_EQ(profile->children[0]->engine, "csr");
  EXPECT_EQ(profile->children[1]->kind, "PathAtom");
  EXPECT_EQ(profile->children[1]->engine, "matrix");

  // The tree was moved out; the context is reusable and empty.
  EXPECT_EQ(ctx.TakeProfile(), nullptr);
}

TEST_F(ObsTraceTest, TakeProfileWrapsMultipleRootsInSyntheticNode) {
  TraceContext ctx;
  ctx.PushOp("NodeScan");
  ctx.PopOp();
  ctx.PushOp("EdgeScan");
  ctx.PopOp();

  std::shared_ptr<const ProfileNode> profile = ctx.TakeProfile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->kind, "");  // Synthetic root.
  ASSERT_EQ(profile->children.size(), 2u);
  EXPECT_EQ(profile->children[0]->kind, "NodeScan");
  EXPECT_EQ(profile->children[1]->kind, "EdgeScan");
}

TEST_F(ObsTraceTest, ChildPointersSurviveSiblingAppends) {
  // children is a vector of unique_ptr, so a PushOp'd node's address
  // must stay valid while later siblings are appended.
  TraceContext ctx;
  ctx.PushOp("HashJoin");
  std::vector<ProfileNode*> kids;
  for (int i = 0; i < 64; ++i) {
    ProfileNode* kid = ctx.PushOp("EdgeScan");
    kid->rows_out = static_cast<uint64_t>(i);
    kids.push_back(kid);
    ctx.PopOp();
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(kids[i]->rows_out, static_cast<uint64_t>(i));
  }
  ctx.PopOp();
}

// ---------------------------------------------------------------------
// Macro capture through ScopedTrace / ScopedSink
// ---------------------------------------------------------------------

TEST_F(ObsTraceTest, ScopedTraceCapturesMacroEvents) {
  TraceContext ctx;
  {
    obs::ScopedTrace trace(&ctx);
    if (obs::kCompiledIn) {
      EXPECT_EQ(obs::CurrentSink(), &ctx);
      EXPECT_EQ(obs::CurrentTrace(), &ctx);
    }
    KGQ_COUNTER_ADD("trace.test.counter", 4);
    KGQ_COUNTER_INC("trace.test.counter");
    KGQ_HISTOGRAM_RECORD("trace.test.histogram", 42);
    { KGQ_SPAN("trace.test.span"); }
    // Gauges are process state, not request events: never forwarded.
    KGQ_GAUGE_SET("trace.test.gauge", 7);
  }
  EXPECT_EQ(obs::CurrentSink(), nullptr);
  EXPECT_EQ(obs::CurrentTrace(), nullptr);

  if (obs::kCompiledIn) {
    EXPECT_EQ(ctx.CounterValue("trace.test.counter"), 5u);
    const TraceContext::HistogramStat* h =
        ctx.FindHistogram("trace.test.histogram");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
    EXPECT_EQ(h->sum, 42u);
    const TraceContext::SpanStat* s = ctx.FindSpan("trace.test.span");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 1u);
  } else {
    EXPECT_EQ(ctx.CounterValue("trace.test.counter"), 0u);
    EXPECT_EQ(ctx.FindHistogram("trace.test.histogram"), nullptr);
    EXPECT_EQ(ctx.FindSpan("trace.test.span"), nullptr);
  }
  EXPECT_EQ(ctx.CounterValue("trace.test.gauge"), 0u);
}

TEST_F(ObsTraceTest, MacrosStillFeedGlobalRegistryUnderScopedTrace) {
  Registry::Get().Reset();
  TraceContext ctx;
  {
    obs::ScopedTrace trace(&ctx);
    KGQ_COUNTER_ADD("trace.test.both", 9);
  }
  if (obs::kCompiledIn) {
    // The sink is an additional destination, never a replacement.
    EXPECT_EQ(Registry::Get().CounterValue("trace.test.both"), 9u);
    EXPECT_EQ(ctx.CounterValue("trace.test.both"), 9u);
  } else {
    EXPECT_EQ(Registry::Get().CounterValue("trace.test.both"), 0u);
  }
}

TEST_F(ObsTraceTest, RuntimeDisableStopsSinkCapture) {
  TraceContext ctx;
  {
    obs::ScopedTrace trace(&ctx);
    Registry::SetEnabled(false);
    KGQ_COUNTER_INC("trace.test.disabled");
    KGQ_HISTOGRAM_RECORD("trace.test.disabled.h", 1);
    Registry::SetEnabled(true);
    KGQ_COUNTER_INC("trace.test.reenabled");
  }
  EXPECT_EQ(ctx.CounterValue("trace.test.disabled"), 0u);
  EXPECT_EQ(ctx.FindHistogram("trace.test.disabled.h"), nullptr);
  EXPECT_EQ(ctx.CounterValue("trace.test.reenabled"),
            obs::kCompiledIn ? 1u : 0u);
}

/// Records every event name it sees — the "arbitrary sink" used to
/// check ScopedSink routing without a TraceContext.
class RecordingSink : public ObsSink {
 public:
  void OnCounter(std::string_view name, uint64_t delta) override {
    counters.emplace_back(std::string(name), delta);
  }
  void OnHistogram(std::string_view name, uint64_t value) override {
    histograms.emplace_back(std::string(name), value);
  }
  void OnSpan(std::string_view path, uint64_t) override {
    spans.emplace_back(path);
  }

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> histograms;
  std::vector<std::string> spans;
};

TEST_F(ObsTraceTest, ScopedSinkInstallsSinkButNoTrace) {
  RecordingSink sink;
  {
    obs::ScopedSink scoped(&sink);
    if (obs::kCompiledIn) {
      EXPECT_EQ(obs::CurrentSink(), &sink);
    }
    // Never a TraceContext here: the executor must not try to build a
    // profile tree into a plain sink.
    EXPECT_EQ(obs::CurrentTrace(), nullptr);
    KGQ_COUNTER_ADD("sink.test.counter", 3);
  }
  if (obs::kCompiledIn) {
    ASSERT_EQ(sink.counters.size(), 1u);
    EXPECT_EQ(sink.counters[0].first, "sink.test.counter");
    EXPECT_EQ(sink.counters[0].second, 3u);
  } else {
    EXPECT_TRUE(sink.counters.empty());
  }
}

TEST_F(ObsTraceTest, ScopedInstallersNestAndRestore) {
  TraceContext outer;
  TraceContext inner;
  {
    obs::ScopedTrace a(&outer);
    {
      obs::ScopedTrace b(&inner);
      KGQ_COUNTER_INC("nest.test.inner");
    }
    KGQ_COUNTER_INC("nest.test.outer");
  }
  if (obs::kCompiledIn) {
    EXPECT_EQ(inner.CounterValue("nest.test.inner"), 1u);
    EXPECT_EQ(inner.CounterValue("nest.test.outer"), 0u);
    EXPECT_EQ(outer.CounterValue("nest.test.outer"), 1u);
    EXPECT_EQ(outer.CounterValue("nest.test.inner"), 0u);
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST_F(ObsTraceTest, SinkIsThreadLocalNotProcessWide) {
  // A sink installed on this thread must not see events other threads
  // emit — that isolation is what makes TraceContext safely
  // unsynchronized.
  TraceContext ctx;
  obs::ScopedTrace trace(&ctx);
  std::thread other([] {
    EXPECT_EQ(obs::CurrentSink(), nullptr);
    EXPECT_EQ(obs::CurrentTrace(), nullptr);
    KGQ_COUNTER_ADD("threadlocal.test.other", 100);
  });
  other.join();
  KGQ_COUNTER_INC("threadlocal.test.mine");
  EXPECT_EQ(ctx.CounterValue("threadlocal.test.other"), 0u);
  EXPECT_EQ(ctx.CounterValue("threadlocal.test.mine"),
            obs::kCompiledIn ? 1u : 0u);
}

}  // namespace
}  // namespace kgq
