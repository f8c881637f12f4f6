// Unit tests of the kgq::obs substrate: exactness of concurrent
// counter/histogram updates driven through the real ThreadPool, the
// pinned log-bucket boundaries, span nesting, the runtime kill switch,
// and the JSON export shape.
//
// Everything here must pass in BOTH configure modes. With KGQ_OBS=OFF
// the macros expand to nothing (obs::kCompiledIn == false) — the
// macro-path expectations flip to "nothing was recorded" — while the
// registry classes, used directly, keep full behavior.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"

namespace kgq {
namespace {

using obs::Histogram;
using obs::Registry;

/// Restores the runtime switch after each test (tests toggle it).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::SetEnabled(true); }
  void TearDown() override { Registry::SetEnabled(true); }
};

TEST_F(ObsTest, HistogramBucketBoundariesArePinned) {
  // The boundary contract: bucket 0 = {0}, bucket i >= 1 = [2^(i-1),
  // 2^i - 1]. These are part of the JSON schema consumed by bench
  // tooling and must never drift.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  for (size_t i = 1; i < 64; ++i) {
    uint64_t lo = 1ull << (i - 1);
    uint64_t hi = (i == 64) ? ~0ull : (1ull << i) - 1;
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower edge of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(hi), i) << "upper edge of bucket " << i;
    EXPECT_EQ(Histogram::BucketUpperBound(i), hi);
  }
  EXPECT_EQ(Histogram::BucketIndex(~0ull), 64u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~0ull);
}

TEST_F(ObsTest, HistogramStatsTrackSamples) {
  obs::Histogram h;
  for (uint64_t v : {0ull, 1ull, 5ull, 5ull, 1000ull}) h.Record(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1011u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1011.0 / 5.0);
  EXPECT_EQ(h.BucketCount(Histogram::BucketIndex(0)), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketIndex(5)), 2u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketIndex(1000)), 1u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST_F(ObsTest, ConcurrentCounterIncrementsFromThreadPoolAreExact) {
  // 64 chunks of 1000 increments race across the shared pool; the
  // counter must come out exact — counters are the ground truth the
  // differential suites compare against bench numbers.
  obs::Counter* c = Registry::Get().GetCounter("test.obs.concurrent_counter");
  c->Reset();
  obs::Histogram* h =
      Registry::Get().GetHistogram("test.obs.concurrent_histogram");
  h->Reset();
  constexpr size_t kChunks = 64;
  constexpr size_t kPerChunk = 1000;
  ParallelFor(
      0, kChunks, 1,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (size_t j = 0; j < kPerChunk; ++j) {
            c->Increment();
            h->Record(j);
          }
        }
      },
      ParallelOptions{8});
  EXPECT_EQ(c->Value(), kChunks * kPerChunk);
  EXPECT_EQ(h->Count(), kChunks * kPerChunk);
  // Sum of 0..999 per chunk.
  EXPECT_EQ(h->Sum(), kChunks * (kPerChunk * (kPerChunk - 1) / 2));
  EXPECT_EQ(h->Min(), 0u);
  EXPECT_EQ(h->Max(), kPerChunk - 1);
}

TEST_F(ObsTest, MacrosRecordIffCompiledInAndEnabled) {
  Registry::Get().GetCounter("test.obs.macro_counter")->Reset();
  KGQ_COUNTER_ADD("test.obs.macro_counter", 3);
  KGQ_COUNTER_INC("test.obs.macro_counter");
  uint64_t expected = obs::kCompiledIn ? 4u : 0u;
  EXPECT_EQ(Registry::Get().CounterValue("test.obs.macro_counter"), expected);

  KGQ_GAUGE_SET("test.obs.macro_gauge", 42);
  EXPECT_EQ(Registry::Get().GaugeValue("test.obs.macro_gauge"),
            obs::kCompiledIn ? 42 : 0);

  KGQ_HISTOGRAM_RECORD("test.obs.macro_hist", 7);
  const obs::Histogram* h = Registry::Get().FindHistogram("test.obs.macro_hist");
  if (obs::kCompiledIn) {
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->Count(), 1u);
  }
}

TEST_F(ObsTest, RuntimeDisabledCollectsNothing) {
  obs::Counter* c = Registry::Get().GetCounter("test.obs.disabled_counter");
  c->Reset();
  Registry::SetEnabled(false);

  KGQ_COUNTER_INC("test.obs.disabled_counter");
  { obs::Span span("test_disabled_span"); }
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(Registry::Get().SpanCount("test_disabled_span"), 0u);

  Registry::SetEnabled(true);
  KGQ_COUNTER_INC("test.obs.disabled_counter");
  EXPECT_EQ(c->Value(), obs::kCompiledIn ? 1u : 0u);
}

TEST_F(ObsTest, SpansNestIntoSlashJoinedPaths) {
  // Direct Span objects work in both configure modes (only the macros
  // are compiled out).
  uint64_t outer_before = Registry::Get().SpanCount("test_outer");
  uint64_t inner_before = Registry::Get().SpanCount("test_outer/test_inner");
  {
    obs::Span outer("test_outer");
    {
      obs::Span inner("test_inner");
    }
    {
      obs::Span inner("test_inner");
    }
  }
  EXPECT_EQ(Registry::Get().SpanCount("test_outer"), outer_before + 1);
  EXPECT_EQ(Registry::Get().SpanCount("test_outer/test_inner"),
            inner_before + 2);
  // Sibling root span: the stack unwound fully.
  {
    obs::Span sibling("test_sibling");
  }
  EXPECT_EQ(Registry::Get().SpanCount("test_sibling"), 1u);
}

TEST_F(ObsTest, SpanDurationsAccumulate) {
  {
    obs::Span s("test_duration_span");
    // Spin a little so the duration is visibly nonzero.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_EQ(Registry::Get().SpanCount("test_duration_span"), 1u);
}

TEST_F(ObsTest, JsonWriterEmitsValidStructure) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("str");
  w.String("a\"b\\c\nd");
  w.Key("int");
  w.Int(-5);
  w.Key("uint");
  w.UInt(18446744073709551615ull);
  w.Key("pi");
  w.Double(0.25);
  w.Key("flag");
  w.Bool(true);
  w.Key("arr");
  w.BeginArray();
  w.UInt(1);
  w.UInt(2);
  w.BeginObject();
  w.Key("nested");
  w.Null();
  w.EndObject();
  w.EndArray();
  w.Key("empty_obj");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  std::string s = out.str();
  EXPECT_NE(s.find("\"str\": \"a\\\"b\\\\c\\nd\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"int\": -5"), std::string::npos);
  EXPECT_NE(s.find("\"uint\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(s.find("\"pi\": 0.25"), std::string::npos);
  EXPECT_NE(s.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(s.find("\"empty_obj\": {}"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char ch = s[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// JsonWriter and the serve protocol's renderers share one string
// escaper: every control byte, the quote, the backslash and multi-byte
// UTF-8 come out as the same bytes from both, and parse back to the
// input. \b and \f keep their short forms (the wire bytes of the serve
// protocol).
TEST_F(ObsTest, JsonStringEscapingIsSharedAndRoundTrips) {
  std::vector<std::string> inputs;
  for (int c = 0; c < 0x20; ++c) inputs.emplace_back(1, static_cast<char>(c));
  inputs.emplace_back("\"");
  inputs.emplace_back("\\");
  inputs.emplace_back("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
  for (const std::string& in : inputs) {
    std::ostringstream written;
    obs::JsonWriter w(written, /*compact=*/true);
    w.String(in);
    std::string appended;
    serve::AppendJsonString(&appended, in);
    EXPECT_EQ(written.str(), appended)
        << "byte 0x" << std::hex
        << static_cast<unsigned>(static_cast<unsigned char>(in[0]));
    Result<serve::JsonValue> parsed = serve::ParseJson(appended);
    ASSERT_TRUE(parsed.ok()) << appended;
    ASSERT_EQ(parsed->kind, serve::JsonValue::Kind::kString) << appended;
    EXPECT_EQ(parsed->string, in) << appended;
  }
  std::string short_forms;
  serve::AppendJsonString(&short_forms, "\b\f\x01");
  EXPECT_EQ(short_forms, "\"\\b\\f\\u0001\"");
}

TEST_F(ObsTest, RegistryExportContainsRecordedMetrics) {
  Registry::Get().GetCounter("test.obs.export_counter")->Add(11);
  Registry::Get().GetGauge("test.obs.export_gauge")->Set(-3);
  Registry::Get().GetHistogram("test.obs.export_hist")->Record(100);
  {
    obs::Span s("test_export_span");
  }
  std::ostringstream out;
  Registry::Get().WriteReport(out);
  std::string s = out.str();
  EXPECT_NE(s.find("\"obs\""), std::string::npos);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"spans\""), std::string::npos);
  EXPECT_NE(s.find("\"test.obs.export_counter\": 11"), std::string::npos) << s;
  EXPECT_NE(s.find("\"test.obs.export_gauge\": -3"), std::string::npos);
  EXPECT_NE(s.find("\"test.obs.export_hist\""), std::string::npos);
  EXPECT_NE(s.find("\"test_export_span\""), std::string::npos);
  // The 100-sample lands in the [64, 127] bucket.
  EXPECT_NE(s.find("\"le\": 127"), std::string::npos);
}

TEST_F(ObsTest, DumpToFileWritesReport) {
  std::string path =
      ::testing::TempDir() + "/kgq_test_obs_dump.json";
  Registry::Get().GetCounter("test.obs.dump_counter")->Add(5);
  ASSERT_TRUE(Registry::Get().DumpToFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"test.obs.dump_counter\": 5"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(Registry::Get().DumpToFile("/nonexistent-dir/x/y.json"));
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsObjects) {
  // Call sites cache metric pointers in function-local statics; Reset
  // must keep those pointers valid (zero, never deallocate).
  obs::Counter* c = Registry::Get().GetCounter("test.obs.reset_counter");
  obs::Histogram* h = Registry::Get().GetHistogram("test.obs.reset_hist");
  c->Add(7);
  h->Record(9);
  Registry::Get().Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(Registry::Get().GetCounter("test.obs.reset_counter"), c);
  EXPECT_EQ(Registry::Get().GetHistogram("test.obs.reset_hist"), h);
  c->Add(2);
  EXPECT_EQ(Registry::Get().CounterValue("test.obs.reset_counter"), 2u);
}

TEST_F(ObsTest, EnabledCheckIsTheOnlyCostWhenOff) {
  // Behavioral contract of the kill switch (the perf claim itself is a
  // bench concern): toggling at runtime flips collection atomically.
  obs::Counter* c = Registry::Get().GetCounter("test.obs.toggle_counter");
  c->Reset();
  for (int round = 0; round < 4; ++round) {
    Registry::SetEnabled(round % 2 == 0);
    KGQ_COUNTER_INC("test.obs.toggle_counter");
  }
  // Rounds 0 and 2 were enabled.
  EXPECT_EQ(c->Value(), obs::kCompiledIn ? 2u : 0u);
}

}  // namespace
}  // namespace kgq
