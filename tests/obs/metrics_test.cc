#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace jfeed::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().ResetForTest();
    Registry::Global().set_enabled(true);
  }
  void TearDown() override {
    Registry::Global().set_enabled(false);
    Registry::Global().ResetForTest();
  }
};

TEST_F(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter* c = Registry::Global().GetCounter("t_counter_basic", "help");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42);
}

TEST_F(MetricsTest, CounterIsNoOpWhileRegistryDisabled) {
  Counter* c = Registry::Global().GetCounter("t_counter_gated", "help");
  Registry::Global().set_enabled(false);
  c->Increment(100);
  EXPECT_EQ(c->Value(), 0);
  Registry::Global().set_enabled(true);
  c->Increment(7);
  EXPECT_EQ(c->Value(), 7);
}

TEST_F(MetricsTest, GetCounterIsIdempotentPerNameAndLabels) {
  Counter* a = Registry::Global().GetCounter("t_counter_idem", "help");
  Counter* b = Registry::Global().GetCounter("t_counter_idem", "help");
  EXPECT_EQ(a, b);
  Counter* labeled = Registry::Global().GetCounter("t_counter_idem", "help",
                                                   {{"stage", "parse"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(labeled, Registry::Global().GetCounter("t_counter_idem", "help",
                                                   {{"stage", "parse"}}));
}

TEST_F(MetricsTest, CounterAggregatesAcrossThreadsAndSurvivesThreadExit) {
  Counter* c = Registry::Global().GetCounter("t_counter_threads", "help");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([c] {
        for (int i = 0; i < kPerThread; ++i) c->Increment();
      });
    }
    for (auto& thread : threads) thread.join();
  }
  // All worker threads have exited: their shards folded into the retired
  // sum, and nothing was lost on the way.
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

TEST_F(MetricsTest, GaugeSetAddValue) {
  Gauge* g = Registry::Global().GetGauge("t_gauge", "help");
  EXPECT_EQ(g->Value(), 0);
  g->Set(17);
  EXPECT_EQ(g->Value(), 17);
  g->Add(3);
  EXPECT_EQ(g->Value(), 20);
  g->Add(-25);
  EXPECT_EQ(g->Value(), -5);
}

TEST_F(MetricsTest, HistogramBucketIndexIsLog2Scale) {
  // Bucket i counts samples <= 2^i; bucket 0 also absorbs <= 1 (including
  // zero and negatives, clamped).
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11);
  // Everything beyond the largest finite bound lands in the +Inf bucket.
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kBucketCount - 1);
}

TEST_F(MetricsTest, HistogramBucketBoundsAreInclusivePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketBound(0), 1);
  EXPECT_EQ(Histogram::BucketBound(1), 2);
  EXPECT_EQ(Histogram::BucketBound(10), 1024);
  EXPECT_EQ(Histogram::BucketBound(Histogram::kBucketCount - 1), INT64_MAX);
  // Bound/index agree: every finite bound is counted by its own bucket.
  for (int i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketBound(i)), i) << i;
  }
}

TEST_F(MetricsTest, HistogramCountSumAndCumulativeCounts) {
  Histogram* h = Registry::Global().GetHistogram("t_histo", "help");
  h->Record(1);     // bucket 0
  h->Record(2);     // bucket 1
  h->Record(100);   // bucket 7 (<= 128)
  h->Record(100);   // bucket 7
  EXPECT_EQ(h->Count(), 4);
  EXPECT_EQ(h->Sum(), 203);
  EXPECT_EQ(h->CumulativeCount(0), 1);
  EXPECT_EQ(h->CumulativeCount(1), 2);
  EXPECT_EQ(h->CumulativeCount(6), 2);   // <= 64: the two small samples
  EXPECT_EQ(h->CumulativeCount(7), 4);   // <= 128: everything
  EXPECT_EQ(h->CumulativeCount(Histogram::kBucketCount - 1), 4);
}

TEST_F(MetricsTest, HistogramAggregatesAcrossThreads) {
  Histogram* h = Registry::Global().GetHistogram("t_histo_threads", "help");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1'000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([h] {
        for (int i = 0; i < kPerThread; ++i) h->Record(64);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(h->Count(), kThreads * kPerThread);
  EXPECT_EQ(h->Sum(), int64_t{kThreads} * kPerThread * 64);
  EXPECT_EQ(h->CumulativeCount(6), kThreads * kPerThread);
  EXPECT_EQ(h->CumulativeCount(5), 0);
}

TEST_F(MetricsTest, RenderEmitsPrometheusTextFormat) {
  Registry::Global().GetCounter("t_render_requests_total", "Requests seen")
      ->Increment(3);
  Registry::Global().GetGauge("t_render_depth", "Queue depth")->Set(5);
  Histogram* h = Registry::Global().GetHistogram("t_render_us", "Latency");
  h->Record(3);

  std::string text = Registry::Global().Render();
  EXPECT_NE(text.find("# HELP t_render_requests_total Requests seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE t_render_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_render_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_render_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_render_depth 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_render_us histogram\n"), std::string::npos);
  // The sample 3 lands in the <= 4 bucket; cumulative counts follow.
  EXPECT_NE(text.find("t_render_us_bucket{le=\"2\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("t_render_us_bucket{le=\"4\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("t_render_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_render_us_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_render_us_count 1\n"), std::string::npos);
}

TEST_F(MetricsTest, RenderIncludesLabelsAndEscapesValues) {
  Registry::Global()
      .GetCounter("t_labeled_total", "help", {{"stage", "parse"}})
      ->Increment(2);
  Registry::Global()
      .GetCounter("t_labeled_total", "help", {{"stage", "with\"quote"}})
      ->Increment();
  std::string text = Registry::Global().Render();
  EXPECT_NE(text.find("t_labeled_total{stage=\"parse\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_labeled_total{stage=\"with\\\"quote\"} 1\n"),
            std::string::npos);
}

TEST_F(MetricsTest, RenderEscapesBackslashAndNewlineInLabelValues) {
  // The Prometheus text format requires \\, \", and \n escaped inside label
  // values; a raw newline would end the sample line mid-value and corrupt
  // the whole exposition.
  Registry::Global()
      .GetCounter("t_escape_total", "help", {{"path", "a\\b"}})
      ->Increment();
  Registry::Global()
      .GetCounter("t_escape_total", "help", {{"path", "line1\nline2"}})
      ->Increment(2);
  std::string text = Registry::Global().Render();
  EXPECT_NE(text.find("t_escape_total{path=\"a\\\\b\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_escape_total{path=\"line1\\nline2\"} 2\n"),
            std::string::npos);
}

TEST_F(MetricsTest, RenderEscapesHelpText) {
  // HELP text has its own (smaller) escape set: backslash and newline.
  // Quotes are legal raw in HELP, so they must pass through untouched.
  Registry::Global().GetCounter("t_help_esc_total",
                                "first\nsecond \\ \"quoted\"");
  std::string text = Registry::Global().Render();
  EXPECT_NE(text.find("# HELP t_help_esc_total "
                      "first\\nsecond \\\\ \"quoted\"\n"),
            std::string::npos);
  // No raw newline may survive inside the HELP line.
  EXPECT_EQ(text.find("# HELP t_help_esc_total first\nsecond"),
            std::string::npos);
}

TEST_F(MetricsTest, ResetForTestZeroesButKeepsPointersValid) {
  Counter* c = Registry::Global().GetCounter("t_reset_total", "help");
  Histogram* h = Registry::Global().GetHistogram("t_reset_us", "help");
  Gauge* g = Registry::Global().GetGauge("t_reset_depth", "help");
  c->Increment(9);
  h->Record(9);
  g->Set(9);
  Registry::Global().ResetForTest();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(h->Sum(), 0);
  EXPECT_EQ(g->Value(), 0);
  // The registry must return the same instruments and they must still work.
  EXPECT_EQ(Registry::Global().GetCounter("t_reset_total", "help"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

}  // namespace
}  // namespace jfeed::obs
