#include "obs/slo.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

// SLO / error-budget tests. All time flows through explicit now_s values
// (SloTracker takes the clock as a parameter for exactly this reason), so
// window roll-over and burn-rate math are exercised without sleeping.

namespace jfeed::obs {
namespace {

/// A policy with small, hand-checkable numbers: 10% error budget
/// (target 900000 ppm), 100 ms latency objective, 60 s budget window,
/// 10 s fast / 30 s slow burn windows, alerts armed after 4 events.
SloPolicy TestPolicy() {
  SloPolicy p;
  p.latency_threshold_us = 100'000;
  p.availability_target_ppm = 900'000;
  p.window_s = 60;
  p.fast_window_s = 10;
  p.slow_window_s = 30;
  p.fast_burn_threshold_milli = 14'000;
  p.slow_burn_threshold_milli = 6'000;
  p.min_events = 4;
  return p;
}

class SloTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().ResetForTest();
    Registry::Global().set_enabled(true);
    tracker_.Configure(TestPolicy());
  }
  void TearDown() override {
    tracker_.Disable();
    Registry::Global().set_enabled(false);
    Registry::Global().ResetForTest();
  }

  SloTracker tracker_;
};

TEST_F(SloTrackerTest, DisabledTrackerRecordsNothing) {
  SloTracker off;
  EXPECT_FALSE(off.enabled());
  off.RecordGrade("assignment1", 50'000, 100);
  off.RecordShed("assignment1", 100);
  EXPECT_TRUE(off.Snapshot(100).empty());
  EXPECT_FALSE(off.FastBurnAny(100));
}

TEST_F(SloTrackerTest, ConfigureDropsPriorState) {
  tracker_.RecordGrade("assignment1", 50'000, 100);
  ASSERT_EQ(tracker_.Snapshot(100).size(), 1u);
  tracker_.Configure(TestPolicy());
  EXPECT_TRUE(tracker_.Snapshot(100).empty());
}

TEST_F(SloTrackerTest, LatencyClassifiesGoodAndBad) {
  // At the threshold is good; over it burns budget.
  tracker_.RecordGrade("assignment1", 100'000, 100);
  tracker_.RecordGrade("assignment1", 100'001, 100);
  tracker_.RecordGrade("assignment1", 1, 100);

  auto snaps = tracker_.Snapshot(100);
  ASSERT_EQ(snaps.size(), 1u);
  const AssignmentSlo& s = snaps[0];
  EXPECT_EQ(s.assignment, "assignment1");
  EXPECT_EQ(s.events_total, 3);
  EXPECT_EQ(s.good_total, 2);
  EXPECT_EQ(s.bad_total, 1);
  EXPECT_EQ(s.shed_total, 0);
  EXPECT_EQ(s.window_events, 3);
  EXPECT_EQ(s.window_bad, 1);
}

TEST_F(SloTrackerTest, ShedsAreAlwaysBadAndCountedSeparately) {
  tracker_.RecordGrade("assignment1", 1, 100);
  tracker_.RecordShed("assignment1", 100);
  tracker_.RecordShed("assignment1", 100);

  auto snaps = tracker_.Snapshot(100);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].bad_total, 2);
  EXPECT_EQ(snaps[0].shed_total, 2);
  EXPECT_EQ(snaps[0].good_total, 1);
}

TEST_F(SloTrackerTest, BudgetArithmeticMatchesHandComputation) {
  // 20 events, 1 bad, 10% budget: consumed_ppm = 1e6 * (1/20) / 0.10 =
  // 500000 — exactly half the budget gone.
  for (int i = 0; i < 19; ++i) tracker_.RecordGrade("a", 1, 100);
  tracker_.RecordGrade("a", 200'000, 100);

  auto snaps = tracker_.Snapshot(100);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].window_events, 20);
  EXPECT_EQ(snaps[0].window_bad, 1);
  EXPECT_EQ(snaps[0].budget_consumed_ppm, 500'000);
  EXPECT_EQ(snaps[0].budget_remaining_ppm, 500'000);
  // Burn rate over both windows: (1/20) / 0.10 = 0.5x = 500 milli.
  EXPECT_EQ(snaps[0].burn_rate_fast_milli, 500);
  EXPECT_EQ(snaps[0].burn_rate_slow_milli, 500);
  EXPECT_FALSE(snaps[0].fast_burn);
}

TEST_F(SloTrackerTest, BlownBudgetClampsRemainingAtZero) {
  // All-bad traffic: consumed = 1e6 / 0.10 = 10,000,000 ppm — ten times
  // the budget. Remaining clamps at zero; consumed reports the overshoot.
  for (int i = 0; i < 8; ++i) tracker_.RecordShed("a", 100);
  auto snaps = tracker_.Snapshot(100);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].budget_consumed_ppm, 10'000'000);
  EXPECT_EQ(snaps[0].budget_remaining_ppm, 0);
}

TEST_F(SloTrackerTest, FastBurnRequiresMinEvents) {
  // Three sheds: 100% bad, but below min_events=4 — no alert.
  for (int i = 0; i < 3; ++i) tracker_.RecordShed("a", 100);
  EXPECT_FALSE(tracker_.FastBurnAny(100));
  auto snaps = tracker_.Snapshot(100);
  EXPECT_FALSE(snaps[0].fast_burn);
  // min_events met, but all-bad traffic on a 10% budget burns at
  // 1.0/0.10 = 10x = 10000 milli — still under the 14000 milli fast
  // threshold, so the alert stays quiet on burn rate, not on volume.
  tracker_.RecordShed("a", 100);
  EXPECT_FALSE(tracker_.FastBurnAny(100));
}

TEST_F(SloTrackerTest, FastBurnFiresOverThresholdAndClearsAfterWindow) {
  // Loosen the budget so all-bad traffic burns >14x: target 950000 ppm
  // gives a 5% budget; all-bad burn = 1/0.05 = 20x = 20000 milli.
  SloPolicy p = TestPolicy();
  p.availability_target_ppm = 950'000;
  tracker_.Configure(p);

  for (int i = 0; i < 5; ++i) tracker_.RecordShed("a", 100);
  EXPECT_TRUE(tracker_.FastBurnAny(100));
  auto snaps = tracker_.Snapshot(100);
  EXPECT_EQ(snaps[0].burn_rate_fast_milli, 20'000);
  EXPECT_TRUE(snaps[0].fast_burn);
  EXPECT_TRUE(snaps[0].slow_burn);

  // Advance past the fast window (10 s): the alert clears on its own.
  EXPECT_FALSE(tracker_.FastBurnAny(100 + 11));
  // ...and past the slow window too.
  auto later = tracker_.Snapshot(100 + 31);
  EXPECT_FALSE(later[0].fast_burn);
  EXPECT_FALSE(later[0].slow_burn);
  // Cumulative totals survive the roll-over even as windows empty.
  EXPECT_EQ(later[0].shed_total, 5);
}

TEST_F(SloTrackerTest, WindowRollOverExpiresOldEvents) {
  tracker_.RecordShed("a", 100);
  tracker_.RecordGrade("a", 1, 100);
  auto now = tracker_.Snapshot(100);
  EXPECT_EQ(now[0].window_events, 2);

  // One second past the 60 s budget window: both events age out.
  auto later = tracker_.Snapshot(100 + 61);
  EXPECT_EQ(later[0].window_events, 0);
  EXPECT_EQ(later[0].window_bad, 0);
  EXPECT_EQ(later[0].budget_consumed_ppm, 0);
  EXPECT_EQ(later[0].budget_remaining_ppm, 1'000'000);
  // Cumulative counters are forever.
  EXPECT_EQ(later[0].events_total, 2);

  // The ring laps: an event 60+ s later lands on a recycled slot and must
  // not resurrect the old slot's counts.
  tracker_.RecordGrade("a", 1, 100 + 60);
  auto relapped = tracker_.Snapshot(100 + 60);
  EXPECT_EQ(relapped[0].window_events, 1);
  EXPECT_EQ(relapped[0].window_bad, 0);
}

TEST_F(SloTrackerTest, TenantsAreIndependentAndSorted) {
  tracker_.RecordGrade("zeta", 1, 100);
  tracker_.RecordShed("alpha", 100);
  auto snaps = tracker_.Snapshot(100);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].assignment, "alpha");
  EXPECT_EQ(snaps[1].assignment, "zeta");
  EXPECT_EQ(snaps[0].bad_total, 1);
  EXPECT_EQ(snaps[1].bad_total, 0);
}

TEST_F(SloTrackerTest, RenderSlozJsonCarriesPolicyAndBudgets) {
  tracker_.RecordGrade("assignment1", 1, 100);
  tracker_.RecordShed("assignment1", 100);
  std::string json = tracker_.RenderSlozJson(100);

  EXPECT_NE(json.find("\"policy\":"), std::string::npos);
  EXPECT_NE(json.find("\"latency_threshold_us\":100000"), std::string::npos);
  EXPECT_NE(json.find("\"availability_target_ppm\":900000"),
            std::string::npos);
  EXPECT_NE(json.find("\"assignments\":["), std::string::npos);
  EXPECT_NE(json.find("\"assignment\":\"assignment1\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_remaining_ppm\":"), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate_fast_milli\":"), std::string::npos);
  EXPECT_NE(json.find("\"shed_total\":1"), std::string::npos);
}

TEST_F(SloTrackerTest, SnapshotExportsContractMetrics) {
  tracker_.RecordGrade("assignment1", 1, 100);
  tracker_.RecordGrade("assignment1", 200'000, 100);  // Burns budget.

  std::string text = Registry::Global().Render();
  EXPECT_NE(text.find("jfeed_slo_budget_remaining_ppm{"
                      "assignment=\"assignment1\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("jfeed_slo_burn_rate_milli{assignment=\"assignment1\","
                "window=\"fast\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find("jfeed_slo_burn_rate_milli{assignment=\"assignment1\","
                "window=\"slow\"}"),
      std::string::npos);
  EXPECT_NE(text.find("jfeed_slo_fast_burn{assignment=\"assignment1\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("jfeed_slo_events_total{assignment=\"assignment1\","
                "result=\"good\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("jfeed_slo_events_total{assignment=\"assignment1\","
                "result=\"bad\"} 1"),
      std::string::npos);
}

TEST(AggregateSlozTest, SumsWorkersAndRederivesBudget) {
  SloTracker a;
  SloTracker b;
  SloPolicy p = TestPolicy();
  a.Configure(p);
  b.Configure(p);
  // Worker 0: 3 good. Worker 1: 1 good + 1 shed. Combined: 5 events,
  // 1 bad -> consumed = 1e6 * (1/5) / 0.10 = 2,000,000 ppm (blown).
  a.RecordGrade("assignment1", 1, 100);
  a.RecordGrade("assignment1", 1, 100);
  a.RecordGrade("assignment1", 1, 100);
  b.RecordGrade("assignment1", 1, 100);
  b.RecordShed("assignment1", 100);

  std::string merged = AggregateSloz({{0, a.RenderSlozJson(100)},
                                      {1, b.RenderSlozJson(100)}});
  EXPECT_NE(merged.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(merged.find("\"policy\":"), std::string::npos);
  EXPECT_NE(merged.find("\"assignment\":\"assignment1\""),
            std::string::npos);
  EXPECT_NE(merged.find("\"events_total\":5"), std::string::npos);
  EXPECT_NE(merged.find("\"good_total\":4"), std::string::npos);
  EXPECT_NE(merged.find("\"bad_total\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"shed_total\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"budget_consumed_ppm\":2000000"),
            std::string::npos);
  EXPECT_NE(merged.find("\"budget_remaining_ppm\":0"), std::string::npos);

  a.Disable();
  b.Disable();
}

TEST(AggregateSlozTest, SkipsGarbageBodiesAndSurvivesEmptyInput) {
  SloTracker a;
  a.Configure(TestPolicy());
  a.RecordGrade("assignment1", 1, 100);

  // A worker mid-restart answers garbage; the fleet view must not break.
  std::string merged = AggregateSloz({{0, "<html>503</html>"},
                                      {1, a.RenderSlozJson(100)},
                                      {2, ""}});
  EXPECT_NE(merged.find("\"workers\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"assignment\":\"assignment1\""),
            std::string::npos);

  std::string empty = AggregateSloz({});
  EXPECT_NE(empty.find("\"workers\":0"), std::string::npos);
  EXPECT_NE(empty.find("\"assignments\":["), std::string::npos);

  a.Disable();
}

}  // namespace
}  // namespace jfeed::obs
