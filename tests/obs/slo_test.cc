#include "obs/slo.h"

#include <array>
#include <cstdint>
#include <string>
#include <thread>
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

/// The four gauges RecordGrade/RecordShed keep current for `assignment`.
struct SloGauges {
  explicit SloGauges(const std::string& assignment)
      : remaining(Registry::Global().GetGauge(
            "jfeed_slo_budget_remaining_ppm", "",
            {{"assignment", assignment}})),
        burn_fast(Registry::Global().GetGauge(
            "jfeed_slo_burn_rate_milli", "",
            {{"assignment", assignment}, {"window", "fast"}})),
        burn_slow(Registry::Global().GetGauge(
            "jfeed_slo_burn_rate_milli", "",
            {{"assignment", assignment}, {"window", "slow"}})),
        fast_burn(Registry::Global().GetGauge("jfeed_slo_fast_burn", "",
                                              {{"assignment", assignment}})) {}
  Gauge* remaining;
  Gauge* burn_fast;
  Gauge* burn_slow;
  Gauge* fast_burn;
};

TEST_F(SloTrackerTest, GaugesEqualSnapshotAfterEveryEvent) {
  // Seeded events on three tenants under small windows (50 s budget, 5 s
  // fast, 20 s slow): the clock mostly steps forward 0-3 s, sometimes
  // jumps past the whole window and sometimes steps back. After every
  // event the gauges must say what a full scan of the ring says.
  SloPolicy policy = TestPolicy();
  policy.window_s = 50;
  policy.fast_window_s = 5;
  policy.slow_window_s = 20;
  policy.min_events = 3;
  // A quarter of the events are bad, so burn rates hover around 2.5x and
  // the fast alert both fires and clears.
  policy.fast_burn_threshold_milli = 2'500;
  policy.slow_burn_threshold_milli = 2'000;
  tracker_.Configure(policy);
  const std::array<std::string, 3> tenants = {"assignment1", "esc-a",
                                              "rit-b"};
  std::vector<SloGauges> gauges;
  for (const std::string& tenant : tenants) gauges.emplace_back(tenant);

  uint64_t state = 88172645463325252ull;  // xorshift64
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int64_t now_s = 1'000;
  size_t mismatches = 0;
  int checks = 0;
  int fast_burns = 0;
  for (int event = 0; event < 120'000; ++event) {
    uint64_t r = next();
    switch (r % 64) {
      case 0: now_s += 60 + static_cast<int64_t>((r >> 8) % 80); break;
      case 1: case 2: now_s -= 1 + static_cast<int64_t>((r >> 8) % 3); break;
      default:
        if ((r >> 6) % 4 == 0) now_s += static_cast<int64_t>((r >> 8) % 4);
    }
    size_t t = (r >> 16) % tenants.size();
    switch ((r >> 24) % 8) {
      case 0: tracker_.RecordShed(tenants[t], now_s); break;
      case 1: tracker_.RecordGrade(tenants[t], 150'000, now_s); break;
      default: tracker_.RecordGrade(tenants[t], 40'000, now_s); break;
    }
    for (const AssignmentSlo& slo : tracker_.Snapshot(now_s)) {
      if (slo.assignment != tenants[t]) continue;
      const SloGauges& g = gauges[t];
      if (g.remaining->Value() != slo.budget_remaining_ppm ||
          g.burn_fast->Value() != slo.burn_rate_fast_milli ||
          g.burn_slow->Value() != slo.burn_rate_slow_milli ||
          g.fast_burn->Value() != (slo.fast_burn ? 1 : 0)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "event " << event << " tenant " << tenants[t]
                        << " at " << now_s << ": gauges "
                        << g.remaining->Value() << "/"
                        << g.burn_fast->Value() << "/"
                        << g.burn_slow->Value() << "/"
                        << g.fast_burn->Value() << ", snapshot "
                        << slo.budget_remaining_ppm << "/"
                        << slo.burn_rate_fast_milli << "/"
                        << slo.burn_rate_slow_milli << "/" << slo.fast_burn;
        }
      }
      ++checks;
      fast_burns += slo.fast_burn ? 1 : 0;
    }
  }
  EXPECT_EQ(checks, 120'000);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(fast_burns, checks / 20);
  EXPECT_LT(fast_burns, checks - checks / 20);
}

TEST_F(SloTrackerTest, ConcurrentRecordersKeepExactTotals) {
  const std::array<std::string, 3> tenants = {"assignment1", "esc-a",
                                              "rit-b"};
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 6'000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([this, &tenants, w] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        const std::string& tenant = tenants[static_cast<size_t>(i + w) % 3];
        const int64_t now_s = 100 + i / 1'000;
        switch (i % 5) {
          case 0: tracker_.RecordShed(tenant, now_s); break;
          case 1: tracker_.RecordGrade(tenant, 200'000, now_s); break;
          default: tracker_.RecordGrade(tenant, 1, now_s); break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Thread w gives event i to tenant (i + w) % 3 and result i % 5, so each
  // (tenant, result) total is a count over the residues of i mod 15.
  std::array<int64_t, 3> good{}, bad{}, shed{};
  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kEventsPerThread; ++i) {
      size_t t = static_cast<size_t>(i + w) % 3;
      if (i % 5 == 0) {
        ++bad[t];
        ++shed[t];
      } else if (i % 5 == 1) {
        ++bad[t];
      } else {
        ++good[t];
      }
    }
  }
  auto snaps = tracker_.Snapshot(100 + kEventsPerThread / 1'000);
  ASSERT_EQ(snaps.size(), tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(snaps[t].assignment, tenants[t]);
    EXPECT_EQ(snaps[t].good_total, good[t]) << tenants[t];
    EXPECT_EQ(snaps[t].bad_total, bad[t]) << tenants[t];
    EXPECT_EQ(snaps[t].shed_total, shed[t]) << tenants[t];
    EXPECT_EQ(Registry::Global()
                  .GetCounter("jfeed_slo_events_total", "",
                              {{"assignment", tenants[t]},
                               {"result", "good"}})
                  ->Value(),
              good[t])
        << tenants[t];
    EXPECT_EQ(Registry::Global()
                  .GetCounter("jfeed_slo_events_total", "",
                              {{"assignment", tenants[t]}, {"result", "bad"}})
                  ->Value(),
              bad[t])
        << tenants[t];
  }
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
