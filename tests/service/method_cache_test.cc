#include "service/method_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "javalang/ast.h"
#include "javalang/parser.h"
#include "support/fault.h"

namespace jfeed::service {
namespace {

java::Method ParseOne(const std::string& source) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_EQ(unit->methods.size(), 1u);
  return std::move(unit->methods[0]);
}

TEST(MethodCacheTest, BuildEntryPinsAFrozenSingleMethodGraph) {
  std::shared_ptr<MethodEntry> entry;
  {
    java::Method method =
        ParseOne("int f(int a) { int b = a + 1; return b; }");
    auto built = MethodCache::BuildEntry(method);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    entry = *built;
  }
  // The parsed method is gone: the graph copied what it reads into the
  // entry's own arena, not whatever scope was active at build time.
  ASSERT_NE(entry->graph, nullptr);
  EXPECT_EQ(entry->graph->method_name(), "f");
  EXPECT_EQ(entry->graph->NodeAt(0).content, "int a");
  EXPECT_EQ(entry->cells.size(), 0u);
  EXPECT_GT(entry->memory.arena.bytes_allocated(), 0u);
}

TEST(MethodCacheTest, LookupMissThenInsertThenHit) {
  MethodCache cache;
  java::Method method = ParseOne("int f() { return 1; }");

  auto miss = cache.Lookup("a1", method.fingerprint);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, nullptr);

  auto built = MethodCache::BuildEntry(method);
  ASSERT_TRUE(built.ok());
  cache.Insert("a1", method.fingerprint, *built);

  auto hit = cache.Lookup("a1", method.fingerprint);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *built);

  MethodCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(MethodCacheTest, AssignmentIdIsolatesIdenticalMethods) {
  // Same fingerprint under two assignment ids: the tenant-isolation
  // contract — a cell is only meaningful against its own spec.
  MethodCache cache;
  java::Method method = ParseOne("int f() { return 1; }");
  auto built = MethodCache::BuildEntry(method);
  ASSERT_TRUE(built.ok());
  cache.Insert("a1", method.fingerprint, *built);

  auto other = cache.Lookup("a2", method.fingerprint);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(*other, nullptr) << "cross-assignment reuse must never happen";
}

TEST(MethodCacheTest, InsertRaceKeepsFirstWriter) {
  MethodCache cache;
  java::Method method = ParseOne("int f() { return 1; }");
  auto first = MethodCache::BuildEntry(method);
  auto second = MethodCache::BuildEntry(method);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(cache.Insert("a1", method.fingerprint, *first), *first);
  // The losing writer gets the published entry back, so both graders
  // converge on one cell store.
  EXPECT_EQ(cache.Insert("a1", method.fingerprint, *second), *first);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MethodCacheTest, EvictionBoundsTheCache) {
  MethodCache cache(/*max_entries=*/4);
  java::Method method = ParseOne("int f() { return 1; }");
  auto built = MethodCache::BuildEntry(method);
  ASSERT_TRUE(built.ok());
  for (uint64_t fp = 1; fp <= 10; ++fp) cache.Insert("a1", fp, *built);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
}

TEST(MethodCacheTest, EvictedEntryStaysAliveWhileReferenced) {
  MethodCache cache(/*max_entries=*/1);
  java::Method method = ParseOne("int f() { return 1; }");
  auto built = MethodCache::BuildEntry(method);
  ASSERT_TRUE(built.ok());
  std::shared_ptr<MethodEntry> pinned =
      cache.Insert("a1", /*fingerprint=*/1, *built);
  auto other = MethodCache::BuildEntry(method);
  ASSERT_TRUE(other.ok());
  cache.Insert("a1", /*fingerprint=*/2, *other);  // Evicts entry 1.
  EXPECT_EQ(cache.size(), 1u);
  // The pinned handle still works: a grade using the entry mid-eviction
  // reads valid memory.
  EXPECT_EQ(pinned->graph->method_name(), "f");
}

TEST(MethodCacheTest, InjectedLookupFaultCountsAsFallback) {
  MethodCache cache;
  java::Method method = ParseOne("int f() { return 1; }");
  auto built = MethodCache::BuildEntry(method);
  ASSERT_TRUE(built.ok());
  cache.Insert("a1", method.fingerprint, *built);

  {
    fault::FaultConfig config;
    config.probability = 1.0;
    config.only_point = fault::points::kMethodCacheLookup;
    fault::ScopedFaultInjection campaign(config);
    auto result = cache.Lookup("a1", method.fingerprint);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(cache.stats().fallbacks, 1u);
  // The entry was not poisoned; a post-campaign lookup hits normally.
  auto hit = cache.Lookup("a1", method.fingerprint);
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(*hit, nullptr);
}

TEST(MethodCacheTest, CampaignOnOtherPointsPassesThrough) {
  MethodCache cache;
  java::Method method = ParseOne("int f() { return 1; }");
  fault::FaultConfig config;
  config.probability = 1.0;
  config.only_point = fault::points::kParser;
  fault::ScopedFaultInjection campaign(config);
  auto result = cache.Lookup("a1", method.fingerprint);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, nullptr);
}

TEST(MethodCacheTest, ConcurrentLookupAndInsertIsSafe) {
  // Every scheduler worker shares one method cache. This one is small
  // enough that entries are evicted while other threads read theirs.
  MethodCache cache(/*max_entries=*/16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      java::Method method = ParseOne("int f(int a) { return a + 1; }");
      for (uint64_t i = 0; i < 200; ++i) {
        uint64_t fp = (t * 131 + i) % 40;
        auto found = cache.Lookup("a", fp);
        ASSERT_TRUE(found.ok());
        std::shared_ptr<MethodEntry> entry = *found;
        if (entry == nullptr) {
          auto built = MethodCache::BuildEntry(method);
          ASSERT_TRUE(built.ok());
          entry = cache.Insert("a", fp, *built);
        }
        EXPECT_EQ(entry->graph->NodeAt(0).content, "int a");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 16u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 800u);
  EXPECT_EQ(stats.insertions - stats.evictions, cache.size());
}

}  // namespace
}  // namespace jfeed::service
