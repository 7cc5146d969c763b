#include "support/regex_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace jfeed {
namespace {

TEST(RegexCacheTest, CompilesAndCaches) {
  RegexCache cache;
  EXPECT_TRUE(cache.Search("a+b", "xaaab"));
  // Second lookup reuses the compiled program.
  EXPECT_FALSE(cache.Search("a+b", "xaaa"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RegexCacheTest, InvalidPatternsAreNegativeCached) {
  RegexCache cache;
  EXPECT_FALSE(cache.Valid("(["));
  EXPECT_FALSE(cache.Search("([", "(["));  // Never matches, never recompiles.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // Valid ECMAScript outside the LiteRegex subset is invalid too: there is
  // no second engine to fall back on.
  EXPECT_FALSE(cache.Valid("a{2}"));
  EXPECT_FALSE(cache.Search("a{2}", "aa"));
}

TEST(RegexCacheTest, EvictsOneEntryWhenFullInsteadOfClearing) {
  RegexCache cache(/*max_entries=*/4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.Valid("p" + std::to_string(i)));
  }
  EXPECT_EQ(cache.size(), 4u);
  // Overflow evicts exactly one entry, never the whole cache.
  ASSERT_TRUE(cache.Valid("p4"));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(RegexCacheTest, SecondChanceEvictionKeepsHotEntries) {
  RegexCache cache(/*max_entries=*/4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.Valid("p" + std::to_string(i)));
  }
  // Touch p0 and p1: their reference bits protect them from the next
  // eviction scans; the cold p2/p3 go first.
  cache.Valid("p0");
  cache.Valid("p1");
  cache.Valid("p4");
  cache.Valid("p5");
  uint64_t hits_before = cache.hits();
  cache.Valid("p0");
  cache.Valid("p1");
  EXPECT_EQ(cache.hits(), hits_before + 2) << "hot entries were evicted";
}

TEST(RegexCacheTest, ThreadLocalIsPerThread) {
  RegexCache* main_instance = &RegexCache::ThreadLocal();
  EXPECT_EQ(main_instance, &RegexCache::ThreadLocal());
  EXPECT_TRUE(RegexCache::ThreadLocal().Valid("x = 0"));
  RegexCache* worker_instance = nullptr;
  std::thread worker(
      [&worker_instance] { worker_instance = &RegexCache::ThreadLocal(); });
  worker.join();
  EXPECT_NE(worker_instance, nullptr);
  EXPECT_NE(worker_instance, main_instance);
}

}  // namespace
}  // namespace jfeed
