#include "obs/trace.h"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace jfeed::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }

  static const SpanRecord* Find(const std::vector<SpanRecord>& records,
                                const std::string& name) {
    for (const auto& record : records) {
      if (name == record.name) return &record;
    }
    return nullptr;
  }
};

TEST_F(TraceTest, SpanRecordsOnEnd) {
  {
    Span span("unit");
    EXPECT_TRUE(span.recording());
    EXPECT_NE(span.id(), 0u);
    EXPECT_EQ(Tracer::Global().OpenSpanCount(), 1);
  }
  EXPECT_EQ(Tracer::Global().OpenSpanCount(), 0);
  auto records = Tracer::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "unit");
  EXPECT_EQ(records[0].parent_id, 0u);
  EXPECT_GE(records[0].end_ns, records[0].start_ns);
}

TEST_F(TraceTest, EndIsIdempotent) {
  Span span("once");
  span.End();
  span.End();  // Second End (and the destructor later) must not re-record.
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 1u);
}

TEST_F(TraceTest, ImplicitParentFollowsThreadNesting) {
  {
    Span outer("outer");
    Span inner("inner");
    // inner picked up outer as its parent without being told.
    inner.End();
    outer.End();
  }
  auto records = Tracer::Global().Snapshot();
  const SpanRecord* outer = Find(records, "outer");
  const SpanRecord* inner = Find(records, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->id);
}

TEST_F(TraceTest, ImplicitChainRestoresAfterEnd) {
  Span outer("outer");
  {
    Span first("first");
  }
  // After `first` ended, new spans must nest under `outer` again, not
  // under the dead `first`.
  Span second("second");
  second.End();
  outer.End();
  auto records = Tracer::Global().Snapshot();
  const SpanRecord* out = Find(records, "outer");
  const SpanRecord* second_record = Find(records, "second");
  ASSERT_NE(out, nullptr);
  ASSERT_NE(second_record, nullptr);
  EXPECT_EQ(second_record->parent_id, out->id);
}

TEST_F(TraceTest, ExplicitParentOverridesImplicitChain) {
  Span root("root");
  Span sibling("sibling");
  // Explicit parent: nests under root even though sibling is innermost.
  Span child("child", root);
  child.End();
  sibling.End();
  root.End();
  auto records = Tracer::Global().Snapshot();
  const SpanRecord* root_record = Find(records, "root");
  const SpanRecord* child_record = Find(records, "child");
  ASSERT_NE(root_record, nullptr);
  ASSERT_NE(child_record, nullptr);
  EXPECT_EQ(child_record->parent_id, root_record->id);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  {
    Span span("ghost");
    EXPECT_FALSE(span.recording());
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_EQ(Tracer::Global().OpenSpanCount(), 0);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

TEST_F(TraceTest, SpanBegunWhileDisabledYieldsRootChildren) {
  Tracer::Global().Disable();
  Span dead("dead");
  Tracer::Global().Enable();
  // A recording span whose explicit parent never recorded is a root.
  Span child("child", dead);
  child.End();
  dead.End();
  auto records = Tracer::Global().Snapshot();
  const SpanRecord* child_record = Find(records, "child");
  ASSERT_NE(child_record, nullptr);
  EXPECT_EQ(child_record->parent_id, 0u);
}

TEST_F(TraceTest, SnapshotIsSortedByStartTime) {
  for (int i = 0; i < 16; ++i) {
    Span span("tick");
  }
  auto records = Tracer::Global().Snapshot();
  ASSERT_EQ(records.size(), 16u);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns < b.start_ns || (a.start_ns == b.start_ns &&
                                           a.id < b.id);
      }));
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCounts) {
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  Tracer::Global().Enable(/*ring_capacity=*/4);
  // A fresh thread gets a ring with the new capacity (Enable only applies
  // to rings created after the call).
  std::thread([] {
    for (int i = 0; i < 10; ++i) {
      Span span("wrap");
    }
  }).join();
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 4u);
  EXPECT_EQ(Tracer::Global().DroppedCount(), 6);
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  {
    Span main_span("main");
    std::thread([] { Span worker_span("worker"); }).join();
  }
  auto records = Tracer::Global().Snapshot();
  const SpanRecord* main_record = Find(records, "main");
  const SpanRecord* worker_record = Find(records, "worker");
  ASSERT_NE(main_record, nullptr);
  ASSERT_NE(worker_record, nullptr);
  EXPECT_NE(main_record->tid, worker_record->tid);
  // Worker spans are roots of their own thread: the implicit chain is
  // thread-local and never leaks across threads.
  EXPECT_EQ(worker_record->parent_id, 0u);
}

TEST_F(TraceTest, ExportChromeJsonEmitsCompleteEvents) {
  {
    Span outer("grade");
    Span inner("parse");
  }
  std::string json = Tracer::Global().ExportChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"grade\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":"), std::string::npos);
  // Balanced brackets — cheap structural sanity without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, ClearDropsRecordsAndDroppedCount) {
  {
    Span span("gone");
  }
  ASSERT_EQ(Tracer::Global().Snapshot().size(), 1u);
  Tracer::Global().Clear();
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
  EXPECT_EQ(Tracer::Global().DroppedCount(), 0);
}

}  // namespace
}  // namespace jfeed::obs
