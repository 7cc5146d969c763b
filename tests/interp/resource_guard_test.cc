// Resource-guard behaviour of the interpreter: every budget in ExecOptions
// must turn an adversarial program into a precise, classified error instead
// of an OOM, a hang, or a flood.

#include <gtest/gtest.h>

#include <chrono>

#include "interp/interpreter.h"
#include "javalang/parser.h"

namespace jfeed::interp {
namespace {

Result<ExecResult> RunMethod(const std::string& source,
                             const std::string& method,
                             const std::vector<Value>& args,
                             const ExecOptions& options) {
  auto unit = java::Parse(source);
  if (!unit.ok()) return unit.status();
  Interpreter interp(*unit);
  return interp.Call(method, args, options);
}

TEST(ResourceGuardTest, HugeArrayAllocationIsResourceExhausted) {
  ExecOptions options;
  options.max_heap_bytes = 1 << 20;  // 1 MiB.
  auto r = RunMethod("int f() { int[] a = new int[1073741824]; return 0; }",
                     "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("heap budget"), std::string::npos);
}

TEST(ResourceGuardTest, AllocationLoopCannotDodgeBudgetByDroppingRefs) {
  // Each iteration drops the previous array; the budget is cumulative, so
  // the loop still exhausts it instead of churning forever.
  ExecOptions options;
  options.max_heap_bytes = 1 << 20;
  auto r = RunMethod(
      "int f() { int s = 0; while (true) { int[] a = new int[1000]; "
      "s = s + a.length; } return s; }",
      "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, StringDoublingIsResourceExhausted) {
  ExecOptions options;
  options.max_heap_bytes = 1 << 20;
  auto r = RunMethod(
      "int f() { String s = \"x\"; while (true) { s = s + s; } return 0; }",
      "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, OutputFloodIsResourceExhausted) {
  ExecOptions options;
  options.max_output_bytes = 4096;
  auto r = RunMethod(
      "void f() { while (true) { System.out.println(\"spam\"); } }", "f", {},
      options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("output budget"), std::string::npos);
}

TEST(ResourceGuardTest, WallClockDeadlineIsTimeout) {
  ExecOptions options;
  options.max_steps = 1ll << 40;  // Effectively unlimited steps.
  options.deadline_ms = 50;
  auto start = std::chrono::steady_clock::now();
  auto r = RunMethod("void f() { int i = 0; while (true) { i = i + 1; } }",
                     "f", {}, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
  // Generous bound: the deadline is 50ms, the check fires within a few
  // thousand steps of it; anything near seconds means the guard is broken.
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(ResourceGuardTest, StepBudgetRemainsTimeout) {
  ExecOptions options;
  options.max_steps = 1000;
  auto r = RunMethod("void f() { while (true) { } }", "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(ResourceGuardTest, UnlimitedBudgetsPreserveOldBehaviour) {
  ExecOptions options;
  options.max_heap_bytes = 0;
  options.max_output_bytes = 0;
  auto r = RunMethod(
      "int f() { int[] a = new int[100]; System.out.println(a.length); "
      "return a.length; }",
      "f", {}, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 100);
}

TEST(ResourceGuardTest, WellBehavedProgramFitsDefaultBudgets) {
  auto r = RunMethod(
      "int f() { int[] a = new int[64]; String s = \"\"; "
      "for (int i = 0; i < a.length; i++) { s = s + \"x\"; } "
      "System.out.println(s); return a.length; }",
      "f", {}, ExecOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 64);
}


TEST(ResourceGuardTest, HeapBudgetBoundaryIsEightyEightBytesPerSlot) {
  // The charge unit is frozen at 88 bytes per array slot: 100 slots fit in
  // 8800 bytes exactly, 101 do not.
  ExecOptions options;
  options.max_heap_bytes = 8800;
  auto fits = RunMethod("void f() { int[] a = new int[100]; }", "f", {},
                        options);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->heap_bytes, 8800);
  auto over = RunMethod("void f() { int[] a = new int[101]; }", "f", {},
                        options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  auto literal = RunMethod("void f() { int[] a = new int[] {1, 2, 3}; }",
                           "f", {}, options);
  ASSERT_TRUE(literal.ok()) << literal.status().ToString();
  EXPECT_EQ(literal->heap_bytes, 3 * 88);
}

}  // namespace
}  // namespace jfeed::interp
