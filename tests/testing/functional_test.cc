#include "testing/functional.h"

#include <gtest/gtest.h>

#include "javalang/parser.h"

namespace jfeed::testing {
namespace {

using interp::Value;

java::CompilationUnit ParseOrDie(const std::string& source) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  return std::move(*unit);
}

FunctionalSuite SquareSuite() {
  FunctionalSuite suite;
  suite.method = "f";
  suite.inputs = {{Value::Int(2)}, {Value::Int(5)}, {Value::Int(-3)}};
  return suite;
}

TEST(FunctionalTest, ReferenceDefinesExpectedOutputs) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  auto expected = ComputeExpectedOutputs(reference, SquareSuite());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, (std::vector<std::string>{"4\n", "25\n", "9\n"}));
}

TEST(FunctionalTest, EquivalentSubmissionPasses) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  auto expected = ComputeExpectedOutputs(reference, SquareSuite());
  ASSERT_TRUE(expected.ok());
  auto submission = ParseOrDie(
      "void f(int x) { int y = x; System.out.println(y * x); }");
  auto verdict = RunSuite(submission, SquareSuite(), *expected);
  EXPECT_TRUE(verdict.passed);
  EXPECT_EQ(verdict.tests_failed, 0);
  EXPECT_EQ(verdict.tests_run, 3);
}

TEST(FunctionalTest, WrongSubmissionFailsWithDiagnostic) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  auto expected = ComputeExpectedOutputs(reference, SquareSuite());
  ASSERT_TRUE(expected.ok());
  auto submission = ParseOrDie("void f(int x) { System.out.println(x); }");
  auto verdict = RunSuite(submission, SquareSuite(), *expected);
  EXPECT_FALSE(verdict.passed);
  EXPECT_GT(verdict.tests_failed, 0);
  EXPECT_NE(verdict.first_failure.find("expected"), std::string::npos);
}

TEST(FunctionalTest, RuntimeErrorCountsAsFailure) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  auto expected = ComputeExpectedOutputs(reference, SquareSuite());
  ASSERT_TRUE(expected.ok());
  auto submission = ParseOrDie(
      "void f(int x) { int[] a = new int[1]; System.out.println(a[5]); }");
  auto verdict = RunSuite(submission, SquareSuite(), *expected);
  EXPECT_FALSE(verdict.passed);
  EXPECT_EQ(verdict.tests_failed, 3);
}

TEST(FunctionalTest, InfiniteLoopCountsAsFailure) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  FunctionalSuite suite = SquareSuite();
  suite.exec_options.max_steps = 20000;
  auto expected = ComputeExpectedOutputs(reference, suite);
  ASSERT_TRUE(expected.ok());
  auto submission =
      ParseOrDie("void f(int x) { while (true) { x = x; } }");
  auto verdict = RunSuite(submission, suite, *expected);
  EXPECT_FALSE(verdict.passed);
}

TEST(FunctionalTest, FailedCallsStepsAreCountedSeparately) {
  auto reference =
      ParseOrDie("void f(int x) { System.out.println(x * x); }");
  FunctionalSuite suite = SquareSuite();
  suite.exec_options.max_steps = 20000;
  auto expected = ComputeExpectedOutputs(reference, suite);
  ASSERT_TRUE(expected.ok());
  // x = 2 and x = 5 spin until the step budget kills them; x = -3 returns
  // at once with wrong output, which is a successful call.
  auto submission = ParseOrDie(
      "void f(int x) { while (x > 0) { x = x; } System.out.println(x); }");
  auto verdict = RunSuite(submission, suite, *expected);
  EXPECT_EQ(verdict.tests_failed, 3);
  EXPECT_EQ(verdict.timeouts, 2);
  EXPECT_EQ(verdict.interp_steps_failed, 2 * 20000);
  EXPECT_GT(verdict.interp_steps, 0);
  EXPECT_LT(verdict.interp_steps, 100);

  // A runtime error counts the steps run before it.
  auto crashing = ParseOrDie(
      "void f(int x) { int[] a = new int[1]; System.out.println(a[5]); }");
  auto crashed = RunSuite(crashing, suite, *expected);
  EXPECT_EQ(crashed.timeouts, 0);
  EXPECT_EQ(crashed.interp_steps, 0);
  EXPECT_GT(crashed.interp_steps_failed, 0);
  EXPECT_EQ(crashed.interp_steps_failed % 3, 0);
}

TEST(FunctionalTest, TrailingWhitespaceIsNormalized) {
  // print vs println of the same value should not be a functional failure.
  auto reference = ParseOrDie("void f(int x) { System.out.println(x); }");
  auto expected = ComputeExpectedOutputs(reference, SquareSuite());
  ASSERT_TRUE(expected.ok());
  auto submission = ParseOrDie("void f(int x) { System.out.print(x); }");
  EXPECT_TRUE(RunSuite(submission, SquareSuite(), *expected).passed);
}

TEST(FunctionalTest, ReferenceErrorIsInternal) {
  auto broken = ParseOrDie("void f(int x) { System.out.println(1 / 0); }");
  auto expected = ComputeExpectedOutputs(broken, SquareSuite());
  EXPECT_FALSE(expected.ok());
  EXPECT_EQ(expected.status().code(), StatusCode::kInternal);
}

TEST(FunctionalTest, SuiteWithFilesFlowsToScanner) {
  FunctionalSuite suite;
  suite.method = "f";
  suite.inputs = {{}};
  suite.files["d.txt"] = "10 20 30";
  auto reference = ParseOrDie(
      "void f() { Scanner s = new Scanner(new File(\"d.txt\")); int t = 0; "
      "while (s.hasNextInt()) t += s.nextInt(); System.out.println(t); }");
  auto expected = ComputeExpectedOutputs(reference, suite);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*expected)[0], "60\n");
}

}  // namespace
}  // namespace jfeed::testing
