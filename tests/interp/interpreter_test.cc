#include "interp/interpreter.h"

#include <gtest/gtest.h>

#include "javalang/parser.h"

namespace jfeed::interp {
namespace {

/// Parses `source`, runs `method` with `args`, and returns stdout.
std::string RunStdout(const std::string& source, const std::string& method,
                      const std::vector<Value>& args,
                      std::map<std::string, std::string> files = {}) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  Interpreter interp(*unit, std::move(files));
  auto result = interp.Call(method, args);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->stdout_text : "<error>";
}

Result<ExecResult> RunMethod(const std::string& source, const std::string& method,
                       const std::vector<Value>& args,
                       const ExecOptions& options = ExecOptions()) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  Interpreter interp(*unit);
  return interp.Call(method, args, options);
}

TEST(InterpreterTest, HelloWorld) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(\"hello\"); }", "f", {}),
            "hello\n");
}

TEST(InterpreterTest, PrintVsPrintln) {
  EXPECT_EQ(RunStdout(
                "void f() { System.out.print(1); System.out.print(2); "
                "System.out.println(3); }",
                "f", {}),
            "123\n");
}

TEST(InterpreterTest, ArithmeticAndPrecedence) {
  auto r = RunMethod("int f() { return 2 + 3 * 4; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 14);
}

TEST(InterpreterTest, IntegerDivisionTruncates) {
  auto r = RunMethod("int f() { return 7 / 2; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 3);
}

TEST(InterpreterTest, DoubleDivision) {
  auto r = RunMethod("double f() { return 7.0 / 2; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->return_value.AsDouble(), 3.5);
}

TEST(InterpreterTest, DivisionByZeroIsExecutionError) {
  auto r = RunMethod("int f(int x) { return 1 / x; }", "f", {Value::Int(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("by zero"), std::string::npos);
}

TEST(InterpreterTest, ModByZeroIsExecutionError) {
  auto r = RunMethod("int f(int x) { return 1 % x; }", "f", {Value::Int(0)});
  EXPECT_FALSE(r.ok());
}

TEST(InterpreterTest, WhileLoopSum) {
  auto r = RunMethod(
      "int f(int n) { int s = 0; int i = 1; while (i <= n) { s += i; i++; } "
      "return s; }",
      "f", {Value::Int(100)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 5050);
}

TEST(InterpreterTest, ForLoopFactorial) {
  auto r = RunMethod(
      "int f(int n) { int p = 1; for (int i = 1; i <= n; i++) p *= i; "
      "return p; }",
      "f", {Value::Int(6)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 720);
}

TEST(InterpreterTest, DoWhileExecutesBodyFirst) {
  auto r = RunMethod(
      "int f() { int i = 10; int n = 0; do { n++; } while (i < 5); "
      "return n; }",
      "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 1);
}

TEST(InterpreterTest, BreakAndContinue) {
  auto r = RunMethod(
      "int f() { int s = 0; for (int i = 0; i < 10; i++) { "
      "if (i % 2 == 0) continue; if (i > 7) break; s += i; } return s; }",
      "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 1 + 3 + 5 + 7);
}

TEST(InterpreterTest, InfiniteLoopHitsStepBudget) {
  ExecOptions options;
  options.max_steps = 10'000;
  auto r = RunMethod("void f() { while (true) { } }", "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(InterpreterTest, ArrayAccessAndLength) {
  auto r = RunMethod(
      "int f(int[] a) { int s = 0; for (int i = 0; i < a.length; i++) "
      "s += a[i]; return s; }",
      "f", {Value::IntArray({1, 2, 3, 4})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 10);
}

TEST(InterpreterTest, ArrayOutOfBoundsIsExecutionError) {
  // This is exactly the Fig. 2a bug: `i <= a.length` walks past the end.
  auto r = RunMethod(
      "int f(int[] a) { int s = 0; for (int i = 0; i <= a.length; i++) "
      "s += a[i]; return s; }",
      "f", {Value::IntArray({1, 2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("ArrayIndexOutOfBounds"),
            std::string::npos);
}

TEST(InterpreterTest, ArraysShareReferenceSemantics) {
  auto r = RunMethod(
      "int f(int[] a) { int[] b = a; b[0] = 99; return a[0]; }", "f",
      {Value::IntArray({1})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 99);
}

TEST(InterpreterTest, NewArrayDefaultInitialized) {
  auto r = RunMethod("int f() { int[] a = new int[5]; return a[3]; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 0);
}

TEST(InterpreterTest, NegativeArraySizeIsError) {
  EXPECT_FALSE(RunMethod("int f() { int[] a = new int[-1]; return 0; }", "f", {})
                   .ok());
}

TEST(InterpreterTest, StringConcatenation) {
  EXPECT_EQ(RunStdout(
                "void f(int x, int y) { System.out.print(\"O: \" + x + "
                "\", E: \" + y); }",
                "f", {Value::Int(3), Value::Int(8)}),
            "O: 3, E: 8");
}

TEST(InterpreterTest, DoublePrintsWithDecimalPoint) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(4.0); }", "f", {}),
            "4.0\n");
  EXPECT_EQ(RunStdout("void f() { double d = 4; System.out.println(d); }",
                      "f", {}),
            "4.0\n");
}

TEST(InterpreterTest, BooleanPrinting) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(1 < 2); }", "f", {}),
            "true\n");
}

TEST(InterpreterTest, MathBuiltins) {
  auto r = RunMethod("double f() { return Math.pow(2, 10); }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->return_value.AsDouble(), 1024.0);
  auto r2 = RunMethod("int f() { return (int) Math.floor(Math.log10(12345)); }",
                "f", {});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->return_value.AsInt(), 4);
}

TEST(InterpreterTest, MathAbsMaxMinEvaluateEachArgumentOnce) {
  auto max = RunMethod("int f() { int i = 0; Math.max(i++, -1); return i; }",
                       "f", {});
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->return_value.AsInt(), 1);
  auto abs = RunMethod("int f() { int i = 0; Math.abs(i++); return i; }", "f",
                       {});
  ASSERT_TRUE(abs.ok()) << abs.status().ToString();
  EXPECT_EQ(abs->return_value.AsInt(), 1);
  auto min = RunMethod("int f() { int i = 5; Math.min(i--, 100); return i; }",
                       "f", {});
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->return_value.AsInt(), 4);
}

TEST(InterpreterTest, MathAbsMaxMinKeepIntegerKind) {
  auto kind_of = [](const std::string& expr) {
    auto r = RunMethod("void f() { System.out.println(" + expr + "); }", "f",
                       {});
    return r.ok() ? r->stdout_text : r.status().ToString();
  };
  EXPECT_EQ(kind_of("Math.abs(-4)"), "4\n");
  EXPECT_EQ(kind_of("Math.abs(-2.5)"), "2.5\n");
  EXPECT_EQ(kind_of("Math.max(3, 7)"), "7\n");
  EXPECT_EQ(kind_of("Math.max(3, 7.5)"), "7.5\n");
  EXPECT_EQ(kind_of("Math.min(3, 7)"), "3\n");
  EXPECT_EQ(kind_of("Math.min(3.0, 7)"), "3.0\n");
  EXPECT_EQ(kind_of("Math.max('a', 1)"), "97\n");
}

TEST(InterpreterTest, UserMethodCalls) {
  auto r = RunMethod(
      "int fact(int n) { int f = 1; for (int i = 1; i <= n; i++) f *= i; "
      "return f; }\n"
      "int f(int k) { return fact(k) + fact(3); }",
      "f", {Value::Int(4)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 30);
}

TEST(InterpreterTest, RecursionWorks) {
  auto r = RunMethod(
      "int fib(int n) { if (n <= 2) return 1; return fib(n - 1) + "
      "fib(n - 2); }",
      "fib", {Value::Int(10)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 55);
}

TEST(InterpreterTest, RunawayRecursionIsResourceExhaustion) {
  // Call-depth blowup is a *space* failure (each frame holds live state), so
  // it reports kResourceExhausted — distinguishable from deadline/step
  // timeouts downstream.
  auto r = RunMethod("int f(int n) { return f(n + 1); }", "f", {Value::Int(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(InterpreterTest, MissingMethodIsNotFound) {
  auto r = RunMethod("void f() { }", "g", {});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InterpreterTest, WrongArgumentCountIsError) {
  EXPECT_FALSE(RunMethod("void f(int x) { }", "f", {}).ok());
}

TEST(InterpreterTest, UndefinedVariableIsError) {
  auto r = RunMethod("int f() { return nope; }", "f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("undefined variable"),
            std::string::npos);
}

TEST(InterpreterTest, ScopedShadowing) {
  auto r = RunMethod(
      "int f() { int x = 1; { int y = 10; x += y; } return x; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 11);
}

TEST(InterpreterTest, IntOverflowWrapsLikeJava) {
  auto r = RunMethod("int f() { int x = 2147483647; x += 1; return x; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), -2147483648LL);
}

TEST(InterpreterTest, TernaryAndShortCircuit) {
  auto r = RunMethod("int f(int x) { return x > 0 && 10 / x > 1 ? 1 : 0; }", "f",
               {Value::Int(0)});
  ASSERT_TRUE(r.ok());  // Short circuit avoids the division by zero.
  EXPECT_EQ(r->return_value.AsInt(), 0);
}

TEST(InterpreterTest, IncrementSemantics) {
  auto r = RunMethod("int f() { int i = 5; int a = i++; int b = ++i; "
               "return a * 100 + b * 10 + i; }",
               "f", {});
  ASSERT_TRUE(r.ok());
  // a = 5, b = 7, i = 7.
  EXPECT_EQ(r->return_value.AsInt(), 5 * 100 + 7 * 10 + 7);
}

TEST(InterpreterTest, ScannerReadsInMemoryFile) {
  const char* kProgram = R"(
    void f() {
      Scanner s = new Scanner(new File("data.txt"));
      int sum = 0;
      while (s.hasNextInt()) {
        sum += s.nextInt();
      }
      s.close();
      System.out.println(sum);
    })";
  EXPECT_EQ(RunStdout(kProgram, "f", {}, {{"data.txt", "1 2 3 4 5"}}),
            "15\n");
}

TEST(InterpreterTest, ScannerMixedTokens) {
  const char* kProgram = R"(
    void f() {
      Scanner s = new Scanner(new File("r.txt"));
      String name = s.next();
      int year = s.nextInt();
      System.out.println(name + ":" + year);
    })";
  EXPECT_EQ(RunStdout(kProgram, "f", {}, {{"r.txt", "usain 2008"}}),
            "usain:2008\n");
}

TEST(InterpreterTest, ScannerMissingFileIsError) {
  auto unit = java::Parse(
      "void f() { Scanner s = new Scanner(new File(\"no.txt\")); }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  auto r = interp.Call("f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FileNotFoundException"),
            std::string::npos);
}

TEST(InterpreterTest, ScannerExhaustionIsError) {
  auto unit = java::Parse(
      "void f() { Scanner s = new Scanner(new File(\"d\")); s.next(); "
      "s.next(); }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit, {{"d", "only_one"}});
  auto r = interp.Call("f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NoSuchElementException"),
            std::string::npos);
}

TEST(InterpreterTest, ScannersOnOneFileKeepTheirOwnPositions) {
  // Scanners on one file share its tokens but not their positions, in one
  // Call and across Calls.
  auto unit = java::Parse(R"(
    String f() {
      Scanner a = new Scanner(new File("d"));
      String first = a.next();
      Scanner b = new Scanner(new File("d"));
      return first + b.next() + a.next() + b.next();
    }
    void g() {
      Scanner a = new Scanner(new File("d"));
      Scanner b = new Scanner(new File("d"));
    })");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit, {{"d", "x yy"}});
  for (int call = 0; call < 2; ++call) {
    auto r = interp.Call("f", {});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->return_value.AsString(), "xxyyyy");
    // Each Scanner is charged the whole token buffer, whether it split the
    // file or reused the tokens.
    auto heap = interp.Call("g", {});
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_EQ(heap->heap_bytes, 2 * (88 + (1 + 32) + (2 + 32)));
  }
}

TEST(InterpreterTest, StringEqualsAndLength) {
  auto r = RunMethod(
      "boolean f(String a, String b) { return a.equals(b) && "
      "a.length() == 3; }",
      "f", {Value::Str("abc"), Value::Str("abc")});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->return_value.AsBool());
}

TEST(InterpreterTest, Figure2bCorrectSubmission) {
  const char* kSource = R"(
    void assignment1(int[] a) {
      int o = 0, e = 1;
      int i = 0;
      while (i < a.length) {
        if (i % 2 == 1)
          o += a[i];
        if (i % 2 == 0)
          e *= a[i];
        i++;
      }
      System.out.print(o + ", " + e);
    })";
  // a = {3, 5, 2, 4}: odd positions 5 + 4 = 9, even positions 3 * 2 = 6.
  EXPECT_EQ(RunStdout(kSource, "assignment1",
                      {Value::IntArray({3, 5, 2, 4})}),
            "9, 6");
}

TEST(InterpreterTest, Figure2aIncorrectSubmissionOutOfBounds) {
  const char* kSource = R"(
    void assignment1(int[] a) {
      int even = 0;
      int odd = 0;
      for (int i = 0; i <= a.length; i++) {
        if (i % 2 == 1)
          odd += a[i];
        if (i % 2 == 1)
          even *= a[i];
      }
      System.out.println(odd);
      System.out.println(even);
    })";
  auto unit = java::Parse(kSource);
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  // With an odd-length array the final iteration (i == a.length, odd)
  // dereferences a[a.length] and throws; with an even-length array the
  // submission is merely wrong (even stays 0), not crashing.
  auto r = interp.Call("assignment1", {Value::IntArray({3, 5, 2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  auto r2 = interp.Call("assignment1", {Value::IntArray({3, 5, 2, 4})});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stdout_text, "9\n0\n");
}

TEST(InterpreterTest, LastCallStepsCoverFailedCalls) {
  auto unit = java::Parse(
      "int ok() { return 1; }\n"
      "void spin() { while (true) { } }\n"
      "int crash() { int z = 0; return 1 / z; }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  ExecOptions options;
  options.max_steps = 1000;
  auto ok = interp.Call("ok", {}, options);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(interp.last_call_steps(), ok->steps);
  auto spin = interp.Call("spin", {}, options);
  ASSERT_EQ(spin.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(interp.last_call_steps(), 1000);
  auto crash = interp.Call("crash", {}, options);
  ASSERT_EQ(crash.status().code(), StatusCode::kExecutionError);
  // block, decl, 0, return, /, 1, z
  EXPECT_EQ(interp.last_call_steps(), 7);
  auto missing = interp.Call("nope", {}, options);
  ASSERT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(interp.last_call_steps(), 0);
}

TEST(InterpreterTest, StepsAreReported) {
  auto r = RunMethod("void f() { for (int i = 0; i < 100; i++) { } }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->steps, 100);
}


// --- Scoping the parser accepts but javac rejects ---------------------------
// Locals are scoped dynamically: a declaration binds in the innermost open
// scope (a block, a for statement, a switch body, or the method's parameter
// scope), and a name reads the innermost binding that is live right now.
// These cases pin that behaviour, including where it departs from Java.

TEST(InterpreterScopingTest, DeclarationAsBareIfOrElseBodyLeaksOutward) {
  auto r = RunMethod("int f() { if (true) int x = 5; return x; }", "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 5);
  auto r2 = RunMethod(
      "int f() { if (false) int y = 1; else int x = 7; return x; }", "f", {});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->return_value.AsInt(), 7);
}

TEST(InterpreterScopingTest, DeclarationAsBareWhileBodyRebindsEachIteration) {
  auto r = RunMethod(
      "int f() { int i = 0; while (i < 3) int x = i++; return x; }", "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 2);
}

TEST(InterpreterScopingTest, DeclarationAsBareForBodyDiesWithTheForScope) {
  auto inside = RunMethod(
      "int f() { int s = 0; for (int i = 0; i < 3; i += 1) int x = i * 10; "
      "return s; }",
      "f", {});
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  auto after = RunMethod(
      "int f() { for (int i = 0; i < 3; i++) int x = i * 10; return x; }",
      "f", {});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(after.status().message(), "undefined variable 'x' (line 1)");
}

TEST(InterpreterScopingTest, RedeclarationInSameScopeOverwrites) {
  auto r = RunMethod("int f() { int x = 1; int x = 2; return x; }", "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 2);
  // Redeclaring a parameter in the body block shadows it instead.
  auto p = RunMethod("int f(int x) { int x = x + 1; return x; }", "f",
                     {Value::Int(4)});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->return_value.AsInt(), 5);
}

TEST(InterpreterScopingTest, InnerBlockShadowsOuterLocal) {
  auto r = RunMethod(
      "int f() { int x = 1; int seen = 0; { int x = 2; x = x + 10; "
      "seen = x; } return x * 100 + seen; }",
      "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 112);
}

TEST(InterpreterScopingTest, ReadBeforeDeclarationInReenteredLoopBlock) {
  // Each iteration enters a fresh block scope, so the read before the inner
  // declaration sees the outer y every time, never last iteration's inner y.
  auto r = RunMethod(
      "int f() { int y = 100; int s = 0; "
      "for (int i = 0; i < 3; i++) { s += y; int y = i; s += y; } "
      "return s; }",
      "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 303);
  // Without an outer y the second iteration's read is undefined, exactly
  // like the first one.
  auto undefined = RunMethod(
      "int f() { int s = 0; "
      "for (int i = 0; i < 3; i++) { if (i > 0) s += y; int y = i; } "
      "return s; }",
      "f", {});
  ASSERT_FALSE(undefined.ok());
  EXPECT_EQ(undefined.status().message(), "undefined variable 'y' (line 1)");
}

TEST(InterpreterScopingTest, CalleeDoesNotSeeCallerLocals) {
  auto r = RunMethod(
      "int g() { return x; }\nint f() { int x = 5; return g(); }", "f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(r.status().message(), "undefined variable 'x' (line 1)");
  // ...and the caller's locals survive the call.
  auto kept = RunMethod(
      "int g(int x) { x = 99; int y = 7; return y; }\n"
      "int f() { int x = 5; int y = g(x); return x * 10 + y; }",
      "f", {});
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->return_value.AsInt(), 57);
}

TEST(InterpreterScopingTest, RecursiveFramesKeepTheirOwnLocals) {
  auto r = RunMethod(
      "int f(int n) { int x = n; if (n > 0) { int r = f(n - 1); x += r; } "
      "return x; }",
      "f", {Value::Int(4)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->return_value.AsInt(), 10);
}

TEST(InterpreterScopingTest, StepCountsOfScopingCasesArePinned) {
  // One tick per executed statement, per evaluated expression and per loop
  // iteration: these totals are part of the grading contract.
  auto loop = RunMethod(
      "int f() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } "
      "return s; }",
      "f", {});
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->steps, 45);
  auto call = RunMethod("int g(int x) { return x; }\nint f() { return g(1); }",
                        "f", {});
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->steps, 7);
}

}  // namespace
}  // namespace jfeed::interp
