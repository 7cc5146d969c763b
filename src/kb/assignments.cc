#include "kb/assignments.h"

#include <cstdio>
#include <cstdlib>

#include "kb/embedded.h"
#include "kb/serialization.h"

namespace jfeed::kb {

using interp::Value;
using synth::SubmissionTemplate;

namespace {

// Assignment 1 — odd/even positions of an array (Sec. III, Table I row 1).
Assignment BuildAssignment1() {
  Assignment a;
  a.id = "assignment1";
  a.description =
      "Given an input array, add odd positions and multiply even positions "
      "in the array; print both results to console. Header: void "
      "assignment1(int[] a).";
  a.paper_discrepancies = 24;

  a.generator = SubmissionTemplate(
      "void assignment1(int[] a) {\n"
      "  int ${init_odd};\n"
      "  int ${init_even};\n"
      "  for (int i = ${odd_start}; ${odd_bound}; ${odd_step})\n"
      "    if (${odd_cond})\n"
      "      ${odd_op};\n"
      "  for (int j = ${even_start}; ${even_bound}; ${even_step})\n"
      "    if (${even_cond})\n"
      "      ${even_op};\n"
      "  System.out.println(${print_first});\n"
      "  System.out.println(${print_second});\n"
      "}\n",
      {
          {"init_odd", {"o = 0", "o = 1"}},
          {"init_even", {"e = 1", "e = 0"}},
          {"odd_start", {"0", "1"}},
          {"odd_bound", {"i < a.length", "i <= a.length"}},
          {"odd_step", {"i++", "i += 2"}},
          {"odd_cond",
           {"i % 2 == 1", "i % 2 == 0", "i % 2 != 0", "i % 3 == 1",
            "i % 2 == 2"}},
          {"odd_op",
           {"o += a[i]", "o *= a[i]", "o += i", "o -= a[i]",
            "o += a[i] + 1"}},
          {"even_start", {"0", "1"}},
          {"even_bound", {"j < a.length", "j <= a.length"}},
          {"even_step", {"j++", "j += 2"}},
          {"even_cond",
           {"j % 2 == 0", "j % 2 == 1", "j % 2 != 1", "j % 3 == 0",
            "j % 2 == 2"}},
          {"even_op",
           {"e *= a[j]", "e += a[j]", "e *= j", "e *= a[j] + 1",
            "e /= a[j]"}},
          {"print_first", {"o", "e"}},
          {"print_second", {"e", "o"}},
      });

  a.suite.method = "assignment1";
  a.suite.inputs = {
      {Value::IntArray({})},
      {Value::IntArray({3})},
      {Value::IntArray({3, 5, 2, 4})},
      {Value::IntArray({1, 2, 3, 4, 5, 6})},
      {Value::IntArray({2, 7, 1, 8, 2, 8, 1})},
  };

  return a;
}

// esc-LAB-3-P1-V1 — print n with n! <= k < (n+1)!.
Assignment BuildP1V1() {
  Assignment a;
  a.id = "esc-LAB-3-P1-V1";
  a.description =
      "Print to console the number n such that n! <= k < (n+1)! taking the "
      "number k as input.";
  a.paper_discrepancies = 8;

  a.generator = SubmissionTemplate(
      "void lab3p1v1(int k) {\n"
      "  int ${init_n};\n"
      "  long ${init_f};\n"
      "  while (${bound}) {\n"
      "    ${inc};\n"
      "    ${mul};\n"
      "    ${extra}\n"
      "  }\n"
      "  ${guard}\n"
      "  ${print_call};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"init_n", {"n = 0", "n = 1", "n = 2", "n = -1"}},
          {"init_f", {"f = 1", "f = 0", "f = 2", "f = k"}},
          {"bound",
           {"f * (n + 1) <= k", "f * (n + 1) - 1 < k", "f * n <= k",
            "f * (n + 1) < k"}},
          {"inc", {"n++", "n = n + 1", "n += 2", "n--"}},
          {"mul", {"f *= n", "f = f * n", "f *= n + 1", "f += n"}},
          {"extra",
           {"", "if (f < 0) break;", "if (n > 100) break;",
            "if (n == -999) break;"}},
          {"p_expr", {"n", "f", "n + 1", "n - 1"}},
          {"print_call",
           {"System.out.println(${p_expr})", "System.out.print(${p_expr})",
            "System.out.println(\"n = \" + ${p_expr})"}},
          {"guard", {"", "if (n < 0) n = 0;", "n = 0;"}},
          {"tail", {"", "int unused = 9;", "int extra2 = 9;"}},
      });

  a.suite.method = "lab3p1v1";
  a.suite.inputs = {{Value::Int(1)},  {Value::Int(2)},   {Value::Int(6)},
                    {Value::Int(7)},  {Value::Int(24)},  {Value::Int(100)},
                    {Value::Int(719)}, {Value::Int(720)}};

  return a;
}

// esc-LAB-3-P2-V1 — same bound search on the Fibonacci sequence.
Assignment BuildP2V1() {
  Assignment a;
  a.id = "esc-LAB-3-P2-V1";
  a.description =
      "Print to console the number n such that fib(n) <= k < fib(n+1), "
      "with the Fibonacci sequence 1, 1, 2, 3, ...";
  a.paper_discrepancies = 592;

  a.generator = SubmissionTemplate(
      "void lab3p2v1(int k) {\n"
      "  int ${init_n};\n"
      "  long ${init_a};\n"
      "  long ${init_b};\n"
      "  while (${bound}) {\n"
      "    long ${t_stmt};\n"
      "    ${rot_a};\n"
      "    ${rot_b};\n"
      "    ${inc};\n"
      "    ${extra}\n"
      "  }\n"
      "  ${guard}\n"
      "  ${print_call};\n"
      "}\n",
      {
          {"init_n", {"n = 1", "n = 0", "n = 2", "n = -1"}},
          {"init_a", {"a = 1", "a = 0", "a = 2", "a = k"}},
          {"init_b", {"b = 1", "b = 0", "b = 2", "b = a + 1"}},
          {"bound", {"b <= k", "b - 1 < k", "b < k", "a <= k"}},
          {"t_stmt", {"t = a + b", "t = b + a", "t = a + b + 1", "t = a - b"}},
          {"rot_a", {"a = b", "a = t", "a = a", "a = b + 0"}},
          {"rot_b", {"b = t", "b = a", "b = t + 0", "b = b"}},
          {"inc", {"n++", "n = n + 1", "n += 2", "n--"}},
          {"p_expr", {"n", "b", "n + 1", "n - 1"}},
          {"print_call",
           {"System.out.println(${p_expr})", "System.out.print(${p_expr})",
            "System.out.println(\"n = \" + ${p_expr})"}},
          {"extra", {"", "if (b < 0) break;", "if (b == -1) break;"}},
          {"guard", {"", "if (n < 0) n = 0;", "n = 0;"}},
      });

  a.suite.method = "lab3p2v1";
  a.suite.inputs = {{Value::Int(1)},  {Value::Int(2)},  {Value::Int(3)},
                    {Value::Int(5)},  {Value::Int(7)},  {Value::Int(21)},
                    {Value::Int(100)}, {Value::Int(10946)}};

  return a;
}

// esc-LAB-3-P2-V2 — "special number": sum of cubes of digits equals number.
Assignment BuildP2V2() {
  Assignment a;
  a.id = "esc-LAB-3-P2-V2";
  a.description =
      "A number is special when the sum of cubes of its digits is equal to "
      "the number itself. Print whether k is special.";
  a.paper_discrepancies = 0;

  a.generator = SubmissionTemplate(
      "void lab3p2v2(int k) {\n"
      "  int n = k;\n"
      "  int sum = 0;\n"
      "  while (${bound}) {\n"
      "    int d = ${digit};\n"
      "    ${accum};\n"
      "    n = n / 10;\n"
      "  }\n"
      "  ${print};\n"
      "}\n",
      {
          {"digit", {"n % 10", "n % 100", "n / 10", "n % 10 + 1"}},
          {"accum",
           {"sum += d * d * d", "sum = sum + d * d * d", "sum += d * d",
            "sum += d"}},
          {"bound", {"n > 0", "n != 0", "n >= 1"}},
          {"print",
           {"System.out.println(sum == k)", "System.out.print(sum == k)",
            "System.out.println(sum)"}},
      });

  a.suite.method = "lab3p2v2";
  a.suite.inputs = {{Value::Int(153)}, {Value::Int(7)},   {Value::Int(371)},
                    {Value::Int(12)},  {Value::Int(100)}, {Value::Int(407)},
                    {Value::Int(1)},   {Value::Int(9474)}};

  return a;
}

// esc-LAB-3-P3-V1 — difference of a positive number and its reverse.
Assignment BuildP3V1() {
  Assignment a;
  a.id = "esc-LAB-3-P3-V1";
  a.description =
      "Find the difference of a positive number and its reverse and print "
      "it to console.";
  a.paper_discrepancies = 1;

  a.generator = SubmissionTemplate(
      "void lab3p3v1(int k) {\n"
      "  int n = k;\n"
      "  ${pre}\n"
      "  int ${init_rev};\n"
      "  while (${bound}) {\n"
      "    rev = ${rev_op};\n"
      "    n = ${n_op};\n"
      "    ${loop_extra}\n"
      "  }\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"init_rev", {"rev = 0", "rev = 1", "rev = k"}},
          {"bound", {"n > 0", "n != 0", "n >= 1"}},
          {"rev_op",
           {"rev * 10 + n % 10", "rev * 10 + n % 10 + 0", "rev + n % 10",
            "rev * 10 + n / 10"}},
          {"n_op", {"n / 10", "(n - n % 10) / 10", "n / 100", "n - 10"}},
          {"loop_extra", {"", "if (rev < 0) break;", "if (n < 0) break;"}},
          {"print",
           {"System.out.println(k - rev)", "System.out.print(k - rev)",
            "System.out.println(rev - k)", "System.out.println(k)"}},
          {"tail", {"", "int unused = 9;"}},
          {"pre", {"", "int digits = 9;", "int tmp = 9;"}},
      });

  a.suite.method = "lab3p3v1";
  a.suite.inputs = {{Value::Int(123)}, {Value::Int(7)},   {Value::Int(100)},
                    {Value::Int(54)},  {Value::Int(9000)}, {Value::Int(11)},
                    {Value::Int(120)}};

  return a;
}

// esc-LAB-3-P3-V2 — count factorial numbers in [n, m].
Assignment BuildP3V2() {
  Assignment a;
  a.id = "esc-LAB-3-P3-V2";
  a.description =
      "Given numbers n and m, print to console the count of factorial "
      "numbers in [n, m].";
  a.paper_discrepancies = 4;

  a.generator = SubmissionTemplate(
      "void lab3p3v2(int n, int m) {\n"
      "  int ${init_count};\n"
      "  long ${init_f};\n"
      "  int ${init_i};\n"
      "  while (${bound}) {\n"
      "    if (${member})\n"
      "      ${count_op};\n"
      "    ${inc};\n"
      "    ${mul};\n"
      "  }\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"init_count", {"count = 0", "count = 1", "count = -1",
                          "count = n"}},
          {"init_f", {"f = 1", "f = 0", "f = 2", "f = n"}},
          {"init_i", {"i = 1", "i = 0", "i = 2", "i = -1"}},
          {"bound", {"f <= m", "f < m", "f - 1 < m", "f <= m - 1"}},
          {"member", {"f >= n", "f > n - 1", "f > n", "f >= n + 1"}},
          {"count_op",
           {"count += 1", "count++", "count = count + 1", "count += 2"}},
          {"inc", {"i++", "i = i + 1", "i += 2", "i--"}},
          {"mul", {"f *= i", "f = f * i", "f *= i + 1", "f += i"}},
          {"print",
           {"System.out.println(count)", "System.out.print(count)",
            "System.out.println(count + 1)"}},
          {"tail", {"", "int unused = 9;", "int extra = 9;"}},
      });

  a.suite.method = "lab3p3v2";
  a.suite.inputs = {
      {Value::Int(1), Value::Int(15)}, {Value::Int(2), Value::Int(2)},
      {Value::Int(3), Value::Int(730)}, {Value::Int(1), Value::Int(1)},
      {Value::Int(7), Value::Int(23)}, {Value::Int(1), Value::Int(5040)},
      {Value::Int(25), Value::Int(100)}};

  return a;
}

// esc-LAB-3-P4-V1 — palindrome check.
Assignment BuildP4V1() {
  Assignment a;
  a.id = "esc-LAB-3-P4-V1";
  a.description = "Check if a given number k is a palindrome.";
  a.paper_discrepancies = 1;

  a.generator = SubmissionTemplate(
      "void lab3p4v1(int k) {\n"
      "  int n = k;\n"
      "  ${pre}\n"
      "  int ${init_rev};\n"
      "  while (${bound}) {\n"
      "    rev = ${rev_op};\n"
      "    n = ${n_op};\n"
      "    ${loop_extra}\n"
      "  }\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"init_rev", {"rev = 0", "rev = 1", "rev = k", "rev = -1"}},
          {"bound", {"n > 0", "n != 0", "n >= 1"}},
          {"rev_op",
           {"rev * 10 + n % 10", "rev * 10 + n % 10 + 0", "rev + n % 10",
            "rev * 10 + n / 10"}},
          {"n_op", {"n / 10", "(n - n % 10) / 10", "n / 100", "n - 10"}},
          {"loop_extra", {"", "if (rev < 0) break;", "if (n < 0) break;"}},
          {"print",
           {"System.out.println(rev == k)", "System.out.print(rev == k)",
            "System.out.println(k == rev)", "System.out.println(rev)"}},
          {"tail", {"", "int unused = 9;"}},
          {"pre", {"", "int digits = 9;", "int tmp = 9;"}},
      });

  a.suite.method = "lab3p4v1";
  a.suite.inputs = {{Value::Int(121)},  {Value::Int(123)}, {Value::Int(7)},
                    {Value::Int(1221)}, {Value::Int(10)},  {Value::Int(11)},
                    {Value::Int(12321)}};

  return a;
}

// esc-LAB-3-P4-V2 — count Fibonacci numbers in [n, m].
Assignment BuildP4V2() {
  Assignment a;
  a.id = "esc-LAB-3-P4-V2";
  a.description =
      "Given numbers n and m, print to console the count of Fibonacci "
      "numbers in [n, m] (sequence 1, 1, 2, 3, ...).";
  a.paper_discrepancies = 248;

  a.generator = SubmissionTemplate(
      "void lab3p4v2(int n, int m) {\n"
      "  int ${init_count};\n"
      "  long ${init_a};\n"
      "  long ${init_b};\n"
      "  int i = 1;\n"
      "  while (${bound}) {\n"
      "    if (${member})\n"
      "      ${count_op};\n"
      "    long ${t_stmt};\n"
      "    ${rot_a};\n"
      "    ${rot_b};\n"
      "    ${inc};\n"
      "  }\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"init_count", {"count = 0", "count = 1", "count = -1",
                          "count = n"}},
          {"init_a", {"a = 1", "a = 0", "a = 2", "a = n"}},
          {"init_b", {"b = 1", "b = 0", "b = 2", "b = a + 1"}},
          {"bound", {"a <= m", "a < m", "a - 1 < m", "a <= m - 1"}},
          {"member", {"a >= n", "a > n - 1", "a > n", "a >= n + 1"}},
          {"count_op",
           {"count += 1", "count++", "count = count + 1", "count += 2"}},
          {"t_stmt", {"t = a + b", "t = b + a", "t = a + b + 1", "t = a - b"}},
          {"rot_a", {"a = b", "a = t", "a = a", "a = b + 0"}},
          {"rot_b", {"b = t", "b = a", "b = t + 0", "b = b"}},
          {"inc", {"i++", "i = i + 1", "i += 2", "i--"}},
          {"print",
           {"System.out.println(count)", "System.out.print(count)",
            "System.out.println(count + 1)"}},
          {"tail", {"", "int unused = 9;", "int extra = 9;"}},
      });

  a.suite.method = "lab3p4v2";
  a.suite.inputs = {
      {Value::Int(1), Value::Int(5)},   {Value::Int(2), Value::Int(2)},
      {Value::Int(3), Value::Int(100)}, {Value::Int(1), Value::Int(1)},
      {Value::Int(7), Value::Int(23)},  {Value::Int(10), Value::Int(10946)},
      {Value::Int(4), Value::Int(4)}};

  return a;
}

// mitx-derivatives — derivative coefficients of a polynomial.
Assignment BuildDerivatives() {
  Assignment a;
  a.id = "mitx-derivatives";
  a.description =
      "Compute the derivative of an input polynomial represented by an "
      "array of coefficients; print the derivative coefficients.";
  a.paper_discrepancies = 0;

  a.generator = SubmissionTemplate(
      "void derivatives(double[] a) {\n"
      "  double[] b = new double[${alloc}];\n"
      "  for (int i = ${d_start}; ${d_bound}; i++)\n"
      "    ${shift};\n"
      "  for (int j = 0; ${p_bound}; j++)\n"
      "    System.out.println(b[j]);\n"
      "}\n",
      {
          {"alloc",
           {"a.length - 1", "a.length", "a.length + 1", "a.length - 2"}},
          {"d_start", {"1", "0", "2"}},
          {"d_bound",
           {"i < a.length", "i <= a.length", "i < a.length - 1",
            "i < b.length"}},
          {"shift",
           {"b[i - 1] = a[i] * i", "b[i] = a[i] * i", "b[i - 1] = a[i]",
            "b[i - 1] = a[i] * (i - 1)"}},
          {"p_bound", {"j < b.length", "j <= b.length", "j < a.length"}},
      });

  a.suite.method = "derivatives";
  a.suite.inputs = {
      {Value::DoubleArray({3.0, 2.0})},
      {Value::DoubleArray({1.0, 4.0, 9.0})},
      {Value::DoubleArray({5.0, 0.0, 1.0, 2.0})},
      {Value::DoubleArray({-1.0, 2.5, -3.0, 0.5, 4.0})},
  };

  return a;
}

// mitx-polynomials — evaluate a polynomial at a value.
Assignment BuildPolynomials() {
  Assignment a;
  a.id = "mitx-polynomials";
  a.description =
      "Compute the value of a polynomial (array of coefficients) at a "
      "given value x; print the result.";
  a.paper_discrepancies = 0;

  a.generator = SubmissionTemplate(
      "void polynomial(double[] a, double x) {\n"
      "  double ${init_r};\n"
      "  for (int i = ${p_start}; ${p_bound}; ${p_inc})\n"
      "    ${term};\n"
      "  System.out.println(r);\n"
      "}\n",
      {
          {"init_r", {"r = 0.0", "r = 1.0", "r = x", "r = -1.0"}},
          {"p_start", {"0", "1", "2", "-1"}},
          {"p_bound",
           {"i < a.length", "i <= a.length", "i < a.length - 1",
            "i < a.length + 1"}},
          {"term",
           {"r += a[i] * Math.pow(x, i)", "r = r + a[i] * Math.pow(x, i)",
            "r += a[i] * Math.pow(i, x)", "r += a[i] * x"}},
          {"p_inc", {"i++", "i += 1", "i += 2"}},
      });

  a.suite.method = "polynomial";
  a.suite.inputs = {
      {Value::DoubleArray({3.0, 2.0}), Value::Double(2.0)},
      {Value::DoubleArray({1.0, 0.0, 1.0}), Value::Double(3.0)},
      {Value::DoubleArray({5.0}), Value::Double(10.0)},
      {Value::DoubleArray({-1.0, 2.0, -3.0, 4.0}), Value::Double(0.5)},
  };

  return a;
}

constexpr int kOlympicsRecords = 60;
constexpr uint64_t kOlympicsSeed = 20170419;

// rit-all-g-medals — count gold medals of a year (Fig. 7's assignment).
Assignment BuildGoldMedals() {
  Assignment a;
  a.id = "rit-all-g-medals";
  a.description =
      "Count all the gold medals awarded in a given year in the Summer "
      "Olympic Games (records: first last medal year separator).";
  a.paper_discrepancies = 1872;

  a.generator = SubmissionTemplate(
      "void countGoldMedals(int year) {\n"
      "  int i = ${i_init};\n"
      "  int medals = 0;\n"
      "  int p = 0;\n"
      "  int y = 0;\n"
      "  String e = \"\";\n"
      "  Scanner s = new Scanner(new File(\"summer_olympics.txt\"));\n"
      "  while (s.hasNext()) {\n"
      "    if (${fn_cond})\n"
      "      e = s.next();\n"
      "    if (${ln_cond})\n"
      "      e = s.next();\n"
      "    if (${medal_cond})\n"
      "      p = s.nextInt();\n"
      "    if (${year_cond})\n"
      "      y = s.nextInt();\n"
      "    if (${sep_cond})\n"
      "      e = s.next();\n"
      "    if (${filter})\n"
      "      ${count_op};\n"
      "    ${extra}\n"
      "    i++;\n"
      "  }\n"
      "  s.close();\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"i_init", {"1", "0", "2"}},
          {"fn_cond",
           {"i % 5 == 1", "i % 5 == 2", "i % 5 == 3", "i % 5 == 0"}},
          {"ln_cond",
           {"i % 5 == 2", "i % 5 == 1", "i % 5 == 4", "i % 5 == 0"}},
          {"medal_cond",
           {"i % 5 == 3", "i % 5 == 4", "i % 5 == 1", "i % 5 == 2"}},
          {"year_cond",
           {"i % 5 == 4", "i % 5 == 3", "i % 5 == 2", "i % 5 == 0"}},
          {"sep_cond", {"i % 5 == 0", "i % 5 == 1", "i % 5 == 4"}},
          {"filter",
           {"i % 5 == 0 && y == year && p == 1",
            "i % 5 == 0 && p == 1 && y == year", "y == year && p == 1"}},
          {"count_op", {"medals += 1", "medals++", "medals = medals + 1"}},
          {"print",
           {"System.out.println(medals)", "System.out.print(medals)",
            "System.out.println(medals + 1)"}},
          {"extra", {"", "if (p < 0) break;", "if (i < 0) break;"}},
          {"tail", {"", "int unused = 9;", "int extra2 = 9;"}},
      });

  a.suite.method = "countGoldMedals";
  a.suite.files["summer_olympics.txt"] =
      testing::GenerateOlympicsFile(kOlympicsRecords, kOlympicsSeed);
  a.suite.inputs = {{Value::Int(1912)}, {Value::Int(1924)},
                    {Value::Int(1984)}, {Value::Int(1996)},
                    {Value::Int(2000)}, {Value::Int(2016)}};

  return a;
}

// rit-medals-by-ath — count medals of a given athlete.
Assignment BuildMedalsByAthlete() {
  Assignment a;
  a.id = "rit-medals-by-ath";
  a.description =
      "Count all the medals awarded to a given athlete in the Summer "
      "Olympic Games.";
  a.paper_discrepancies = 744;

  a.generator = SubmissionTemplate(
      "void medalsByAthlete(String first, String last) {\n"
      "  int i = ${i_init};\n"
      "  int medals = 0;\n"
      "  int m = 0;\n"
      "  String fn = \"\";\n"
      "  String ln = \"\";\n"
      "  String e = \"\";\n"
      "  Scanner s = new Scanner(new File(\"summer_olympics.txt\"));\n"
      "  while (s.hasNext()) {\n"
      "    if (${fn_cond})\n"
      "      fn = s.next();\n"
      "    if (${ln_cond})\n"
      "      ln = s.next();\n"
      "    if (${medal_cond})\n"
      "      m = s.nextInt();\n"
      "    if (${year_cond})\n"
      "      e = s.next();\n"
      "    if (${sep_cond})\n"
      "      e = s.next();\n"
      "    if (${filter})\n"
      "      ${count_op};\n"
      "    ${extra}\n"
      "    i++;\n"
      "  }\n"
      "  s.close();\n"
      "  ${print};\n"
      "  ${tail}\n"
      "}\n",
      {
          {"i_init", {"1", "0", "2"}},
          {"fn_cond",
           {"i % 5 == 1", "i % 5 == 2", "i % 5 == 3", "i % 5 == 0"}},
          {"ln_cond",
           {"i % 5 == 2", "i % 5 == 1", "i % 5 == 4", "i % 5 == 0"}},
          {"medal_cond",
           {"i % 5 == 3", "i % 5 == 4", "i % 5 == 1", "i % 5 == 2"}},
          {"year_cond",
           {"i % 5 == 4", "i % 5 == 3", "i % 5 == 2", "i % 5 == 0"}},
          {"sep_cond",
           {"i % 5 == 0", "i % 5 == 1", "i % 5 == 4", "i % 5 == 2"}},
          {"filter",
           {"i % 5 == 0 && fn.equals(first) && ln.equals(last) && m > 0",
            "i % 5 == 0 && ln.equals(last) && fn.equals(first) && m > 0",
            "fn.equals(first) && ln.equals(last)"}},
          {"count_op", {"medals += 1", "medals++", "medals = medals + 1"}},
          {"print",
           {"System.out.println(medals)", "System.out.print(medals)",
            "System.out.println(medals + 1)"}},
          {"extra", {"", "if (m < 0) break;", "if (i < 0) break;"}},
          {"tail", {"", "int unused = 9;", "int extra2 = 9;"}},
      });

  a.suite.method = "medalsByAthlete";
  a.suite.files["summer_olympics.txt"] =
      testing::GenerateOlympicsFile(kOlympicsRecords, kOlympicsSeed);
  a.suite.inputs = {{Value::Str("jesse"), Value::Str("griffith")},
                    {Value::Str("carl"), Value::Str("lewis")},
                    {Value::Str("florence"), Value::Str("bolt")},
                    {Value::Str("katie"), Value::Str("ledecky")},
                    {Value::Str("no"), Value::Str("body")}};

  return a;
}

/// The code-side halves of the Table I assignments, keyed by id; each
/// gets its spec from data/assignments.kb.
std::map<std::string, Assignment> CodeSideAssignments() {
  std::map<std::string, Assignment> out;
  for (Assignment (*build)() :
       {BuildAssignment1, BuildP1V1, BuildP2V1, BuildP2V2, BuildP3V1,
        BuildP3V2, BuildP4V1, BuildP4V2, BuildDerivatives, BuildPolynomials,
        BuildGoldMedals, BuildMedalsByAthlete}) {
    Assignment a = build();
    // Every Table I suite runs under the same per-call step budget.
    a.suite.exec_options.max_steps = 300000;
    out.emplace(a.id, std::move(a));
  }
  return out;
}

}  // namespace

Result<KnowledgeBase> KnowledgeBase::Load(std::string_view text,
                                          const PatternLibrary& library) {
  constexpr std::string_view kFile = "data/assignments.kb";
  JFEED_ASSIGN_OR_RETURN(std::vector<ParsedSpec> specs,
                         ParseSpecs(text, library, kFile));
  std::map<std::string, Assignment> code = CodeSideAssignments();
  KnowledgeBase kb;
  for (ParsedSpec& parsed : specs) {
    auto it = code.find(parsed.spec.id);
    if (it == code.end()) {
      return Status::NotFound(
          std::string(kFile) + ":" + std::to_string(parsed.line) +
          ": assignment '" + parsed.spec.id +
          "' has no generator or suite in kb/assignments.cc");
    }
    Assignment a = std::move(it->second);
    code.erase(it);
    a.spec = std::move(parsed.spec);
    kb.ids_.push_back(a.id);
    kb.assignments_.emplace(a.id, std::move(a));
  }
  if (!code.empty()) {
    return Status::NotFound(std::string(kFile) + ": assignment '" +
                            code.begin()->first +
                            "' of kb/assignments.cc has no spec");
  }
  return kb;
}

const KnowledgeBase& KnowledgeBase::Get() {
  static const KnowledgeBase* kBase = [] {
    auto kb = Load(EmbeddedAssignmentsText(), PatternLibrary::Get());
    if (!kb.ok()) AbortOnMalformedKnowledgeBase(kb.status());
    return new KnowledgeBase(std::move(*kb));
  }();
  return *kBase;
}

const Assignment& KnowledgeBase::assignment(const std::string& id) const {
  auto it = assignments_.find(id);
  if (it == assignments_.end()) {
    std::fprintf(stderr, "unknown assignment id: %s\n", id.c_str());
    std::abort();
  }
  return it->second;
}

}  // namespace jfeed::kb
