#ifndef JFEED_INTERP_INTERPRETER_H_
#define JFEED_INTERP_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/value.h"
#include "javalang/ast.h"
#include "support/result.h"

namespace jfeed::interp {

/// One recorded variable assignment (used by the CLARA-style baseline,
/// which compares whole variable traces).
struct TraceEvent {
  std::string var;
  std::string value;  ///< Java rendering of the assigned value.
};

/// Limits applied to one execution; the step limit is the paper's answer to
/// the infinite-loop problem of dynamic techniques (we bound, they cannot).
///
/// The remaining guards exist because a production grading service runs
/// *untrusted* programs: a submission must not be able to exhaust the host's
/// memory (`max_heap_bytes`), flood its output channel (`max_output_bytes`)
/// or outlive its scheduling slot (`deadline_ms`) any more than it can spin
/// forever (`max_steps`). Time budgets report kTimeout; space budgets (heap,
/// output, call depth) report kResourceExhausted, so callers can tell "slow"
/// from "blew up".
struct ExecOptions {
  int64_t max_steps = 2'000'000;  ///< Statement/expression budget.
  /// When non-null, every scalar variable assignment (declaration,
  /// assignment, increment) is appended here — the "variable traces" of
  /// Gulwani et al. Tracing is what makes dynamic comparison expensive on
  /// large inputs, which the CLARA benches demonstrate.
  std::vector<TraceEvent>* trace = nullptr;
  int64_t max_trace_events = 10'000'000;  ///< Hard cap on recorded events.
  /// Budget for interpreter-visible heap allocations (arrays, Strings,
  /// Scanner token buffers), charged via ApproxHeapBytes at allocation
  /// sites. The count is cumulative over the run (never decremented on
  /// garbage), which makes it a conservative allocation budget rather than
  /// a live-set measure. 0 or negative = unlimited.
  int64_t max_heap_bytes = 512ll << 20;
  /// Budget for bytes printed via System.out. 0 or negative = unlimited.
  int64_t max_output_bytes = 64ll << 20;
  /// Wall-clock deadline for the whole Call, in milliseconds; checked every
  /// few thousand steps so the overhead stays negligible. 0 = no deadline.
  int64_t deadline_ms = 0;
};

/// Outcome of a successful execution.
struct ExecResult {
  std::string stdout_text;  ///< Everything printed via System.out.
  Value return_value;       ///< Value::Null() for void methods.
  int64_t steps = 0;        ///< Steps consumed (for trace-cost accounting).
  /// Heap bytes charged over the run (cumulative allocation budget spend,
  /// the same number ChargeHeap guards) — surfaced for observability.
  int64_t heap_bytes = 0;
  /// Bytes printed via System.out (== stdout_text.size(), precomputed so
  /// monitoring does not depend on the caller keeping the text around).
  int64_t output_bytes = 0;
};

/// The unit's method bodies lowered to interpreter-owned nodes (defined in
/// interpreter.cc).
struct LoweredUnit;

/// A tree-walking interpreter for the Java subset. One instance wraps one
/// compilation unit; methods of the unit can call each other. "Files" opened
/// through `new Scanner(new File(name))` are resolved against `files`, an
/// in-memory name -> contents map (the simulation of summer_olympics.txt).
///
/// The first Call lowers every method body once into nodes that mirror the
/// AST one to one, with local names resolved to dense ids and calls to
/// method indices or builtin ids, so executing a step compares no strings
/// (DESIGN.md §3e). The AST itself is only read.
///
/// Supported built-ins: System.out.print/println, Math.{pow,abs,sqrt,floor,
/// ceil,log,log10,max,min}, Integer.parseInt, String.{equals,length,charAt,
/// isEmpty}, Scanner.{hasNext,hasNextInt,next,nextInt,nextDouble,close}.
class Interpreter {
 public:
  explicit Interpreter(const java::CompilationUnit& unit,
                       std::map<std::string, std::string> files = {});
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Runs `method_name` with `args`. Returns ExecutionError for Java runtime
  /// errors (array out of bounds, division by zero, ...), Timeout when a
  /// time budget is exhausted (step budget / wall-clock deadline),
  /// ResourceExhausted when a space budget is (heap bytes, output bytes,
  /// call depth), NotFound for a missing method, SemanticError for
  /// constructs outside the subset.
  Result<ExecResult> Call(const std::string& method_name,
                          const std::vector<Value>& args,
                          const ExecOptions& options = ExecOptions());

  /// Steps consumed by the most recent Call, whatever its outcome: equal to
  /// ExecResult::steps on success, exactly `max_steps` when the step budget
  /// killed the call, and the steps run before the failure otherwise.
  int64_t last_call_steps() const { return last_call_steps_; }

 private:
  const java::CompilationUnit& unit_;
  std::map<std::string, std::string> files_;
  /// Scanner tokens per file, split by the first `new Scanner` on it.
  std::map<std::string, std::shared_ptr<const std::vector<std::string>>>
      scanner_tokens_;
  std::unique_ptr<LoweredUnit> lowered_;  ///< Built by the first Call.
  int64_t last_call_steps_ = 0;
};

/// Splits file contents into whitespace-separated Scanner tokens.
std::vector<std::string> TokenizeScannerInput(const std::string& contents);

}  // namespace jfeed::interp

#endif  // JFEED_INTERP_INTERPRETER_H_
