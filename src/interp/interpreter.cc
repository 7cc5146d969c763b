#include "interp/interpreter.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "javalang/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"

namespace jfeed::interp {

namespace java = jfeed::java;

std::vector<std::string> TokenizeScannerInput(const std::string& contents) {
  // The six C-locale whitespace bytes separate tokens, as they do for
  // `istream >> string` under the classic locale.
  std::vector<std::string> tokens;
  std::string token;
  for (char c : contents) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      token.push_back(c);
    } else if (!token.empty()) {
      tokens.push_back(std::move(token));
      token.clear();
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

namespace {

// ---------------------------------------------------------------------------
// Lowered program
// ---------------------------------------------------------------------------
//
// Each method body is lowered once per Interpreter into nodes that mirror
// the AST one to one: every LStmt/LExpr stands for exactly one Stmt/Expr
// and runs exactly when that AST node's semantics say it runs, so the step
// count (one tick per executed statement, per evaluated expression and per
// loop iteration) is the AST's by construction. Lowering resolves names
// once: local names become dense per-method slot ids, user calls become
// method indices and builtin calls become operator codes, so no step
// compares or hashes a string. AST children that are never evaluated (the
// `System.out` receiver, the `Math` in `Math.max`) get no lowered node.
// Nodes point back at their AST node for line numbers, names and types,
// which only diagnostics, traces and coercions read.

enum class Op : uint8_t {
  kConst,         // A literal, prebuilt in `constant`.
  kLocal,         // Read of local `slot`.
  kArrayAccess,   // a[b].
  kLength,        // a.length.
  kUnsupported,   // Fails with `what` + " '<name>'" before evaluating anything.
  kBinary,        // `code` is the java::BinaryOp; a op b.
  kUnary,         // `code` is the java::UnaryOp; operand a.
  kAssign,        // `code` is the java::AssignOp; target a, value b.
  kConditional,   // a ? b : c.
  kCast,          // `code` is the target java::TypeKind; operand a.
  kCallUser,      // Call of method `slot` (-1: not in the unit) with args.
  kPrint,         // System.out.print (code 0) / println (code 1) of a.
  kMath,          // `code` is the MathFn; args.
  kParseInt,      // Integer.parseInt(a).
  kInstanceCall,  // `code` is the BuiltinMethod; receiver a, args.
  kNewArray,      // Initializer args, or length a; `constant` = default elem.
  kNewFile,       // new File(args...).
  kNewScanner,    // new Scanner(args...).
  kNewString,     // new String(args...).
};

enum class MathFn : uint8_t {
  kOther, kPow, kSqrt, kLog, kLog10, kFloor, kCeil, kAbs, kMax, kMin,
};

/// String and Scanner instance methods; the receiver's runtime kind decides
/// which set applies.
enum class BuiltinMethod : uint8_t {
  kOther, kLength, kEquals, kCharAt, kIsEmpty,
  kHasNext, kHasNextInt, kClose, kNext, kNextInt, kNextDouble,
};

struct LExpr {
  Op op = Op::kConst;
  uint8_t code = 0;
  int32_t slot = -1;
  const LExpr* a = nullptr;
  const LExpr* b = nullptr;
  const LExpr* c = nullptr;
  std::vector<const LExpr*> args;
  Value constant;
  const char* what = nullptr;  // kUnsupported diagnostic prefix.
  const java::Expr* src = nullptr;
};

struct LStmt;

struct LDecl {
  int32_t slot = -1;
  const LExpr* init = nullptr;  // May be null.
  const std::string* name = nullptr;
};

struct LCase {
  const LExpr* label = nullptr;  // Null for `default:`.
  std::vector<const LStmt*> body;
};

struct LStmt {
  java::StmtKind kind = java::StmtKind::kBlock;
  const LExpr* expr = nullptr;  // Condition / expression / return value.
  const LStmt* a = nullptr;     // kIf then-branch; loop body.
  const LStmt* b = nullptr;     // kIf else-branch; kFor init.
  std::vector<const LStmt*> body;   // kBlock.
  std::vector<LDecl> decls;         // kLocalVarDecl.
  Value decl_default;               // kLocalVarDecl uninitialized value.
  std::vector<const LExpr*> updates;  // kFor.
  std::vector<LCase> cases;           // kSwitch.
  const java::Stmt* src = nullptr;
};

struct LMethod {
  const java::Method* src = nullptr;
  std::vector<int32_t> params;  // Slot of each parameter.
  const LStmt* body = nullptr;
  int32_t num_slots = 0;        // Distinct local names in the method.
};

}  // namespace

struct LoweredUnit {
  std::deque<LExpr> exprs;  // Deques keep node addresses stable.
  std::deque<LStmt> stmts;
  std::vector<LMethod> methods;  // Same order as CompilationUnit::methods.
};

namespace {

/// How a statement finished; drives break/continue/return unwinding.
/// kError means a Status is pending in Exec::error_.
enum class Flow { kNormal, kBreak, kContinue, kReturn, kError };

// Each interpreted call consumes several native Eval/ExecStmt frames, and
// sanitizer builds inflate those frames enough that 256 levels can overrun
// a default 8 MB thread stack before this guard fires. 128 still dwarfs any
// legitimate corpus recursion (bounded factorial/Fibonacci searches stay
// under ~25) while keeping worst-case native stack use well inside bounds.
constexpr int kMaxCallDepth = 128;

Value DefaultValueFor(const java::Type& type) {
  if (type.array_dims > 0) return Value::Null();
  switch (type.kind) {
    case java::TypeKind::kInt: return Value::Int(0);
    case java::TypeKind::kLong: return Value::Long(0);
    case java::TypeKind::kDouble: return Value::Double(0.0);
    case java::TypeKind::kBoolean: return Value::Bool(false);
    case java::TypeKind::kChar: return Value::Char(0);
    case java::TypeKind::kString: return Value::Str("");
    default: return Value::Null();
  }
}

MathFn MathFnFor(const std::string& name) {
  if (name == "pow") return MathFn::kPow;
  if (name == "sqrt") return MathFn::kSqrt;
  if (name == "log") return MathFn::kLog;
  if (name == "log10") return MathFn::kLog10;
  if (name == "floor") return MathFn::kFloor;
  if (name == "ceil") return MathFn::kCeil;
  if (name == "abs") return MathFn::kAbs;
  if (name == "max") return MathFn::kMax;
  if (name == "min") return MathFn::kMin;
  return MathFn::kOther;
}

BuiltinMethod BuiltinMethodFor(const std::string& name) {
  if (name == "length") return BuiltinMethod::kLength;
  if (name == "equals") return BuiltinMethod::kEquals;
  if (name == "charAt") return BuiltinMethod::kCharAt;
  if (name == "isEmpty") return BuiltinMethod::kIsEmpty;
  if (name == "hasNext") return BuiltinMethod::kHasNext;
  if (name == "hasNextInt") return BuiltinMethod::kHasNextInt;
  if (name == "close") return BuiltinMethod::kClose;
  if (name == "next") return BuiltinMethod::kNext;
  if (name == "nextInt") return BuiltinMethod::kNextInt;
  if (name == "nextDouble") return BuiltinMethod::kNextDouble;
  return BuiltinMethod::kOther;
}

bool IsSystemOut(const java::Expr& receiver) {
  return receiver.kind == java::ExprKind::kFieldAccess &&
         receiver.name == "out" &&
         receiver.lhs->kind == java::ExprKind::kName &&
         receiver.lhs->name == "System";
}

bool IsStaticReceiver(const java::Expr& receiver, const char* name) {
  return receiver.kind == java::ExprKind::kName && receiver.name == name;
}

/// Lowers every method of a unit into `out` (see "Lowered program").
class Lowerer {
 public:
  Lowerer(const java::CompilationUnit& unit, LoweredUnit* out)
      : unit_(unit), out_(*out) {}

  void Run() {
    out_.methods.resize(unit_.methods.size());
    for (size_t i = 0; i < unit_.methods.size(); ++i) {
      const java::Method& src = unit_.methods[i];
      LMethod& m = out_.methods[i];
      slots_.clear();
      m.src = &src;
      for (const auto& param : src.params) m.params.push_back(Slot(param.name));
      m.body = src.body ? Lower(*src.body) : nullptr;
      m.num_slots = static_cast<int32_t>(slots_.size());
    }
  }

 private:
  /// The method-local id of `name`, allocated densely on first sight.
  int32_t Slot(const std::string& name) {
    auto [it, inserted] =
        slots_.try_emplace(name, static_cast<int32_t>(slots_.size()));
    return it->second;
  }

  const LExpr* LowerOrNull(const java::ExprPtr& e) {
    return e ? Lower(*e) : nullptr;
  }
  const LStmt* LowerOrNull(const java::StmtPtr& s) {
    return s ? Lower(*s) : nullptr;
  }

  std::vector<const LExpr*> LowerAll(const std::vector<java::ExprPtr>& es) {
    std::vector<const LExpr*> out;
    out.reserve(es.size());
    for (const auto& e : es) out.push_back(Lower(*e));
    return out;
  }

  const LExpr* Lower(const java::Expr& e) {
    LExpr& n = out_.exprs.emplace_back();
    n.src = &e;
    using EK = java::ExprKind;
    switch (e.kind) {
      case EK::kIntLit: n.constant = Value::Int(e.int_value); break;
      case EK::kLongLit: n.constant = Value::Long(e.int_value); break;
      case EK::kDoubleLit: n.constant = Value::Double(e.double_value); break;
      case EK::kBoolLit: n.constant = Value::Bool(e.bool_value); break;
      case EK::kCharLit: n.constant = Value::Char(e.int_value); break;
      case EK::kStringLit: n.constant = Value::Str(e.string_value); break;
      case EK::kNullLit: break;
      case EK::kName:
        n.op = Op::kLocal;
        n.slot = Slot(e.name);
        break;
      case EK::kArrayAccess:
        n.op = Op::kArrayAccess;
        n.a = Lower(*e.lhs);
        n.b = Lower(*e.rhs);
        break;
      case EK::kFieldAccess:
        if (e.name == "length") {
          n.op = Op::kLength;
          n.a = Lower(*e.lhs);
        } else {
          n.op = Op::kUnsupported;
          n.what = "unsupported field";
        }
        break;
      case EK::kBinary:
        n.op = Op::kBinary;
        n.code = static_cast<uint8_t>(e.binary_op);
        n.a = Lower(*e.lhs);
        n.b = Lower(*e.rhs);
        break;
      case EK::kUnary:
        n.op = Op::kUnary;
        n.code = static_cast<uint8_t>(e.unary_op);
        n.a = Lower(*e.lhs);
        break;
      case EK::kAssign:
        n.op = Op::kAssign;
        n.code = static_cast<uint8_t>(e.assign_op);
        n.a = Lower(*e.lhs);
        n.b = Lower(*e.rhs);
        break;
      case EK::kConditional:
        n.op = Op::kConditional;
        n.a = Lower(*e.lhs);
        n.b = Lower(*e.rhs);
        n.c = Lower(*e.third);
        break;
      case EK::kCast:
        n.op = Op::kCast;
        n.code = static_cast<uint8_t>(e.type.kind);
        n.a = Lower(*e.lhs);
        break;
      case EK::kMethodCall:
        LowerCall(e, &n);
        break;
      case EK::kNewArray:
        n.op = Op::kNewArray;
        n.args = LowerAll(e.args);
        n.a = LowerOrNull(e.lhs);
        n.constant = DefaultValueFor(e.type);
        break;
      case EK::kNewObject:
        if (e.name == "File") {
          n.op = Op::kNewFile;
        } else if (e.name == "Scanner") {
          n.op = Op::kNewScanner;
        } else if (e.name == "String") {
          n.op = Op::kNewString;
        } else {
          n.op = Op::kUnsupported;
          n.what = "cannot instantiate";
          break;
        }
        n.args = LowerAll(e.args);
        break;
    }
    return &n;
  }

  void LowerCall(const java::Expr& e, LExpr* n) {
    if (!e.lhs) {
      // Bare call: a user-defined method of this unit.
      n->op = Op::kCallUser;
      const java::Method* target = unit_.FindMethod(e.name);
      n->slot = target == nullptr
                    ? -1
                    : static_cast<int32_t>(target - unit_.methods.data());
      n->args = LowerAll(e.args);
    } else if (IsSystemOut(*e.lhs)) {
      if (e.name == "print" || e.name == "println") {
        n->op = Op::kPrint;
        n->code = e.name == "println" ? 1 : 0;
        if (!e.args.empty()) n->a = Lower(*e.args[0]);
      } else {
        n->op = Op::kUnsupported;
        n->what = "unsupported System.out method";
      }
    } else if (IsStaticReceiver(*e.lhs, "Math")) {
      n->op = Op::kMath;
      n->code = static_cast<uint8_t>(MathFnFor(e.name));
      n->args = LowerAll(e.args);
    } else if (IsStaticReceiver(*e.lhs, "Integer")) {
      if (e.name == "parseInt" && e.args.size() == 1) {
        n->op = Op::kParseInt;
        n->a = Lower(*e.args[0]);
      } else {
        n->op = Op::kUnsupported;
        n->what = "unsupported Integer method";
      }
    } else {
      // Instance method: dispatched on the receiver's runtime kind.
      n->op = Op::kInstanceCall;
      n->code = static_cast<uint8_t>(BuiltinMethodFor(e.name));
      n->a = Lower(*e.lhs);
      n->args = LowerAll(e.args);
    }
  }

  const LStmt* Lower(const java::Stmt& s) {
    LStmt& n = out_.stmts.emplace_back();
    n.src = &s;
    n.kind = s.kind;
    using SK = java::StmtKind;
    switch (s.kind) {
      case SK::kBlock:
        for (const auto& child : s.body) n.body.push_back(Lower(*child));
        break;
      case SK::kLocalVarDecl:
        n.decl_default = DefaultValueFor(s.decl_type);
        for (const auto& decl : s.decls) {
          n.decls.push_back({Slot(decl.name), LowerOrNull(decl.init),
                             &decl.name});
        }
        break;
      case SK::kExprStmt:
        n.expr = Lower(*s.expr);
        break;
      case SK::kIf:
        n.expr = Lower(*s.expr);
        n.a = Lower(*s.then_branch);
        n.b = LowerOrNull(s.else_branch);
        break;
      case SK::kWhile:
      case SK::kDoWhile:
        n.expr = Lower(*s.expr);
        n.a = Lower(*s.loop_body);
        break;
      case SK::kFor:
        n.b = LowerOrNull(s.for_init);
        n.expr = LowerOrNull(s.expr);
        n.a = Lower(*s.loop_body);
        n.updates = LowerAll(s.for_update);
        break;
      case SK::kSwitch:
        n.expr = Lower(*s.expr);
        for (const auto& arm : s.switch_cases) {
          LCase& c = n.cases.emplace_back();
          c.label = LowerOrNull(arm.label);
          for (const auto& child : arm.body) c.body.push_back(Lower(*child));
        }
        break;
      case SK::kReturn:
        n.expr = LowerOrNull(s.expr);
        break;
      case SK::kBreak:
      case SK::kContinue:
        break;
    }
    return &n;
  }

  const java::CompilationUnit& unit_;
  LoweredUnit& out_;
  std::unordered_map<std::string, int32_t> slots_;  // Current method's ids.
};

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One execution of a lowered unit.
///
/// Locals are scoped dynamically: a declaration binds in the innermost open
/// scope (block, for statement, switch body, or a call's parameter
/// scope) and a read sees the innermost live binding. The environment keeps,
/// for each slot id of the current frame, a stack of bindings tagged with
/// the scope that made them: `tops_` holds each id's newest binding, each
/// binding records the one it shadows, and leaving a scope pops the bindings
/// it made. A call opens a fresh frame of ids, so a callee never sees its
/// caller's locals.
///
/// Evaluation returns false on failure, with the Status in error_; a Status
/// is only built when something actually fails.
class Exec {
 public:
  using TokenCache =
      std::map<std::string, std::shared_ptr<const std::vector<std::string>>>;

  Exec(const LoweredUnit& program,
       const std::map<std::string, std::string>& files,
       TokenCache* scanner_tokens, const ExecOptions& options)
      : program_(program),
        files_(files),
        scanner_tokens_(scanner_tokens),
        options_(options),
        max_steps_(options.max_steps) {}

  Result<ExecResult> Run(int32_t method, const std::string& method_name,
                         const std::vector<Value>& args) {
    JFEED_FAULT_POINT(fault::points::kInterpreterCall);
    if (options_.deadline_ms > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.deadline_ms);
      has_deadline_ = true;
    }
    Value ret;
    if (!CallUser(method, method_name, args, &ret)) return std::move(error_);
    ExecResult result;
    result.output_bytes = static_cast<int64_t>(out_.size());
    result.stdout_text = std::move(out_);
    result.return_value = std::move(ret);
    result.steps = steps_;
    result.heap_bytes = heap_bytes_;
    return result;
  }

  /// Steps spent so far, capped at the budget: the tick that overruns the
  /// step budget is not a step that ran.
  int64_t steps() const {
    return std::max<int64_t>(0, std::min(steps_, max_steps_));
  }

 private:
  struct Binding {
    int32_t slot;    // Id within the frame.
    int32_t prev;    // Binding this one shadows (index into values_), or -1.
    uint32_t scope;  // Depth of the scope that made it.
  };

  /// Opens a scope for its lifetime; closing pops the bindings it made.
  class ScopeGuard {
   public:
    explicit ScopeGuard(Exec* exec) : exec_(exec), mark_(exec->values_.size()) {
      ++exec_->scope_;
    }
    ~ScopeGuard() { exec_->CloseScope(mark_); }
    ScopeGuard(const ScopeGuard&) = delete;
    ScopeGuard& operator=(const ScopeGuard&) = delete;

   private:
    Exec* exec_;
    size_t mark_;
  };

  // --- Failure --------------------------------------------------------------

  bool Fail(Status status) {
    error_ = std::move(status);
    return false;
  }

  [[gnu::noinline, gnu::cold]] bool RuntimeError(const std::string& msg,
                                                 int line) {
    return Fail(Status::ExecutionError(msg + " (line " + std::to_string(line) +
                                       ")"));
  }

  [[gnu::noinline, gnu::cold]] bool StepBudgetExhausted() {
    return Fail(
        Status::Timeout("step budget exhausted (likely infinite loop)"));
  }

  [[gnu::noinline, gnu::cold]] bool DeadlineExceeded() {
    return Fail(Status::Timeout("wall-clock deadline of " +
                                std::to_string(options_.deadline_ms) +
                                "ms exceeded"));
  }

  bool Tick() {
    if (++steps_ > max_steps_) return StepBudgetExhausted();
    // The wall-clock check is throttled: a steady_clock read every step
    // would dominate the interpreter loop, and a few thousand steps resolve
    // in microseconds, so the deadline overshoot stays negligible.
    if (has_deadline_ && (steps_ & 4095) == 0 &&
        std::chrono::steady_clock::now() > deadline_) {
      return DeadlineExceeded();
    }
    return true;
  }

  /// Charges `bytes` against the heap budget. The budget is cumulative over
  /// the run (allocations are never credited back), making it a conservative
  /// bound that an adversarial allocation loop cannot dodge by dropping
  /// references.
  bool ChargeHeap(int64_t bytes, int line) {
    if (options_.max_heap_bytes <= 0) return true;
    heap_bytes_ += bytes;
    if (heap_bytes_ > options_.max_heap_bytes) {
      return Fail(Status::ResourceExhausted(
          "heap budget of " + std::to_string(options_.max_heap_bytes) +
          " bytes exceeded (line " + std::to_string(line) + ")"));
    }
    return true;
  }

  // --- Variables ----------------------------------------------------------

  Value* Lookup(int32_t slot) {
    int32_t top = tops_[frame_base_ + slot];
    return top >= 0 ? &values_[top] : nullptr;
  }

  /// Binds `slot` in the innermost scope; a redeclaration in that same
  /// scope overwrites, one in an inner scope shadows.
  void Declare(int32_t slot, Value value) {
    int32_t& top = tops_[frame_base_ + slot];
    if (top >= 0 && bindings_[top].scope == scope_) {
      values_[top] = std::move(value);
      return;
    }
    bindings_.push_back({slot, top, scope_});
    top = static_cast<int32_t>(values_.size());
    values_.push_back(std::move(value));
  }

  void CloseScope(size_t mark) {
    while (values_.size() > mark) {
      const Binding& b = bindings_.back();
      tops_[frame_base_ + b.slot] = b.prev;
      bindings_.pop_back();
      values_.pop_back();
    }
    --scope_;
  }

  void RecordTrace(const std::string& name, const Value& value) {
    if (options_.trace == nullptr) return;
    if (static_cast<int64_t>(options_.trace->size()) >=
        options_.max_trace_events) {
      return;
    }
    options_.trace->push_back({name, value.ToJavaString()});
  }

  bool UndefinedVariable(const LExpr& e) {
    return RuntimeError("undefined variable '" + e.src->name + "'",
                        e.src->line);
  }

  // --- Method dispatch ----------------------------------------------------

  bool CallUser(int32_t method, const std::string& name,
                const std::vector<Value>& args, Value* out) {
    if (method < 0) return Fail(Status::NotFound("method not found: " + name));
    const LMethod& m = program_.methods[method];
    if (m.params.size() != args.size()) {
      return Fail(Status::ExecutionError(
          "wrong number of arguments for " + name + ": expected " +
          std::to_string(m.params.size()) + ", got " +
          std::to_string(args.size())));
    }
    if (++call_depth_ > kMaxCallDepth) {
      --call_depth_;
      return Fail(Status::ResourceExhausted(
          "call depth exceeded (runaway recursion)"));
    }
    // A fresh frame of ids, opened with the parameter scope.
    const size_t caller_base = frame_base_;
    const size_t caller_values = values_.size();
    frame_base_ = tops_.size();
    tops_.resize(frame_base_ + static_cast<size_t>(m.num_slots), -1);
    ++scope_;
    for (size_t i = 0; i < args.size(); ++i) {
      RecordTrace(m.src->params[i].name, args[i]);
      Declare(m.params[i], args[i]);
    }
    Value saved_ret = std::move(return_value_);
    return_value_ = Value::Null();
    Flow flow = ExecStmt(*m.body);
    *out = std::move(return_value_);
    return_value_ = std::move(saved_ret);
    values_.resize(caller_values);
    bindings_.resize(caller_values);
    --scope_;
    tops_.resize(frame_base_);
    frame_base_ = caller_base;
    --call_depth_;
    return flow != Flow::kError;
  }

  // --- Statements ---------------------------------------------------------

  Flow ExecStmt(const LStmt& s) {
    if (!Tick()) return Flow::kError;
    switch (s.kind) {
      case java::StmtKind::kBlock: {
        ScopeGuard scope(this);
        for (const LStmt* child : s.body) {
          Flow flow = ExecStmt(*child);
          if (flow != Flow::kNormal) return flow;
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kLocalVarDecl: {
        for (const LDecl& decl : s.decls) {
          Value v;
          if (decl.init) {
            if (!Eval(*decl.init, &v)) return Flow::kError;
            v = Coerce(std::move(v), s.src->decl_type);
          } else {
            v = s.decl_default;
          }
          RecordTrace(*decl.name, v);
          Declare(decl.slot, std::move(v));
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kExprStmt: {
        Value ignored;
        return Eval(*s.expr, &ignored) ? Flow::kNormal : Flow::kError;
      }
      case java::StmtKind::kIf: {
        Value cond;
        if (!Eval(*s.expr, &cond)) return Flow::kError;
        if (cond.AsBool()) return ExecStmt(*s.a);
        if (s.b) return ExecStmt(*s.b);
        return Flow::kNormal;
      }
      case java::StmtKind::kWhile: {
        while (true) {
          if (!Tick()) return Flow::kError;
          Value cond;
          if (!Eval(*s.expr, &cond)) return Flow::kError;
          if (!cond.AsBool()) break;
          Flow flow = ExecStmt(*s.a);
          if (flow == Flow::kError || flow == Flow::kReturn) return flow;
          if (flow == Flow::kBreak) break;
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kDoWhile: {
        while (true) {
          if (!Tick()) return Flow::kError;
          Flow flow = ExecStmt(*s.a);
          if (flow == Flow::kError || flow == Flow::kReturn) return flow;
          if (flow == Flow::kBreak) break;
          Value cond;
          if (!Eval(*s.expr, &cond)) return Flow::kError;
          if (!cond.AsBool()) break;
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kFor: {
        ScopeGuard scope(this);
        if (s.b && ExecStmt(*s.b) == Flow::kError) return Flow::kError;
        while (true) {
          if (!Tick()) return Flow::kError;
          if (s.expr) {
            Value cond;
            if (!Eval(*s.expr, &cond)) return Flow::kError;
            if (!cond.AsBool()) break;
          }
          Flow flow = ExecStmt(*s.a);
          if (flow == Flow::kError || flow == Flow::kReturn) return flow;
          if (flow == Flow::kBreak) break;
          for (const LExpr* update : s.updates) {
            Value ignored;
            if (!Eval(*update, &ignored)) return Flow::kError;
          }
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kSwitch: {
        Value selector;
        if (!Eval(*s.expr, &selector)) return Flow::kError;
        // Find the first matching case (or default), then fall through.
        size_t start = s.cases.size();
        size_t default_arm = s.cases.size();
        for (size_t i = 0; i < s.cases.size(); ++i) {
          const LCase& arm = s.cases[i];
          if (!arm.label) {
            default_arm = i;
            continue;
          }
          Value label;
          if (!Eval(*arm.label, &label)) return Flow::kError;
          if (selector.JavaEquals(label)) {
            start = i;
            break;
          }
        }
        if (start == s.cases.size()) start = default_arm;
        ScopeGuard scope(this);
        for (size_t i = start; i < s.cases.size(); ++i) {
          for (const LStmt* stmt : s.cases[i].body) {
            Flow flow = ExecStmt(*stmt);
            if (flow == Flow::kBreak) return Flow::kNormal;  // Exits switch.
            if (flow != Flow::kNormal) return flow;
          }
        }
        return Flow::kNormal;
      }
      case java::StmtKind::kReturn: {
        if (s.expr) {
          Value v;
          if (!Eval(*s.expr, &v)) return Flow::kError;
          return_value_ = std::move(v);
        } else {
          return_value_ = Value::Null();
        }
        return Flow::kReturn;
      }
      case java::StmtKind::kBreak:
        return Flow::kBreak;
      case java::StmtKind::kContinue:
        return Flow::kContinue;
    }
    Fail(Status::Internal("unhandled statement kind"));
    return Flow::kError;
  }

  // --- Expressions --------------------------------------------------------

  bool Eval(const LExpr& e, Value* out) {
    if (!Tick()) return false;
    switch (e.op) {
      case Op::kConst:
        *out = e.constant;
        return true;
      case Op::kLocal: {
        const Value* v = Lookup(e.slot);
        if (v == nullptr) return UndefinedVariable(e);
        *out = *v;
        return true;
      }
      case Op::kArrayAccess: {
        Value arr, idx;
        if (!Eval(*e.a, &arr) || !Eval(*e.b, &idx)) return false;
        const ArrayValue* array = arr.array();
        if (array == nullptr) {
          return RuntimeError("array access on non-array value", e.src->line);
        }
        int64_t i = idx.AsInt();
        if (i < 0 || static_cast<size_t>(i) >= array->elems.size()) {
          return OutOfBounds(i, array->elems.size(), e.src->line);
        }
        *out = array->elems[static_cast<size_t>(i)];
        return true;
      }
      case Op::kLength: {
        Value arr;
        if (!Eval(*e.a, &arr)) return false;
        if (const ArrayValue* array = arr.array()) {
          *out = Value::Int(static_cast<int64_t>(array->elems.size()));
          return true;
        }
        return RuntimeError(".length on non-array value", e.src->line);
      }
      case Op::kUnsupported:
        return RuntimeError(std::string(e.what) + " '" + e.src->name + "'",
                            e.src->line);
      case Op::kBinary:
        return EvalBinary(e, out);
      case Op::kUnary:
        return EvalUnary(e, out);
      case Op::kAssign:
        return EvalAssign(e, out);
      case Op::kConditional: {
        Value cond;
        if (!Eval(*e.a, &cond)) return false;
        return cond.AsBool() ? Eval(*e.b, out) : Eval(*e.c, out);
      }
      case Op::kCast: {
        Value v;
        if (!Eval(*e.a, &v)) return false;
        switch (static_cast<java::TypeKind>(e.code)) {
          case java::TypeKind::kInt: *out = Value::Int(v.AsInt()); return true;
          case java::TypeKind::kLong:
            *out = Value::Long(v.AsInt());
            return true;
          case java::TypeKind::kDouble:
            *out = Value::Double(v.AsDouble());
            return true;
          case java::TypeKind::kChar:
            *out = Value::Char(v.AsInt());
            return true;
          default:
            return RuntimeError("unsupported cast target", e.src->line);
        }
      }
      case Op::kCallUser: {
        std::vector<Value> args(e.args.size());
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (!Eval(*e.args[i], &args[i])) return false;
        }
        return CallUser(e.slot, e.src->name, args, out);
      }
      case Op::kPrint:
        return EvalPrint(e, out);
      case Op::kMath:
        return EvalMath(e, out);
      case Op::kParseInt:
        return EvalParseInt(e, out);
      case Op::kInstanceCall: {
        Value recv;
        if (!Eval(*e.a, &recv)) return false;
        if (ScannerState* sc = recv.scanner()) return EvalScanner(e, *sc, out);
        if (recv.kind() == Value::Kind::kString) {
          return EvalString(e, recv.AsString(), out);
        }
        return RuntimeError("unsupported method call '" + e.src->name + "'",
                            e.src->line);
      }
      case Op::kNewArray:
        return EvalNewArray(e, out);
      case Op::kNewFile:
      case Op::kNewScanner:
      case Op::kNewString:
        return EvalNewObject(e, out);
    }
    return Fail(Status::Internal("unhandled expression kind"));
  }

  [[gnu::noinline, gnu::cold]] bool OutOfBounds(int64_t i, size_t length,
                                                int line) {
    return RuntimeError("ArrayIndexOutOfBoundsException: index " +
                            std::to_string(i) + " for length " +
                            std::to_string(length),
                        line);
  }

  bool EvalBinary(const LExpr& e, Value* out) {
    using BO = java::BinaryOp;
    const auto op = static_cast<BO>(e.code);
    // Short-circuit logical operators.
    if (op == BO::kAnd || op == BO::kOr) {
      Value lhs;
      if (!Eval(*e.a, &lhs)) return false;
      if (op == BO::kAnd && !lhs.AsBool()) {
        *out = Value::Bool(false);
        return true;
      }
      if (op == BO::kOr && lhs.AsBool()) {
        *out = Value::Bool(true);
        return true;
      }
      Value rhs;
      if (!Eval(*e.b, &rhs)) return false;
      *out = Value::Bool(rhs.AsBool());
      return true;
    }
    Value lhs, rhs;
    if (!Eval(*e.a, &lhs) || !Eval(*e.b, &rhs)) return false;
    return ApplyBinary(op, lhs, rhs, e.src->line, out);
  }

  bool ApplyBinary(java::BinaryOp op, const Value& lhs, const Value& rhs,
                   int line, Value* out) {
    using BO = java::BinaryOp;
    // String concatenation. Charged against the heap budget: `s = s + s` in
    // a loop doubles the string every iteration and would otherwise OOM the
    // host long before the step budget fires.
    if (op == BO::kAdd && (lhs.kind() == Value::Kind::kString ||
                           rhs.kind() == Value::Kind::kString)) {
      std::string text;
      lhs.AppendJavaString(&text);
      rhs.AppendJavaString(&text);
      *out = Value::Str(std::move(text));
      return ChargeHeap(out->ApproxHeapBytes(), line);
    }
    if (op == BO::kEq) {
      *out = Value::Bool(lhs.JavaEquals(rhs));
      return true;
    }
    if (op == BO::kNe) {
      *out = Value::Bool(!lhs.JavaEquals(rhs));
      return true;
    }
    if (!lhs.is_numeric() || !rhs.is_numeric()) {
      return RuntimeError("arithmetic on non-numeric values", line);
    }
    bool as_double = lhs.kind() == Value::Kind::kDouble ||
                     rhs.kind() == Value::Kind::kDouble;
    if (as_double) {
      double a = lhs.AsDouble(), b = rhs.AsDouble();
      switch (op) {
        case BO::kAdd: *out = Value::Double(a + b); return true;
        case BO::kSub: *out = Value::Double(a - b); return true;
        case BO::kMul: *out = Value::Double(a * b); return true;
        case BO::kDiv: *out = Value::Double(a / b); return true;
        case BO::kMod: *out = Value::Double(std::fmod(a, b)); return true;
        case BO::kLt: *out = Value::Bool(a < b); return true;
        case BO::kLe: *out = Value::Bool(a <= b); return true;
        case BO::kGt: *out = Value::Bool(a > b); return true;
        case BO::kGe: *out = Value::Bool(a >= b); return true;
        default: break;
      }
    } else {
      int64_t a = lhs.AsInt(), b = rhs.AsInt();
      bool lng = lhs.kind() == Value::Kind::kLong ||
                 rhs.kind() == Value::Kind::kLong;
      auto wrap = [lng](int64_t v) {
        return lng ? Value::Long(v)
                   : Value::Int(static_cast<int32_t>(v));  // Java int wraps.
      };
      switch (op) {
        case BO::kAdd: *out = wrap(a + b); return true;
        case BO::kSub: *out = wrap(a - b); return true;
        case BO::kMul: *out = wrap(a * b); return true;
        case BO::kDiv:
          if (b == 0) {
            return RuntimeError("ArithmeticException: / by zero", line);
          }
          *out = wrap(a / b);
          return true;
        case BO::kMod:
          if (b == 0) {
            return RuntimeError("ArithmeticException: % by zero", line);
          }
          *out = wrap(a % b);
          return true;
        case BO::kLt: *out = Value::Bool(a < b); return true;
        case BO::kLe: *out = Value::Bool(a <= b); return true;
        case BO::kGt: *out = Value::Bool(a > b); return true;
        case BO::kGe: *out = Value::Bool(a >= b); return true;
        default: break;
      }
    }
    return Fail(Status::Internal("unhandled binary operator"));
  }

  bool EvalUnary(const LExpr& e, Value* out) {
    using UO = java::UnaryOp;
    const auto op = static_cast<UO>(e.code);
    switch (op) {
      case UO::kNeg: {
        Value v;
        if (!Eval(*e.a, &v)) return false;
        if (v.kind() == Value::Kind::kDouble) {
          *out = Value::Double(-v.AsDouble());
          return true;
        }
        if (v.is_integral()) {
          *out = Value::Int(-v.AsInt());
          return true;
        }
        return RuntimeError("negation of non-numeric value", e.src->line);
      }
      case UO::kNot: {
        Value v;
        if (!Eval(*e.a, &v)) return false;
        *out = Value::Bool(!v.AsBool());
        return true;
      }
      case UO::kPreInc:
      case UO::kPreDec:
      case UO::kPostInc:
      case UO::kPostDec: {
        int64_t delta = (op == UO::kPreInc || op == UO::kPostInc) ? 1 : -1;
        bool pre = op == UO::kPreInc || op == UO::kPreDec;
        Value old_value;
        if (!Eval(*e.a, &old_value)) return false;
        Value new_value;
        if (old_value.kind() == Value::Kind::kDouble) {
          new_value = Value::Double(old_value.AsDouble() + delta);
        } else {
          new_value = Value::Int(old_value.AsInt() + delta);
        }
        if (!Store(*e.a, new_value)) return false;
        *out = pre ? std::move(new_value) : std::move(old_value);
        return true;
      }
    }
    return Fail(Status::Internal("unhandled unary operator"));
  }

  bool EvalAssign(const LExpr& e, Value* out) {
    Value rhs;
    if (!Eval(*e.b, &rhs)) return false;
    Value result;
    const auto op = static_cast<java::AssignOp>(e.code);
    if (op == java::AssignOp::kAssign) {
      result = std::move(rhs);
    } else {
      Value old_value;
      if (!Eval(*e.a, &old_value)) return false;
      java::BinaryOp binary;
      switch (op) {
        case java::AssignOp::kAddAssign: binary = java::BinaryOp::kAdd; break;
        case java::AssignOp::kSubAssign: binary = java::BinaryOp::kSub; break;
        case java::AssignOp::kMulAssign: binary = java::BinaryOp::kMul; break;
        case java::AssignOp::kDivAssign: binary = java::BinaryOp::kDiv; break;
        case java::AssignOp::kModAssign: binary = java::BinaryOp::kMod; break;
        default:
          return Fail(Status::Internal("unhandled compound assignment"));
      }
      if (!ApplyBinary(binary, old_value, rhs, e.src->line, &result)) {
        return false;
      }
    }
    if (!Store(*e.a, result)) return false;
    *out = std::move(result);
    return true;
  }

  /// Stores `value` through an lvalue expression (local or array element).
  bool Store(const LExpr& target, const Value& value) {
    if (target.op == Op::kLocal) {
      Value* slot = Lookup(target.slot);
      if (slot == nullptr) return UndefinedVariable(target);
      // Preserve the declared numeric kind so int variables stay ints.
      if (slot->kind() == Value::Kind::kInt && value.is_integral()) {
        *slot = Value::Int(static_cast<int32_t>(value.AsInt()));
      } else if (slot->kind() == Value::Kind::kLong && value.is_integral()) {
        *slot = Value::Long(value.AsInt());
      } else if (slot->kind() == Value::Kind::kDouble && value.is_numeric()) {
        *slot = Value::Double(value.AsDouble());
      } else {
        *slot = value;
      }
      RecordTrace(target.src->name, *slot);
      return true;
    }
    if (target.op == Op::kArrayAccess) {
      Value arr, idx;
      if (!Eval(*target.a, &arr) || !Eval(*target.b, &idx)) return false;
      ArrayValue* array = arr.array();
      if (array == nullptr) {
        return RuntimeError("array store on non-array value",
                            target.src->line);
      }
      int64_t i = idx.AsInt();
      auto& elems = array->elems;
      if (i < 0 || static_cast<size_t>(i) >= elems.size()) {
        return OutOfBounds(i, elems.size(), target.src->line);
      }
      Value& elem = elems[static_cast<size_t>(i)];
      if (array->elem_kind == java::TypeKind::kDouble && value.is_numeric()) {
        elem = Value::Double(value.AsDouble());
      } else if (array->elem_kind == java::TypeKind::kInt &&
                 value.is_integral()) {
        elem = Value::Int(static_cast<int32_t>(value.AsInt()));
      } else {
        elem = value;
      }
      if (target.a->op == Op::kLocal) RecordTrace(target.a->src->name, elem);
      return true;
    }
    return RuntimeError("assignment target is not an lvalue", target.src->line);
  }

  /// Coerces an initializer to the declared type (int x = 'a'; double d = 1).
  static Value Coerce(Value v, const java::Type& type) {
    if (type.array_dims > 0) return v;
    switch (type.kind) {
      case java::TypeKind::kInt:
        if (v.is_integral()) return Value::Int(static_cast<int32_t>(v.AsInt()));
        return v;
      case java::TypeKind::kLong:
        if (v.is_integral()) return Value::Long(v.AsInt());
        return v;
      case java::TypeKind::kDouble:
        if (v.is_numeric()) return Value::Double(v.AsDouble());
        return v;
      default:
        return v;
    }
  }

  // --- Builtin calls --------------------------------------------------------

  bool EvalPrint(const LExpr& e, Value* out) {
    if (e.a) {
      Value v;
      if (!Eval(*e.a, &v)) return false;
      v.AppendJavaString(&out_);
    }
    if (e.code != 0) out_ += '\n';
    if (options_.max_output_bytes > 0 &&
        static_cast<int64_t>(out_.size()) > options_.max_output_bytes) {
      return Fail(Status::ResourceExhausted(
          "output budget of " + std::to_string(options_.max_output_bytes) +
          " bytes exceeded (line " + std::to_string(e.src->line) + ")"));
    }
    *out = Value::Null();
    return true;
  }

  bool EvalMath(const LExpr& e, Value* out) {
    // Each argument is evaluated exactly once, left to right; only the
    // first two matter to any supported function.
    Value v[2];
    double a[2] = {0, 0};
    const size_t n = e.args.size();
    for (size_t i = 0; i < n; ++i) {
      Value x;
      if (!Eval(*e.args[i], &x)) return false;
      if (!x.is_numeric()) {
        return RuntimeError("Math argument is not numeric", e.src->line);
      }
      if (i < 2) {
        a[i] = x.AsDouble();
        v[i] = std::move(x);
      }
    }
    switch (static_cast<MathFn>(e.code)) {
      case MathFn::kPow:
        if (n != 2) break;
        *out = Value::Double(std::pow(a[0], a[1]));
        return true;
      case MathFn::kSqrt:
        if (n != 1) break;
        *out = Value::Double(std::sqrt(a[0]));
        return true;
      case MathFn::kLog:
        if (n != 1) break;
        *out = Value::Double(std::log(a[0]));
        return true;
      case MathFn::kLog10:
        if (n != 1) break;
        *out = Value::Double(std::log10(a[0]));
        return true;
      case MathFn::kFloor:
        if (n != 1) break;
        *out = Value::Double(std::floor(a[0]));
        return true;
      case MathFn::kCeil:
        if (n != 1) break;
        *out = Value::Double(std::ceil(a[0]));
        return true;
      // abs/max/min keep integer kind for integral arguments.
      case MathFn::kAbs:
        if (n != 1) break;
        if (v[0].is_integral()) {
          *out = Value::Int(v[0].AsInt() < 0 ? -v[0].AsInt() : v[0].AsInt());
        } else {
          *out = Value::Double(std::fabs(a[0]));
        }
        return true;
      case MathFn::kMax:
        if (n != 2) break;
        if (v[0].is_integral() && v[1].is_integral()) {
          *out = Value::Int(std::max(v[0].AsInt(), v[1].AsInt()));
        } else {
          *out = Value::Double(std::max(a[0], a[1]));
        }
        return true;
      case MathFn::kMin:
        if (n != 2) break;
        if (v[0].is_integral() && v[1].is_integral()) {
          *out = Value::Int(std::min(v[0].AsInt(), v[1].AsInt()));
        } else {
          *out = Value::Double(std::min(a[0], a[1]));
        }
        return true;
      case MathFn::kOther:
        break;
    }
    return RuntimeError("unsupported Math method '" + e.src->name + "'",
                        e.src->line);
  }

  bool EvalParseInt(const LExpr& e, Value* out) {
    Value v;
    if (!Eval(*e.a, &v)) return false;
    errno = 0;
    char* end = nullptr;
    const std::string& s = v.AsString();
    long long parsed = std::strtoll(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s.empty()) {
      return RuntimeError("NumberFormatException: \"" + s + "\"", e.src->line);
    }
    *out = Value::Int(parsed);
    return true;
  }

  bool EvalScanner(const LExpr& e, ScannerState& sc, Value* out) {
    const auto f = static_cast<BuiltinMethod>(e.code);
    if (f == BuiltinMethod::kHasNext) {
      *out = Value::Bool(sc.HasNext());
      return true;
    }
    if (f == BuiltinMethod::kHasNextInt) {
      if (!sc.HasNext()) {
        *out = Value::Bool(false);
        return true;
      }
      const std::string& tok = (*sc.tokens)[sc.pos];
      char* end = nullptr;
      std::strtoll(tok.c_str(), &end, 10);
      *out = Value::Bool(end == tok.c_str() + tok.size() && !tok.empty());
      return true;
    }
    if (f == BuiltinMethod::kClose) {
      sc.closed = true;
      *out = Value::Null();
      return true;
    }
    if (!sc.HasNext()) {
      return RuntimeError("NoSuchElementException: scanner exhausted",
                          e.src->line);
    }
    if (f == BuiltinMethod::kNext) {
      *out = Value::Str((*sc.tokens)[sc.pos++]);
      return true;
    }
    if (f == BuiltinMethod::kNextInt) {
      const std::string& tok = (*sc.tokens)[sc.pos];
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
        return RuntimeError("InputMismatchException: \"" + tok + "\"",
                            e.src->line);
      }
      ++sc.pos;
      *out = Value::Int(v);
      return true;
    }
    if (f == BuiltinMethod::kNextDouble) {
      const std::string& tok = (*sc.tokens)[sc.pos];
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(tok.c_str(), &end);
      if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
        return RuntimeError("InputMismatchException: \"" + tok + "\"",
                            e.src->line);
      }
      ++sc.pos;
      *out = Value::Double(v);
      return true;
    }
    return RuntimeError("unsupported Scanner method '" + e.src->name + "'",
                        e.src->line);
  }

  bool EvalString(const LExpr& e, const std::string& s, Value* out) {
    const auto f = static_cast<BuiltinMethod>(e.code);
    const size_t argc = e.args.size();
    if (f == BuiltinMethod::kLength && argc == 0) {
      *out = Value::Int(static_cast<int64_t>(s.size()));
      return true;
    }
    if (f == BuiltinMethod::kEquals && argc == 1) {
      Value other;
      if (!Eval(*e.args[0], &other)) return false;
      *out = Value::Bool(other.kind() == Value::Kind::kString &&
                         other.AsString() == s);
      return true;
    }
    if (f == BuiltinMethod::kCharAt && argc == 1) {
      Value idx;
      if (!Eval(*e.args[0], &idx)) return false;
      int64_t i = idx.AsInt();
      if (i < 0 || static_cast<size_t>(i) >= s.size()) {
        return RuntimeError("StringIndexOutOfBoundsException", e.src->line);
      }
      *out = Value::Char(static_cast<unsigned char>(s[i]));
      return true;
    }
    if (f == BuiltinMethod::kIsEmpty && argc == 0) {
      *out = Value::Bool(s.empty());
      return true;
    }
    return RuntimeError("unsupported String method '" + e.src->name + "'",
                        e.src->line);
  }

  bool EvalNewArray(const LExpr& e, Value* out) {
    const int line = e.src->line;
    const java::Type& type = e.src->type;
    auto arr = std::make_shared<ArrayValue>();
    arr->elem_kind = type.kind;
    if (!e.args.empty()) {
      if (!ChargeHeap(static_cast<int64_t>(e.args.size()) * kHeapBytesPerSlot,
                      line)) {
        return false;
      }
      for (const LExpr* elem : e.args) {
        Value v;
        if (!Eval(*elem, &v)) return false;
        arr->elems.push_back(Coerce(std::move(v), type));
      }
      *out = Value::Array(std::move(arr));
      return true;
    }
    if (!e.a) return RuntimeError("array creation without a length", line);
    Value len;
    if (!Eval(*e.a, &len)) return false;
    int64_t n = len.AsInt();
    if (n < 0) {
      return RuntimeError("NegativeArraySizeException: " + std::to_string(n),
                          line);
    }
    // Charge *before* allocating, so `new int[1 << 30]` is rejected by the
    // budget instead of taking the host down with it.
    if (!ChargeHeap(n * kHeapBytesPerSlot, line)) return false;
    if (n > 10'000'000) {
      return RuntimeError("array too large: " + std::to_string(n), line);
    }
    arr->elems.assign(static_cast<size_t>(n), e.constant);
    *out = Value::Array(std::move(arr));
    return true;
  }

  bool EvalNewObject(const LExpr& e, Value* out) {
    const int line = e.src->line;
    if (e.op == Op::kNewFile) {
      if (e.args.size() != 1) {
        return RuntimeError("File expects one argument", line);
      }
      Value name;
      if (!Eval(*e.args[0], &name)) return false;
      *out = Value::Str(name.AsString());  // A File is just its name here.
      return true;
    }
    if (e.op == Op::kNewScanner) {
      if (e.args.size() != 1) {
        return RuntimeError("Scanner expects one argument", line);
      }
      Value file;
      if (!Eval(*e.args[0], &file)) return false;
      auto tokens = ScannerTokens(file.AsString());
      if (tokens == nullptr) {
        return RuntimeError("FileNotFoundException: " + file.AsString(), line);
      }
      auto state = std::make_shared<ScannerState>();
      state->tokens = std::move(tokens);
      *out = Value::Scanner(std::move(state));
      return ChargeHeap(out->ApproxHeapBytes(), line);
    }
    // new String(...).
    if (e.args.empty()) {
      *out = Value::Str("");
      return true;
    }
    Value v;
    if (!Eval(*e.args[0], &v)) return false;
    *out = Value::Str(v.ToJavaString());
    return ChargeHeap(out->ApproxHeapBytes(), line);
  }

  /// The tokens of file `name`, split on the first call for it and shared
  /// by every later one; null when there is no such file.
  std::shared_ptr<const std::vector<std::string>> ScannerTokens(
      const std::string& name) {
    auto cached = scanner_tokens_->find(name);
    if (cached != scanner_tokens_->end()) return cached->second;
    auto file = files_.find(name);
    if (file == files_.end()) return nullptr;
    auto tokens = std::make_shared<const std::vector<std::string>>(
        TokenizeScannerInput(file->second));
    scanner_tokens_->emplace(name, tokens);
    return tokens;
  }

  const LoweredUnit& program_;
  const std::map<std::string, std::string>& files_;
  TokenCache* scanner_tokens_;
  const ExecOptions& options_;
  const int64_t max_steps_;
  std::string out_;
  int64_t steps_ = 0;
  int64_t heap_bytes_ = 0;
  int call_depth_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  Status error_;
  // The binding environment (see the class comment).
  std::vector<Value> values_;      // Bound values, innermost last.
  std::vector<Binding> bindings_;  // Parallel to values_.
  std::vector<int32_t> tops_;      // Per frame: slot -> newest binding or -1.
  size_t frame_base_ = 0;          // Start of the current frame in tops_.
  uint32_t scope_ = 0;             // Depth of the innermost open scope.
  Value return_value_;
};

}  // namespace

Interpreter::Interpreter(const java::CompilationUnit& unit,
                         std::map<std::string, std::string> files)
    : unit_(unit), files_(std::move(files)) {}

Interpreter::~Interpreter() = default;

Result<ExecResult> Interpreter::Call(const std::string& method_name,
                                     const std::vector<Value>& args,
                                     const ExecOptions& options) {
  obs::Span span("interp.call");
  if (lowered_ == nullptr) {
    lowered_ = std::make_unique<LoweredUnit>();
    Lowerer(unit_, lowered_.get()).Run();
  }
  const java::Method* method = unit_.FindMethod(method_name);
  Exec exec(*lowered_, files_, &scanner_tokens_, options);
  auto result = exec.Run(
      method == nullptr ? -1
                        : static_cast<int32_t>(method - unit_.methods.data()),
      method_name, args);
  last_call_steps_ = exec.steps();

  // Per-call observability: one counter per outcome class, the steps of
  // every call (a step-budget kill counts max_steps), and step/heap/output
  // distributions for successful runs. Handles resolve once; every
  // call after that is a thread-local shard update (no-op until a metrics
  // sink enables the registry).
  auto& registry = obs::Registry::Global();
  static obs::Counter* calls_ok = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "ok"}});
  static obs::Counter* calls_timeout = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "timeout"}});
  static obs::Counter* calls_exhausted = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "resource_exhausted"}});
  static obs::Counter* calls_error = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "error"}});
  static obs::Counter* steps_total = registry.GetCounter(
      "jfeed_interp_steps_total",
      "Interpreter steps consumed by all calls, failed ones included");
  static obs::Histogram* steps_hist = registry.GetHistogram(
      "jfeed_interp_steps", "Steps per successful interpreter call");
  static obs::Histogram* heap_hist = registry.GetHistogram(
      "jfeed_interp_heap_bytes",
      "Heap bytes charged per successful interpreter call");
  static obs::Histogram* output_hist = registry.GetHistogram(
      "jfeed_interp_output_bytes",
      "Stdout bytes produced per successful interpreter call");
  steps_total->Increment(last_call_steps_);
  if (result.ok()) {
    calls_ok->Increment();
    steps_hist->Record(result->steps);
    heap_hist->Record(result->heap_bytes);
    output_hist->Record(result->output_bytes);
  } else {
    switch (result.status().code()) {
      case StatusCode::kTimeout: calls_timeout->Increment(); break;
      case StatusCode::kResourceExhausted:
        calls_exhausted->Increment();
        break;
      default: calls_error->Increment(); break;
    }
  }
  return result;
}

}  // namespace jfeed::interp
