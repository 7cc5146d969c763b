#ifndef JFEED_JAVALANG_AST_H_
#define JFEED_JAVALANG_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/arena.h"

namespace jfeed::java {

// ---------------------------------------------------------------------------
// Arena-backed node allocation
// ---------------------------------------------------------------------------

/// While an AstArenaScope is alive on a thread, every Expr/Stmt node
/// created on that thread is bump-allocated from its arena instead of the
/// heap; deleting such a node runs its destructor (members like strings
/// and child vectors are still freed normally) but returns no storage —
/// the node's bytes die with the arena. This keeps ExprPtr/StmtPtr
/// ownership semantics untouched while letting the grading hot path parse
/// into recycled memory.
///
/// Contract: every node allocated under a scope must be destroyed before
/// that arena is Reset() or destroyed. Scopes nest; destruction restores
/// the previous scope. Code that never opens a scope (tests, tools, the
/// synthetic generator) allocates from the heap exactly as before.
class AstArenaScope {
 public:
  // Scope open/close and current() live in ast.cc so every access to the
  // thread_local goes through its defining TU — GCC's UBSan emits bogus
  // "store to null pointer" reports for cross-TU TLS wrapper accesses
  // inlined from a header. Scopes open once per submission, so the
  // out-of-line call costs nothing on the hot path.
  explicit AstArenaScope(Arena* arena);
  ~AstArenaScope();
  AstArenaScope(const AstArenaScope&) = delete;
  AstArenaScope& operator=(const AstArenaScope&) = delete;

  /// The arena new Expr/Stmt nodes on this thread currently go to, or
  /// null for the heap.
  static Arena* current();

 private:
  Arena* prev_;
};

namespace internal {
/// Node storage for Expr/Stmt operator new: a tagged header in front of
/// the node records where the bytes came from so operator delete — which
/// may run long after the scope closed — frees heap nodes and leaves
/// arena nodes alone.
void* AllocateAstNode(std::size_t size);
void DeallocateAstNode(void* ptr) noexcept;
}  // namespace internal

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Primitive and reference types of the Java subset. Reference types other
/// than String (Scanner, File) are carried as kClass with a class name.
enum class TypeKind {
  kInt,
  kLong,
  kDouble,
  kBoolean,
  kChar,
  kString,
  kVoid,
  kClass,
};

/// A (possibly array) type, e.g. `int[]` is {kInt, dims=1}.
struct Type {
  TypeKind kind = TypeKind::kInt;
  int array_dims = 0;
  std::string class_name;  ///< Only for kClass.

  bool operator==(const Type& other) const = default;

  /// Java spelling, e.g. "int[]", "String", "Scanner".
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kIntLit,
  kLongLit,
  kDoubleLit,
  kBoolLit,
  kCharLit,
  kStringLit,
  kNullLit,
  kName,
  kArrayAccess,
  kFieldAccess,
  kMethodCall,
  kBinary,
  kUnary,
  kAssign,
  kConditional,
  kCast,
  kNewArray,
  kNewObject,
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kAnd, kOr,
};

enum class UnaryOp {
  kNeg,        // -x
  kNot,        // !x
  kPreInc,     // ++x
  kPreDec,     // --x
  kPostInc,    // x++
  kPostDec,    // x--
};

enum class AssignOp { kAssign, kAddAssign, kSubAssign, kMulAssign,
                      kDivAssign, kModAssign };

/// Java spelling of a binary operator ("+", "<=", "&&", ...).
const char* BinaryOpSpelling(BinaryOp op);
/// Java spelling of an assignment operator ("=", "+=", ...).
const char* AssignOpSpelling(AssignOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A single-struct expression node. Only the fields relevant for `kind` are
/// populated; this flat layout keeps cloning and walking simple, which the
/// PDG builder and the synthetic generator rely on heavily.
struct Expr {
  ExprKind kind;

  // Literals.
  int64_t int_value = 0;       // kIntLit / kLongLit / kCharLit
  double double_value = 0.0;   // kDoubleLit
  bool bool_value = false;     // kBoolLit
  std::string string_value;    // kStringLit (unescaped)

  std::string name;            // kName: identifier; kFieldAccess: field name;
                               // kMethodCall: method name; kNewObject: class.

  BinaryOp binary_op = BinaryOp::kAdd;   // kBinary
  UnaryOp unary_op = UnaryOp::kNeg;      // kUnary
  AssignOp assign_op = AssignOp::kAssign;  // kAssign

  Type type;                   // kCast / kNewArray element type.

  ExprPtr lhs;   // kBinary lhs; kAssign target; kArrayAccess array;
                 // kFieldAccess object; kMethodCall receiver (may be null);
                 // kUnary operand; kConditional condition; kCast operand;
                 // kNewArray length.
  ExprPtr rhs;   // kBinary rhs; kAssign value; kArrayAccess index;
                 // kConditional then-branch.
  ExprPtr third;  // kConditional else-branch.
  std::vector<ExprPtr> args;  // kMethodCall / kNewObject arguments;
                              // kNewArray initializer elements.

  int line = 0;  ///< Source line of the expression's first token.

  /// Deep copy.
  ExprPtr Clone() const;

  // Nodes honor the thread's AstArenaScope (see above); arrays of nodes
  // are never allocated, so only the scalar forms are overridden.
  static void* operator new(std::size_t size) {
    return internal::AllocateAstNode(size);
  }
  static void operator delete(void* ptr) noexcept {
    internal::DeallocateAstNode(ptr);
  }
};

// Convenience constructors (used pervasively by tests and the generator).
ExprPtr MakeIntLit(int64_t value);
ExprPtr MakeDoubleLit(double value);
ExprPtr MakeBoolLit(bool value);
ExprPtr MakeStringLit(std::string value);
ExprPtr MakeName(std::string name);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeAssign(AssignOp op, ExprPtr target, ExprPtr value);
ExprPtr MakeArrayAccess(ExprPtr array, ExprPtr index);
ExprPtr MakeFieldAccess(ExprPtr object, std::string field);
ExprPtr MakeCall(ExprPtr receiver, std::string method,
                 std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kBlock,
  kLocalVarDecl,
  kExprStmt,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kSwitch,
  kReturn,
  kBreak,
  kContinue,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// One declarator of a local variable declaration (`int a = 0, b;` has two).
struct VarDeclarator {
  std::string name;
  ExprPtr init;  ///< May be null.
};

/// One `case label:` (or `default:` when `label` is null) arm of a switch,
/// with the statements up to the next label (fall-through preserved).
struct SwitchCase {
  ExprPtr label;  ///< Null for `default:`.
  std::vector<StmtPtr> body;
};

/// A single-struct statement node, same flat design as Expr.
struct Stmt {
  StmtKind kind;

  std::vector<StmtPtr> body;        // kBlock statements; also single-element
                                    // body of loops / then-branch via `body`.
  Type decl_type;                   // kLocalVarDecl
  std::vector<VarDeclarator> decls;  // kLocalVarDecl

  ExprPtr expr;   // kExprStmt expression; kIf/kWhile/kDoWhile/kFor condition;
                  // kReturn value (may be null).
  StmtPtr then_branch;  // kIf
  StmtPtr else_branch;  // kIf (may be null)
  StmtPtr loop_body;    // kWhile / kDoWhile / kFor

  StmtPtr for_init;             // kFor (may be null; decl or expr-stmt)
  std::vector<ExprPtr> for_update;  // kFor update expressions.
  std::vector<SwitchCase> switch_cases;  // kSwitch arms.

  int line = 0;

  /// Deep copy.
  StmtPtr Clone() const;

  // Same arena-aware allocation as Expr.
  static void* operator new(std::size_t size) {
    return internal::AllocateAstNode(size);
  }
  static void operator delete(void* ptr) noexcept {
    internal::DeallocateAstNode(ptr);
  }
};

StmtPtr MakeExprStmt(ExprPtr expr);
StmtPtr MakeBlock(std::vector<StmtPtr> stmts);

// ---------------------------------------------------------------------------
// Methods and compilation units
// ---------------------------------------------------------------------------

struct Param {
  Type type;
  std::string name;
};

/// A method of a submission. Modifiers are accepted by the parser but not
/// retained (intro assignments do not depend on them).
struct Method {
  Type return_type;
  std::string name;
  std::vector<Param> params;
  StmtPtr body;  ///< Always a kBlock.
  int line = 0;

  /// Content hash of this method's token slice (modifiers excluded), set by
  /// the parser; 0 for hand-built methods that never saw tokens. Keyed with
  /// the assignment id, this is the method-cache address (DESIGN.md §3d).
  uint64_t fingerprint = 0;

  Method Clone() const;

  /// "void assignment1(int[] a)" — used in diagnostics and feedback.
  std::string Signature() const;
};

/// A parsed submission: one or more methods (an optional `class X { ... }`
/// wrapper is accepted and discarded).
struct CompilationUnit {
  std::string class_name;  ///< Empty when the submission had bare methods.
  std::vector<Method> methods;

  CompilationUnit Clone() const;

  /// Returns the method with the given name, or nullptr.
  const Method* FindMethod(const std::string& name) const;
};

}  // namespace jfeed::java

#endif  // JFEED_JAVALANG_AST_H_
