#include "javalang/ast.h"

#include <new>

namespace jfeed::java {

namespace {
thread_local Arena* g_ast_arena = nullptr;
}  // namespace

AstArenaScope::AstArenaScope(Arena* arena) : prev_(g_ast_arena) {
  g_ast_arena = arena;
}

AstArenaScope::~AstArenaScope() { g_ast_arena = prev_; }

Arena* AstArenaScope::current() { return g_ast_arena; }

namespace internal {

namespace {
// A max_align_t-sized header keeps the node itself correctly aligned while
// leaving one byte to record the storage origin. operator delete may run
// on a different thread, or after the scope that allocated the node has
// closed, so the tag — not the current scope — decides whether to free.
constexpr std::size_t kHeaderSize = alignof(std::max_align_t);
constexpr unsigned char kHeapTag = 0x5a;
constexpr unsigned char kArenaTag = 0xa5;
}  // namespace

void* AllocateAstNode(std::size_t size) {
  Arena* arena = AstArenaScope::current();
  unsigned char* base;
  if (arena != nullptr) {
    base = static_cast<unsigned char*>(
        arena->Allocate(kHeaderSize + size, alignof(std::max_align_t)));
  } else {
    base = static_cast<unsigned char*>(::operator new(kHeaderSize + size));
  }
  base[0] = arena != nullptr ? kArenaTag : kHeapTag;
  return base + kHeaderSize;
}

void DeallocateAstNode(void* ptr) noexcept {
  if (ptr == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(ptr) - kHeaderSize;
  if (base[0] == kHeapTag) ::operator delete(base);
  // Arena-tagged storage is reclaimed wholesale by Arena::Reset().
}

}  // namespace internal

std::string Type::ToString() const {
  std::string base;
  switch (kind) {
    case TypeKind::kInt: base = "int"; break;
    case TypeKind::kLong: base = "long"; break;
    case TypeKind::kDouble: base = "double"; break;
    case TypeKind::kBoolean: base = "boolean"; break;
    case TypeKind::kChar: base = "char"; break;
    case TypeKind::kString: base = "String"; break;
    case TypeKind::kVoid: base = "void"; break;
    case TypeKind::kClass: base = class_name; break;
  }
  for (int i = 0; i < array_dims; ++i) base += "[]";
  return base;
}

const char* BinaryOpSpelling(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

const char* AssignOpSpelling(AssignOp op) {
  switch (op) {
    case AssignOp::kAssign: return "=";
    case AssignOp::kAddAssign: return "+=";
    case AssignOp::kSubAssign: return "-=";
    case AssignOp::kMulAssign: return "*=";
    case AssignOp::kDivAssign: return "/=";
    case AssignOp::kModAssign: return "%=";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->int_value = int_value;
  out->double_value = double_value;
  out->bool_value = bool_value;
  out->string_value = string_value;
  out->name = name;
  out->binary_op = binary_op;
  out->unary_op = unary_op;
  out->assign_op = assign_op;
  out->type = type;
  out->line = line;
  if (lhs) out->lhs = lhs->Clone();
  if (rhs) out->rhs = rhs->Clone();
  if (third) out->third = third->Clone();
  out->args.reserve(args.size());
  for (const auto& a : args) out->args.push_back(a->Clone());
  return out;
}

StmtPtr Stmt::Clone() const {
  auto out = std::make_unique<Stmt>();
  out->kind = kind;
  out->decl_type = decl_type;
  out->line = line;
  out->body.reserve(body.size());
  for (const auto& s : body) out->body.push_back(s->Clone());
  out->decls.reserve(decls.size());
  for (const auto& d : decls) {
    VarDeclarator vd;
    vd.name = d.name;
    if (d.init) vd.init = d.init->Clone();
    out->decls.push_back(std::move(vd));
  }
  if (expr) out->expr = expr->Clone();
  if (then_branch) out->then_branch = then_branch->Clone();
  if (else_branch) out->else_branch = else_branch->Clone();
  if (loop_body) out->loop_body = loop_body->Clone();
  if (for_init) out->for_init = for_init->Clone();
  out->for_update.reserve(for_update.size());
  for (const auto& u : for_update) out->for_update.push_back(u->Clone());
  out->switch_cases.reserve(switch_cases.size());
  for (const auto& sc : switch_cases) {
    SwitchCase copy;
    if (sc.label) copy.label = sc.label->Clone();
    copy.body.reserve(sc.body.size());
    for (const auto& s : sc.body) copy.body.push_back(s->Clone());
    out->switch_cases.push_back(std::move(copy));
  }
  return out;
}

Method Method::Clone() const {
  Method out;
  out.return_type = return_type;
  out.name = name;
  out.params = params;
  out.line = line;
  out.fingerprint = fingerprint;
  if (body) out.body = body->Clone();
  return out;
}

std::string Method::Signature() const {
  std::string out = return_type.ToString() + " " + name + "(";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += params[i].type.ToString() + " " + params[i].name;
  }
  out += ")";
  return out;
}

CompilationUnit CompilationUnit::Clone() const {
  CompilationUnit out;
  out.class_name = class_name;
  out.methods.reserve(methods.size());
  for (const auto& m : methods) out.methods.push_back(m.Clone());
  return out;
}

const Method* CompilationUnit::FindMethod(const std::string& name) const {
  for (const auto& m : methods) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

ExprPtr MakeIntLit(int64_t value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->int_value = value;
  return e;
}

ExprPtr MakeDoubleLit(double value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kDoubleLit;
  e->double_value = value;
  return e;
}

ExprPtr MakeBoolLit(bool value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBoolLit;
  e->bool_value = value;
  return e;
}

ExprPtr MakeStringLit(std::string value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStringLit;
  e->string_value = std::move(value);
  return e;
}

ExprPtr MakeName(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kName;
  e->name = std::move(name);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr MakeAssign(AssignOp op, ExprPtr target, ExprPtr value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAssign;
  e->assign_op = op;
  e->lhs = std::move(target);
  e->rhs = std::move(value);
  return e;
}

ExprPtr MakeArrayAccess(ExprPtr array, ExprPtr index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kArrayAccess;
  e->lhs = std::move(array);
  e->rhs = std::move(index);
  return e;
}

ExprPtr MakeFieldAccess(ExprPtr object, std::string field) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFieldAccess;
  e->lhs = std::move(object);
  e->name = std::move(field);
  return e;
}

ExprPtr MakeCall(ExprPtr receiver, std::string method,
                 std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kMethodCall;
  e->lhs = std::move(receiver);
  e->name = std::move(method);
  e->args = std::move(args);
  return e;
}

StmtPtr MakeExprStmt(ExprPtr expr) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kExprStmt;
  s->expr = std::move(expr);
  return s;
}

StmtPtr MakeBlock(std::vector<StmtPtr> stmts) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kBlock;
  s->body = std::move(stmts);
  return s;
}

}  // namespace jfeed::java
