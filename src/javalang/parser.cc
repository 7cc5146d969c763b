#include "javalang/parser.h"

#include <utility>

#include "javalang/fingerprint.h"
#include "javalang/lexer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"

namespace jfeed::java {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<CompilationUnit> ParseUnit() {
    CompilationUnit unit;
    SkipModifiers();
    if (Check(TokenKind::kKwClass)) {
      Advance();
      JFEED_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
      unit.class_name = name.text;
      JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLBrace).status());
      while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
        JFEED_ASSIGN_OR_RETURN(Method m, ParseMethod());
        unit.methods.push_back(std::move(m));
      }
      JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBrace).status());
    } else {
      while (!Check(TokenKind::kEof)) {
        JFEED_ASSIGN_OR_RETURN(Method m, ParseMethod());
        unit.methods.push_back(std::move(m));
      }
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kEof).status());
    if (unit.methods.empty()) {
      return Status::ParseError("submission contains no methods");
    }
    return unit;
  }

  Result<ExprPtr> ParseSingleExpression() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kEof).status());
    return e;
  }

  Result<StmtPtr> ParseSingleStatement() {
    JFEED_ASSIGN_OR_RETURN(StmtPtr s, ParseStmt());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kEof).status());
    return s;
  }

 private:
  // --- Token plumbing -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  Token Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " (found " + TokenKindName(t.kind) +
                              " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) + ")");
  }

  Result<Token> Expect(TokenKind kind) {
    if (!Check(kind)) {
      return Error(std::string("expected ") + TokenKindName(kind));
    }
    return Advance();
  }

  void SkipModifiers() {
    while (Check(TokenKind::kKwPublic) || Check(TokenKind::kKwPrivate) ||
           Check(TokenKind::kKwStatic) || Check(TokenKind::kKwFinal)) {
      Advance();
    }
  }

  // --- Types --------------------------------------------------------------

  bool CheckTypeStart() const {
    switch (Peek().kind) {
      case TokenKind::kKwInt:
      case TokenKind::kKwLong:
      case TokenKind::kKwDouble:
      case TokenKind::kKwBoolean:
      case TokenKind::kKwChar:
      case TokenKind::kKwString:
      case TokenKind::kKwVoid:
        return true;
      case TokenKind::kIdentifier:
        // A class-typed declaration like `Scanner s = ...` — only when
        // followed by an identifier (disambiguates from expressions).
        return Peek(1).kind == TokenKind::kIdentifier;
      default:
        return false;
    }
  }

  Result<Type> ParseType() {
    Type type;
    switch (Peek().kind) {
      case TokenKind::kKwInt: type.kind = TypeKind::kInt; break;
      case TokenKind::kKwLong: type.kind = TypeKind::kLong; break;
      case TokenKind::kKwDouble: type.kind = TypeKind::kDouble; break;
      case TokenKind::kKwBoolean: type.kind = TypeKind::kBoolean; break;
      case TokenKind::kKwChar: type.kind = TypeKind::kChar; break;
      case TokenKind::kKwString: type.kind = TypeKind::kString; break;
      case TokenKind::kKwVoid: type.kind = TypeKind::kVoid; break;
      case TokenKind::kIdentifier:
        type.kind = TypeKind::kClass;
        type.class_name = Peek().text;
        break;
      default:
        return Error("expected a type");
    }
    Advance();
    while (Check(TokenKind::kLBracket) && Peek(1).kind == TokenKind::kRBracket) {
      Advance();
      Advance();
      ++type.array_dims;
    }
    return type;
  }

  // --- Methods ------------------------------------------------------------

  Result<Method> ParseMethod() {
    SkipModifiers();
    // Fingerprint the slice from the return type through the closing brace.
    // Modifiers are excluded on purpose: the parser discards them, so
    // `static int f(){...}` and `int f(){...}` grade identically and should
    // share a method-cache entry.
    size_t first = pos_;
    Method method;
    method.line = Peek().line;
    JFEED_ASSIGN_OR_RETURN(method.return_type, ParseType());
    JFEED_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
    method.name = name.text;
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        Param param;
        JFEED_ASSIGN_OR_RETURN(param.type, ParseType());
        JFEED_ASSIGN_OR_RETURN(Token pname, Expect(TokenKind::kIdentifier));
        param.name = pname.text;
        method.params.push_back(std::move(param));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_ASSIGN_OR_RETURN(method.body, ParseBlock());
    method.fingerprint = FingerprintTokenRange(tokens_, first, pos_);
    return method;
  }

  // --- Statements ---------------------------------------------------------

  Result<StmtPtr> ParseBlock() {
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLBrace).status());
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    block->line = Peek().line;
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
      JFEED_ASSIGN_OR_RETURN(StmtPtr s, ParseStmt());
      block->body.push_back(std::move(s));
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBrace).status());
    return StmtPtr(std::move(block));
  }

  Result<StmtPtr> ParseStmt() {
    JFEED_RETURN_IF_ERROR(EnterNested());
    auto result = ParseStmtInner();
    --depth_;
    return result;
  }

  Result<StmtPtr> ParseStmtInner() {
    switch (Peek().kind) {
      case TokenKind::kLBrace:
        return ParseBlock();
      case TokenKind::kKwIf:
        return ParseIf();
      case TokenKind::kKwWhile:
        return ParseWhile();
      case TokenKind::kKwDo:
        return ParseDoWhile();
      case TokenKind::kKwFor:
        return ParseFor();
      case TokenKind::kKwSwitch:
        return ParseSwitch();
      case TokenKind::kKwReturn:
        return ParseReturn();
      case TokenKind::kKwBreak: {
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::kBreak;
        s->line = Peek().line;
        Advance();
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
        return StmtPtr(std::move(s));
      }
      case TokenKind::kKwContinue: {
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::kContinue;
        s->line = Peek().line;
        Advance();
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
        return StmtPtr(std::move(s));
      }
      case TokenKind::kKwFinal:
        return ParseLocalDecl();
      default:
        if (CheckTypeStart()) return ParseLocalDecl();
        return ParseExprStmt();
    }
  }

  Result<StmtPtr> ParseLocalDecl() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kLocalVarDecl;
    s->line = Peek().line;
    SkipModifiers();
    JFEED_ASSIGN_OR_RETURN(s->decl_type, ParseType());
    while (true) {
      VarDeclarator decl;
      JFEED_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
      decl.name = name.text;
      if (Match(TokenKind::kAssign)) {
        JFEED_ASSIGN_OR_RETURN(decl.init, ParseExpr());
      }
      s->decls.push_back(std::move(decl));
      if (!Match(TokenKind::kComma)) break;
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseExprStmt() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kExprStmt;
    s->line = Peek().line;
    JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseIf() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kIf;
    s->line = Peek().line;
    Advance();  // if
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_ASSIGN_OR_RETURN(s->then_branch, ParseStmt());
    if (Match(TokenKind::kKwElse)) {
      JFEED_ASSIGN_OR_RETURN(s->else_branch, ParseStmt());
    }
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseWhile() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kWhile;
    s->line = Peek().line;
    Advance();  // while
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_ASSIGN_OR_RETURN(s->loop_body, ParseStmt());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseDoWhile() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kDoWhile;
    s->line = Peek().line;
    Advance();  // do
    JFEED_ASSIGN_OR_RETURN(s->loop_body, ParseStmt());
    if (!Match(TokenKind::kKwWhile)) return Error("expected 'while'");
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseFor() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kFor;
    s->line = Peek().line;
    Advance();  // for
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    if (!Check(TokenKind::kSemi)) {
      if (CheckTypeStart()) {
        JFEED_ASSIGN_OR_RETURN(s->for_init, ParseLocalDecl());
      } else {
        auto init = std::make_unique<Stmt>();
        init->kind = StmtKind::kExprStmt;
        init->line = Peek().line;
        JFEED_ASSIGN_OR_RETURN(init->expr, ParseExpr());
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
        s->for_init = std::move(init);
      }
    } else {
      Advance();  // empty init ';'
    }
    if (!Check(TokenKind::kSemi)) {
      JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        JFEED_ASSIGN_OR_RETURN(ExprPtr u, ParseExpr());
        s->for_update.push_back(std::move(u));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_ASSIGN_OR_RETURN(s->loop_body, ParseStmt());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseSwitch() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kSwitch;
    s->line = Peek().line;
    Advance();  // switch
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLBrace).status());
    bool seen_default = false;
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
      SwitchCase arm;
      if (Match(TokenKind::kKwCase)) {
        JFEED_ASSIGN_OR_RETURN(arm.label, ParseExpr());
      } else if (Match(TokenKind::kKwDefault)) {
        if (seen_default) return Error("duplicate 'default' label");
        seen_default = true;
      } else {
        return Error("expected 'case' or 'default'");
      }
      JFEED_RETURN_IF_ERROR(Expect(TokenKind::kColon).status());
      while (!Check(TokenKind::kKwCase) && !Check(TokenKind::kKwDefault) &&
             !Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
        JFEED_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStmt());
        arm.body.push_back(std::move(stmt));
      }
      s->switch_cases.push_back(std::move(arm));
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBrace).status());
    return StmtPtr(std::move(s));
  }

  Result<StmtPtr> ParseReturn() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kReturn;
    s->line = Peek().line;
    Advance();  // return
    if (!Check(TokenKind::kSemi)) {
      JFEED_ASSIGN_OR_RETURN(s->expr, ParseExpr());
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kSemi).status());
    return StmtPtr(std::move(s));
  }

  // --- Expressions (precedence climbing) ----------------------------------

  /// Depth guard shared by the recursive entry points. A recursive-descent
  /// parser consumes one stack frame per nesting level, so an adversarial
  /// "parse bomb" ("((((...1...))))", "{{{{...}}}}", "!!!!...x") would
  /// otherwise overflow the host stack — a crash, not a diagnosis. 200
  /// levels is far beyond anything an intro-course submission contains.
  Status EnterNested() {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Status::ResourceExhausted(
          "nesting depth exceeds " + std::to_string(kMaxNestingDepth) +
          " (line " + std::to_string(Peek().line) + ")");
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseExpr() {
    JFEED_RETURN_IF_ERROR(EnterNested());
    auto result = ParseAssignment();
    --depth_;
    return result;
  }

  static bool IsLValue(const Expr& e) {
    return e.kind == ExprKind::kName || e.kind == ExprKind::kArrayAccess;
  }

  Result<ExprPtr> ParseAssignment() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseConditional());
    AssignOp op;
    switch (Peek().kind) {
      case TokenKind::kAssign: op = AssignOp::kAssign; break;
      case TokenKind::kPlusAssign: op = AssignOp::kAddAssign; break;
      case TokenKind::kMinusAssign: op = AssignOp::kSubAssign; break;
      case TokenKind::kStarAssign: op = AssignOp::kMulAssign; break;
      case TokenKind::kSlashAssign: op = AssignOp::kDivAssign; break;
      case TokenKind::kPercentAssign: op = AssignOp::kModAssign; break;
      default:
        return lhs;
    }
    if (!IsLValue(*lhs)) return Error("left side of assignment is not an lvalue");
    int line = Peek().line;
    Advance();
    JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAssignment());
    ExprPtr e = MakeAssign(op, std::move(lhs), std::move(rhs));
    e->line = line;
    return e;
  }

  Result<ExprPtr> ParseConditional() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr cond, ParseOr());
    if (!Match(TokenKind::kQuestion)) return cond;
    JFEED_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExpr());
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kColon).status());
    JFEED_ASSIGN_OR_RETURN(ExprPtr else_e, ParseConditional());
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kConditional;
    e->lhs = std::move(cond);
    e->rhs = std::move(then_e);
    e->third = std::move(else_e);
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseOr() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Check(TokenKind::kOrOr)) {
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseEquality());
    while (Check(TokenKind::kAndAnd)) {
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseEquality());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseEquality() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRelational());
    while (Check(TokenKind::kEq) || Check(TokenKind::kNe)) {
      BinaryOp op = Check(TokenKind::kEq) ? BinaryOp::kEq : BinaryOp::kNe;
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRelational());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseRelational() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (true) {
      BinaryOp op;
      switch (Peek().kind) {
        case TokenKind::kLt: op = BinaryOp::kLt; break;
        case TokenKind::kLe: op = BinaryOp::kLe; break;
        case TokenKind::kGt: op = BinaryOp::kGt; break;
        case TokenKind::kGe: op = BinaryOp::kGe; break;
        default:
          return lhs;
      }
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseAdditive() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      BinaryOp op = Check(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      switch (Peek().kind) {
        case TokenKind::kStar: op = BinaryOp::kMul; break;
        case TokenKind::kSlash: op = BinaryOp::kDiv; break;
        case TokenKind::kPercent: op = BinaryOp::kMod; break;
        default:
          return lhs;
      }
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  bool CheckCastStart() const {
    // "(" type ")" followed by something that can start a unary expression.
    if (!Check(TokenKind::kLParen)) return false;
    TokenKind k = Peek(1).kind;
    if (k != TokenKind::kKwInt && k != TokenKind::kKwLong &&
        k != TokenKind::kKwDouble && k != TokenKind::kKwChar) {
      return false;
    }
    return Peek(2).kind == TokenKind::kRParen;
  }

  Result<ExprPtr> ParseUnary() {
    JFEED_RETURN_IF_ERROR(EnterNested());
    auto result = ParseUnaryInner();
    --depth_;
    return result;
  }

  Result<ExprPtr> ParseUnaryInner() {
    int line = Peek().line;
    if (Check(TokenKind::kMinus)) {
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold a negated literal so "-1" prints and matches as a literal.
      if (operand->kind == ExprKind::kIntLit) {
        operand->int_value = -operand->int_value;
        return operand;
      }
      if (operand->kind == ExprKind::kDoubleLit) {
        operand->double_value = -operand->double_value;
        return operand;
      }
      ExprPtr e = MakeUnary(UnaryOp::kNeg, std::move(operand));
      e->line = line;
      return e;
    }
    if (Check(TokenKind::kNot)) {
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      ExprPtr e = MakeUnary(UnaryOp::kNot, std::move(operand));
      e->line = line;
      return e;
    }
    if (Check(TokenKind::kPlusPlus) || Check(TokenKind::kMinusMinus)) {
      UnaryOp op = Check(TokenKind::kPlusPlus) ? UnaryOp::kPreInc
                                               : UnaryOp::kPreDec;
      Advance();
      JFEED_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      if (!IsLValue(*operand)) return Error("operand of ++/-- is not an lvalue");
      ExprPtr e = MakeUnary(op, std::move(operand));
      e->line = line;
      return e;
    }
    if (CheckCastStart()) {
      Advance();  // (
      JFEED_ASSIGN_OR_RETURN(Type type, ParseType());
      JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
      JFEED_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCast;
      e->type = type;
      e->lhs = std::move(operand);
      e->line = line;
      return ExprPtr(std::move(e));
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    JFEED_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    while (true) {
      int line = Peek().line;
      if (Check(TokenKind::kLBracket)) {
        Advance();
        JFEED_ASSIGN_OR_RETURN(ExprPtr index, ParseExpr());
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBracket).status());
        e = MakeArrayAccess(std::move(e), std::move(index));
        e->line = line;
      } else if (Check(TokenKind::kDot)) {
        Advance();
        JFEED_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
        if (Check(TokenKind::kLParen)) {
          JFEED_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, ParseArgs());
          e = MakeCall(std::move(e), name.text, std::move(args));
        } else {
          e = MakeFieldAccess(std::move(e), name.text);
        }
        e->line = line;
      } else if (Check(TokenKind::kPlusPlus) ||
                 Check(TokenKind::kMinusMinus)) {
        UnaryOp op = Check(TokenKind::kPlusPlus) ? UnaryOp::kPostInc
                                                 : UnaryOp::kPostDec;
        if (!IsLValue(*e)) return Error("operand of ++/-- is not an lvalue");
        Advance();
        e = MakeUnary(op, std::move(e));
        e->line = line;
      } else {
        return e;
      }
    }
  }

  Result<std::vector<ExprPtr>> ParseArgs() {
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kLParen).status());
    std::vector<ExprPtr> args;
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        JFEED_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
        args.push_back(std::move(a));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    return args;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    int line = t.line;
    switch (t.kind) {
      case TokenKind::kIntLiteral: {
        ExprPtr e = MakeIntLit(t.int_value);
        e->line = line;
        Advance();
        return e;
      }
      case TokenKind::kLongLiteral: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLongLit;
        e->int_value = t.int_value;
        e->line = line;
        Advance();
        return ExprPtr(std::move(e));
      }
      case TokenKind::kDoubleLiteral: {
        ExprPtr e = MakeDoubleLit(t.double_value);
        e->line = line;
        Advance();
        return e;
      }
      case TokenKind::kStringLiteral: {
        ExprPtr e = MakeStringLit(t.string_value);
        e->line = line;
        Advance();
        return e;
      }
      case TokenKind::kCharLiteral: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kCharLit;
        e->int_value = t.int_value;
        e->line = line;
        Advance();
        return ExprPtr(std::move(e));
      }
      case TokenKind::kKwTrue:
      case TokenKind::kKwFalse: {
        ExprPtr e = MakeBoolLit(t.kind == TokenKind::kKwTrue);
        e->line = line;
        Advance();
        return e;
      }
      case TokenKind::kKwNull: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kNullLit;
        e->line = line;
        Advance();
        return ExprPtr(std::move(e));
      }
      case TokenKind::kIdentifier: {
        std::string name = t.text;
        Advance();
        if (Check(TokenKind::kLParen)) {
          JFEED_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, ParseArgs());
          ExprPtr e = MakeCall(nullptr, name, std::move(args));
          e->line = line;
          return e;
        }
        ExprPtr e = MakeName(std::move(name));
        e->line = line;
        return e;
      }
      case TokenKind::kKwNew:
        return ParseNew();
      case TokenKind::kLParen: {
        Advance();
        JFEED_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
        return e;
      }
      default:
        return Error("expected an expression");
    }
  }

  Result<ExprPtr> ParseNew() {
    int line = Peek().line;
    Advance();  // new
    JFEED_ASSIGN_OR_RETURN(Type type, ParseTypeBase());
    if (Check(TokenKind::kLBracket)) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kNewArray;
      e->type = type;
      e->line = line;
      if (!Check(TokenKind::kRBracket)) {
        JFEED_ASSIGN_OR_RETURN(e->lhs, ParseExpr());
      }
      JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBracket).status());
      if (Check(TokenKind::kLBrace)) {
        // `new int[] {1, 2, 3}` initializer form.
        Advance();
        if (!Check(TokenKind::kRBrace)) {
          while (true) {
            JFEED_ASSIGN_OR_RETURN(ExprPtr elem, ParseExpr());
            e->args.push_back(std::move(elem));
            if (!Match(TokenKind::kComma)) break;
          }
        }
        JFEED_RETURN_IF_ERROR(Expect(TokenKind::kRBrace).status());
      }
      return ExprPtr(std::move(e));
    }
    if (type.kind != TypeKind::kClass && type.kind != TypeKind::kString) {
      return Error("cannot instantiate a primitive type with 'new'");
    }
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kNewObject;
    e->name = type.kind == TypeKind::kString ? "String" : type.class_name;
    e->line = line;
    JFEED_ASSIGN_OR_RETURN(e->args, ParseArgs());
    return ExprPtr(std::move(e));
  }

  /// Parses a type without array suffix (used after `new`, where `[` starts
  /// the dimension expression instead).
  Result<Type> ParseTypeBase() {
    Type type;
    switch (Peek().kind) {
      case TokenKind::kKwInt: type.kind = TypeKind::kInt; break;
      case TokenKind::kKwLong: type.kind = TypeKind::kLong; break;
      case TokenKind::kKwDouble: type.kind = TypeKind::kDouble; break;
      case TokenKind::kKwBoolean: type.kind = TypeKind::kBoolean; break;
      case TokenKind::kKwChar: type.kind = TypeKind::kChar; break;
      case TokenKind::kKwString: type.kind = TypeKind::kString; break;
      case TokenKind::kIdentifier:
        type.kind = TypeKind::kClass;
        type.class_name = Peek().text;
        break;
      default:
        return Error("expected a type after 'new'");
    }
    Advance();
    return type;
  }

  static constexpr int kMaxNestingDepth = 200;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Current statement/expression nesting level.
};

}  // namespace

Result<CompilationUnit> Parse(std::string_view source) {
  JFEED_FAULT_POINT(fault::points::kParser);
  obs::Span lex_span("lex");
  auto tokens = Lex(source);
  lex_span.End();
  if (!tokens.ok()) return tokens.status();
  static obs::Histogram* lex_tokens = obs::Registry::Global().GetHistogram(
      "jfeed_lex_tokens", "Tokens produced per successfully lexed source");
  lex_tokens->Record(static_cast<int64_t>(tokens->size()));
  obs::Span parse_span("parse_unit");
  return Parser(std::move(*tokens)).ParseUnit();
}

Result<ExprPtr> ParseExpression(std::string_view source) {
  JFEED_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  return Parser(std::move(tokens)).ParseSingleExpression();
}

Result<StmtPtr> ParseStatement(std::string_view source) {
  JFEED_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  return Parser(std::move(tokens)).ParseSingleStatement();
}

}  // namespace jfeed::java
