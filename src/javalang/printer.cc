#include "javalang/printer.h"

#include <cstdio>

namespace jfeed::java {

namespace {

/// Precedence levels, higher binds tighter. Mirrors the parser.
int Precedence(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kAssign: return 1;
    case ExprKind::kConditional: return 2;
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kOr: return 3;
        case BinaryOp::kAnd: return 4;
        case BinaryOp::kEq:
        case BinaryOp::kNe: return 5;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: return 6;
        case BinaryOp::kAdd:
        case BinaryOp::kSub: return 7;
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: return 8;
      }
      return 8;
    case ExprKind::kUnary:
    case ExprKind::kCast: return 9;
    default: return 10;  // Primary / postfix.
  }
}

std::string EscapeString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string FormatDouble(double value) {
  // "%g" prints what an ostream prints under default flags.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  std::string s = buf;
  // Guarantee the literal reads as a double.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

void PrintExpr(const Expr& e, int parent_prec, std::string* out);

/// Prints a child expression, parenthesizing when it binds looser than the
/// context requires.
void PrintChild(const Expr& child, int min_prec, std::string* out) {
  if (Precedence(child) < min_prec) {
    out->push_back('(');
    PrintExpr(child, 0, out);
    out->push_back(')');
  } else {
    PrintExpr(child, min_prec, out);
  }
}

void PrintExpr(const Expr& e, int /*parent_prec*/, std::string* out) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      out->append(std::to_string(e.int_value));
      return;
    case ExprKind::kLongLit:
      out->append(std::to_string(e.int_value));
      out->push_back('L');
      return;
    case ExprKind::kDoubleLit:
      out->append(FormatDouble(e.double_value));
      return;
    case ExprKind::kBoolLit:
      out->append(e.bool_value ? "true" : "false");
      return;
    case ExprKind::kCharLit: {
      out->push_back('\'');
      char c = static_cast<char>(e.int_value);
      switch (c) {
        case '\n': out->append("\\n"); break;
        case '\t': out->append("\\t"); break;
        case '\\': out->append("\\\\"); break;
        case '\'': out->append("\\'"); break;
        default: out->push_back(c);
      }
      out->push_back('\'');
      return;
    }
    case ExprKind::kStringLit:
      out->append(EscapeString(e.string_value));
      return;
    case ExprKind::kNullLit:
      out->append("null");
      return;
    case ExprKind::kName:
      out->append(e.name);
      return;
    case ExprKind::kArrayAccess:
      PrintChild(*e.lhs, 10, out);
      out->push_back('[');
      PrintExpr(*e.rhs, 0, out);
      out->push_back(']');
      return;
    case ExprKind::kFieldAccess:
      PrintChild(*e.lhs, 10, out);
      out->push_back('.');
      out->append(e.name);
      return;
    case ExprKind::kMethodCall: {
      if (e.lhs) {
        PrintChild(*e.lhs, 10, out);
        out->push_back('.');
      }
      out->append(e.name);
      out->push_back('(');
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out->append(", ");
        PrintExpr(*e.args[i], 0, out);
      }
      out->push_back(')');
      return;
    }
    case ExprKind::kBinary: {
      int prec = Precedence(e);
      PrintChild(*e.lhs, prec, out);
      out->push_back(' ');
      out->append(BinaryOpSpelling(e.binary_op));
      out->push_back(' ');
      // Right child of a left-associative operator needs strictly higher
      // precedence to avoid reassociation on re-parse.
      PrintChild(*e.rhs, prec + 1, out);
      return;
    }
    case ExprKind::kUnary: {
      switch (e.unary_op) {
        case UnaryOp::kNeg:
          out->push_back('-');
          PrintChild(*e.lhs, 9, out);
          return;
        case UnaryOp::kNot:
          out->push_back('!');
          PrintChild(*e.lhs, 9, out);
          return;
        case UnaryOp::kPreInc:
          out->append("++");
          PrintChild(*e.lhs, 10, out);
          return;
        case UnaryOp::kPreDec:
          out->append("--");
          PrintChild(*e.lhs, 10, out);
          return;
        case UnaryOp::kPostInc:
          PrintChild(*e.lhs, 10, out);
          out->append("++");
          return;
        case UnaryOp::kPostDec:
          PrintChild(*e.lhs, 10, out);
          out->append("--");
          return;
      }
      return;
    }
    case ExprKind::kAssign:
      PrintChild(*e.lhs, 10, out);
      out->push_back(' ');
      out->append(AssignOpSpelling(e.assign_op));
      out->push_back(' ');
      PrintChild(*e.rhs, 1, out);
      return;
    case ExprKind::kConditional:
      PrintChild(*e.lhs, 3, out);
      out->append(" ? ");
      PrintExpr(*e.rhs, 0, out);
      out->append(" : ");
      PrintChild(*e.third, 2, out);
      return;
    case ExprKind::kCast:
      out->push_back('(');
      out->append(e.type.ToString());
      out->append(") ");
      PrintChild(*e.lhs, 9, out);
      return;
    case ExprKind::kNewArray: {
      out->append("new ");
      out->append(e.type.ToString());
      out->push_back('[');
      if (e.lhs) PrintExpr(*e.lhs, 0, out);
      out->push_back(']');
      if (!e.args.empty()) {
        out->append(" {");
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out->append(", ");
          PrintExpr(*e.args[i], 0, out);
        }
        out->push_back('}');
      }
      return;
    }
    case ExprKind::kNewObject: {
      out->append("new ");
      out->append(e.name);
      out->push_back('(');
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out->append(", ");
        PrintExpr(*e.args[i], 0, out);
      }
      out->push_back(')');
      return;
    }
  }
}

void Indent(int level, std::string* out) {
  for (int i = 0; i < level; ++i) out->append("    ");
}

void PrintStmt(const Stmt& s, int indent, std::string* out);

/// Prints a statement as the body of a control structure: blocks inline
/// after the header; other statements on the next line, indented.
void PrintBody(const Stmt& body, int indent, std::string* out) {
  if (body.kind == StmtKind::kBlock) {
    out->append(" ");
    PrintStmt(body, indent, out);
  } else {
    out->append("\n");
    PrintStmt(body, indent + 1, out);
  }
}

void PrintStmt(const Stmt& s, int indent, std::string* out) {
  switch (s.kind) {
    case StmtKind::kBlock: {
      // A block's opening brace is assumed to be placed by the caller when
      // used as a control-structure body; standalone blocks start indented.
      if (out->empty() || out->back() == '\n') Indent(indent, out);
      out->append("{\n");
      for (const auto& child : s.body) {
        PrintStmt(*child, indent + 1, out);
      }
      Indent(indent, out);
      out->append("}\n");
      return;
    }
    case StmtKind::kLocalVarDecl: {
      Indent(indent, out);
      out->append(s.decl_type.ToString());
      out->push_back(' ');
      for (size_t i = 0; i < s.decls.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(s.decls[i].name);
        if (s.decls[i].init) {
          out->append(" = ");
          PrintExpr(*s.decls[i].init, 0, out);
        }
      }
      out->append(";\n");
      return;
    }
    case StmtKind::kExprStmt:
      Indent(indent, out);
      PrintExpr(*s.expr, 0, out);
      out->append(";\n");
      return;
    case StmtKind::kIf: {
      Indent(indent, out);
      out->append("if (");
      PrintExpr(*s.expr, 0, out);
      out->append(")");
      PrintBody(*s.then_branch, indent, out);
      if (s.else_branch) {
        // Re-open the line when the then-branch ended with a block.
        if (!out->empty() && out->back() == '\n') {
          out->pop_back();
          if (s.then_branch->kind == StmtKind::kBlock) {
            out->append(" else");
          } else {
            out->append("\n");
            Indent(indent, out);
            out->append("else");
          }
        }
        PrintBody(*s.else_branch, indent, out);
      }
      return;
    }
    case StmtKind::kWhile:
      Indent(indent, out);
      out->append("while (");
      PrintExpr(*s.expr, 0, out);
      out->append(")");
      PrintBody(*s.loop_body, indent, out);
      return;
    case StmtKind::kDoWhile: {
      Indent(indent, out);
      out->append("do");
      PrintBody(*s.loop_body, indent, out);
      if (!out->empty() && out->back() == '\n') out->pop_back();
      out->append(" while (");
      PrintExpr(*s.expr, 0, out);
      out->append(");\n");
      return;
    }
    case StmtKind::kFor: {
      Indent(indent, out);
      out->append("for (");
      if (s.for_init) {
        std::string init;
        PrintStmt(*s.for_init, 0, &init);
        // Strip the trailing ";\n" -> ";" and inline.
        while (!init.empty() && (init.back() == '\n' || init.back() == ' ')) {
          init.pop_back();
        }
        out->append(init);
      } else {
        out->push_back(';');
      }
      out->push_back(' ');
      if (s.expr) PrintExpr(*s.expr, 0, out);
      out->append("; ");
      for (size_t i = 0; i < s.for_update.size(); ++i) {
        if (i > 0) out->append(", ");
        PrintExpr(*s.for_update[i], 0, out);
      }
      out->append(")");
      PrintBody(*s.loop_body, indent, out);
      return;
    }
    case StmtKind::kSwitch: {
      Indent(indent, out);
      out->append("switch (");
      PrintExpr(*s.expr, 0, out);
      out->append(") {\n");
      for (const auto& arm : s.switch_cases) {
        Indent(indent + 1, out);
        if (arm.label) {
          out->append("case ");
          PrintExpr(*arm.label, 0, out);
          out->append(":\n");
        } else {
          out->append("default:\n");
        }
        for (const auto& stmt : arm.body) {
          PrintStmt(*stmt, indent + 2, out);
        }
      }
      Indent(indent, out);
      out->append("}\n");
      return;
    }
    case StmtKind::kReturn:
      Indent(indent, out);
      out->append("return");
      if (s.expr) {
        out->push_back(' ');
        PrintExpr(*s.expr, 0, out);
      }
      out->append(";\n");
      return;
    case StmtKind::kBreak:
      Indent(indent, out);
      out->append("break;\n");
      return;
    case StmtKind::kContinue:
      Indent(indent, out);
      out->append("continue;\n");
      return;
  }
}

}  // namespace

std::string ExprToString(const Expr& expr) {
  std::string out;
  PrintExpr(expr, 0, &out);
  return out;
}

void AppendExprToString(const Expr& expr, std::string* out) {
  PrintExpr(expr, 0, out);
}

std::string StmtToString(const Stmt& stmt, int indent) {
  std::string out;
  PrintStmt(stmt, indent, &out);
  return out;
}

std::string MethodToString(const Method& method) {
  std::string out = method.Signature();
  out.append(" ");
  if (method.body) {
    PrintStmt(*method.body, 0, &out);
  } else {
    out.append("{}\n");
  }
  return out;
}

std::string UnitToString(const CompilationUnit& unit) {
  std::string out;
  bool wrapped = !unit.class_name.empty();
  if (wrapped) {
    out.append("class ");
    out.append(unit.class_name);
    out.append(" {\n\n");
  }
  for (size_t i = 0; i < unit.methods.size(); ++i) {
    if (i > 0) out.append("\n");
    std::string method = MethodToString(unit.methods[i]);
    if (wrapped) {
      // Indent the method by one level inside the class body.
      std::string indented;
      size_t start = 0;
      while (start < method.size()) {
        size_t end = method.find('\n', start);
        if (end == std::string::npos) end = method.size();
        if (end > start) {
          indented.append("    ");
          indented.append(method, start, end - start);
        }
        indented.push_back('\n');
        start = end + 1;
      }
      out.append(indented);
    } else {
      out.append(method);
    }
  }
  if (wrapped) out.append("}\n");
  return out;
}

}  // namespace jfeed::java
