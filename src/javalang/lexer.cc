#include "javalang/lexer.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "support/fault.h"

namespace jfeed::java {

namespace {

// Byte classes of the "C" locale (nothing calls setlocale), spelled as
// ASCII tests: bytes of 0x80 and up are in none of them.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentifierStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '$';
}
bool IsIdentifierPart(char c) { return IsIdentifierStart(c) || IsDigit(c); }

/// Length of the well-formed UTF-8 sequence (RFC 3629: no overlong forms,
/// no surrogates, nothing above U+10FFFF) that starts the non-empty `s`,
/// or 0 when none does.
size_t Utf8SequenceLength(std::string_view s) {
  const auto b0 = static_cast<unsigned char>(s[0]);
  size_t length = 0;
  unsigned char low = 0x80;  // Bounds of the second byte.
  unsigned char high = 0xBF;
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    length = 2;
  } else if (b0 >= 0xE0 && b0 <= 0xEF) {
    length = 3;
    if (b0 == 0xE0) low = 0xA0;
    if (b0 == 0xED) high = 0x9F;
  } else if (b0 >= 0xF0 && b0 <= 0xF4) {
    length = 4;
    if (b0 == 0xF0) low = 0x90;
    if (b0 == 0xF4) high = 0x8F;
  } else {
    return 0;
  }
  if (s.size() < length) return 0;
  const auto b1 = static_cast<unsigned char>(s[1]);
  if (b1 < low || b1 > high) return 0;
  for (size_t i = 2; i < length; ++i) {
    const auto b = static_cast<unsigned char>(s[i]);
    if (b < 0x80 || b > 0xBF) return 0;
  }
  return length;
}

/// The character that starts `rest`, spelled for an error message: an
/// ASCII byte as itself, a well-formed UTF-8 sequence whole, and any other
/// byte as \xNN, so a diagnostic is valid UTF-8 whatever the source holds.
std::string CharForMessage(std::string_view rest) {
  if (static_cast<unsigned char>(rest[0]) < 0x80) {
    return std::string(1, rest[0]);
  }
  if (size_t length = Utf8SequenceLength(rest)) {
    return std::string(rest.substr(0, length));
  }
  static constexpr char kHex[] = "0123456789ABCDEF";
  const auto b = static_cast<unsigned char>(rest[0]);
  return std::string{'\\', 'x', kHex[b >> 4], kHex[b & 0xF]};
}

const std::unordered_map<std::string_view, TokenKind>& KeywordTable() {
  static const auto* kTable = new std::unordered_map<std::string_view,
                                                     TokenKind>{
      {"int", TokenKind::kKwInt},         {"long", TokenKind::kKwLong},
      {"double", TokenKind::kKwDouble},   {"boolean", TokenKind::kKwBoolean},
      {"char", TokenKind::kKwChar},       {"String", TokenKind::kKwString},
      {"void", TokenKind::kKwVoid},       {"if", TokenKind::kKwIf},
      {"else", TokenKind::kKwElse},       {"while", TokenKind::kKwWhile},
      {"for", TokenKind::kKwFor},         {"do", TokenKind::kKwDo},
      {"return", TokenKind::kKwReturn},   {"break", TokenKind::kKwBreak},
      {"continue", TokenKind::kKwContinue}, {"new", TokenKind::kKwNew},
      {"true", TokenKind::kKwTrue},       {"false", TokenKind::kKwFalse},
      {"null", TokenKind::kKwNull},       {"class", TokenKind::kKwClass},
      {"switch", TokenKind::kKwSwitch},   {"case", TokenKind::kKwCase},
      {"default", TokenKind::kKwDefault},
      {"public", TokenKind::kKwPublic},   {"private", TokenKind::kKwPrivate},
      {"static", TokenKind::kKwStatic},   {"final", TokenKind::kKwFinal},
  };
  return *kTable;
}

/// Lexes into a caller-owned vector: each token is built in its slot, and
/// identifiers, numbers and operators are spelled from the source view.
class LexerImpl {
 public:
  explicit LexerImpl(std::string_view source) : src_(source) {}

  Status Run(std::vector<Token>* tokens) {
    while (true) {
      JFEED_RETURN_IF_ERROR(SkipWhitespaceAndComments());
      Token& token = tokens->emplace_back();  // kEof until NextToken runs.
      token.line = line_;
      token.column = column_;
      if (AtEnd()) return Status::OK();
      JFEED_RETURN_IF_ERROR(NextToken(&token));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  /// Advance() over `n` bytes known to hold no newline.
  void Skip(size_t n) {
    pos_ += n;
    column_ += static_cast<int>(n);
  }
  void SkipDigits() {
    size_t end = pos_;
    while (end < src_.size() && IsDigit(src_[end])) ++end;
    Skip(end - pos_);
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at line " + std::to_string(line_) +
                              ", column " + std::to_string(column_));
  }

  Status SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (IsSpace(c)) {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        size_t end = src_.find('\n', pos_);
        Skip((end == std::string_view::npos ? src_.size() : end) - pos_);
      } else if (c == '/' && Peek(1) == '*') {
        Skip(2);
        while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
        if (AtEnd()) return Error("unterminated block comment");
        Skip(2);
      } else {
        break;
      }
    }
    return Status::OK();
  }

  /// Fills `*t`, whose line and column are already set.
  Status NextToken(Token* t) {
    char c = Peek();
    if (IsIdentifierStart(c)) return LexIdentifier(t);
    if (IsDigit(c)) return LexNumber(t);
    if (c == '"') return LexString(t);
    if (c == '\'') return LexChar(t);
    return LexOperator(t);
  }

  Status LexIdentifier(Token* t) {
    size_t end = pos_ + 1;
    while (end < src_.size() && IsIdentifierPart(src_[end])) ++end;
    std::string_view text = src_.substr(pos_, end - pos_);
    Skip(text.size());
    auto it = KeywordTable().find(text);
    t->kind = it != KeywordTable().end() ? it->second : TokenKind::kIdentifier;
    t->text.assign(text);
    return Status::OK();
  }

  Status LexNumber(Token* t) {
    const size_t start = pos_;
    bool is_double = false;
    SkipDigits();
    if (Peek() == '.' && IsDigit(Peek(1))) {
      is_double = true;
      Skip(1);
      SkipDigits();
    }
    if (Peek() == 'e' || Peek() == 'E') {
      size_t ahead = 1;
      if (Peek(1) == '+' || Peek(1) == '-') ahead = 2;
      if (IsDigit(Peek(ahead))) {
        is_double = true;
        Skip(ahead);
        SkipDigits();
      }
    }
    if (is_double) {
      t->kind = TokenKind::kDoubleLiteral;
      t->text.assign(src_.substr(start, pos_ - start));
      errno = 0;
      t->double_value = std::strtod(t->text.c_str(), nullptr);
      // As in Java, a literal that rounds to infinity, or from nonzero
      // digits to zero, is an error; a subnormal value (also ERANGE) is not.
      if (errno == ERANGE &&
          (std::isinf(t->double_value) || t->double_value == 0.0)) {
        return Error("double literal out of range: " + t->text);
      }
      return Status::OK();
    }
    const size_t digits_end = pos_;
    bool is_long = false;
    if (Peek() == 'L' || Peek() == 'l') {
      is_long = true;
      Skip(1);
    }
    t->kind = is_long ? TokenKind::kLongLiteral : TokenKind::kIntLiteral;
    t->text.assign(src_.substr(start, pos_ - start));
    auto parsed = std::from_chars(src_.data() + start, src_.data() + digits_end,
                                  t->int_value);
    if (parsed.ec != std::errc()) {
      return Error("integer literal out of range: " + t->text);
    }
    return Status::OK();
  }

  Status LexString(Token* t) {
    const size_t start = pos_;
    Advance();  // Opening quote.
    std::string& value = t->string_value;
    while (!AtEnd() && Peek() != '"') {
      char c = Advance();
      if (c == '\\') {
        if (AtEnd()) return Error("unterminated string literal");
        char esc = Advance();
        switch (esc) {
          case 'n': value.push_back('\n'); break;
          case 't': value.push_back('\t'); break;
          case 'r': value.push_back('\r'); break;
          case '\\': value.push_back('\\'); break;
          case '"': value.push_back('"'); break;
          case '\'': value.push_back('\''); break;
          case '0': value.push_back('\0'); break;
          default:
            return Error("unsupported escape \\" +
                         CharForMessage(src_.substr(pos_ - 1)));
        }
      } else if (c == '\n') {
        return Error("unterminated string literal");
      } else {
        value.push_back(c);
      }
    }
    if (AtEnd()) return Error("unterminated string literal");
    Advance();  // Closing quote.
    t->kind = TokenKind::kStringLiteral;
    t->text.assign(src_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status LexChar(Token* t) {
    Advance();  // Opening quote.
    if (AtEnd()) return Error("unterminated char literal");
    char c = Advance();
    if (c == '\\') {
      if (AtEnd()) return Error("unterminated char literal");
      char esc = Advance();
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '\\': c = '\\'; break;
        case '\'': c = '\''; break;
        case '"': c = '"'; break;
        case '0': c = '\0'; break;
        default:
          return Error("unsupported escape \\" +
                       CharForMessage(src_.substr(pos_ - 1)));
      }
    }
    if (AtEnd() || Peek() != '\'') return Error("unterminated char literal");
    Advance();  // Closing quote.
    t->kind = TokenKind::kCharLiteral;
    t->text.assign(1, c);
    t->int_value = static_cast<unsigned char>(c);
    return Status::OK();
  }

  Status LexOperator(Token* t) {
    const size_t start = pos_;
    const char c = Peek();
    Skip(1);  // Whitespace, newlines included, was skipped before.
    // `c` followed by `second` is `with`; `c` alone is `without`.
    auto two = [&](char second, TokenKind with, TokenKind without) {
      if (Peek() == second) {
        Skip(1);
        return with;
      }
      return without;
    };
    switch (c) {
      case '(': t->kind = TokenKind::kLParen; break;
      case ')': t->kind = TokenKind::kRParen; break;
      case '{': t->kind = TokenKind::kLBrace; break;
      case '}': t->kind = TokenKind::kRBrace; break;
      case '[': t->kind = TokenKind::kLBracket; break;
      case ']': t->kind = TokenKind::kRBracket; break;
      case ';': t->kind = TokenKind::kSemi; break;
      case ',': t->kind = TokenKind::kComma; break;
      case '.': t->kind = TokenKind::kDot; break;
      case '?': t->kind = TokenKind::kQuestion; break;
      case ':': t->kind = TokenKind::kColon; break;
      case '+':
        t->kind = Peek() == '+'
                      ? two('+', TokenKind::kPlusPlus, TokenKind::kPlus)
                      : two('=', TokenKind::kPlusAssign, TokenKind::kPlus);
        break;
      case '-':
        t->kind = Peek() == '-'
                      ? two('-', TokenKind::kMinusMinus, TokenKind::kMinus)
                      : two('=', TokenKind::kMinusAssign, TokenKind::kMinus);
        break;
      case '*':
        t->kind = two('=', TokenKind::kStarAssign, TokenKind::kStar);
        break;
      case '/':
        t->kind = two('=', TokenKind::kSlashAssign, TokenKind::kSlash);
        break;
      case '%':
        t->kind = two('=', TokenKind::kPercentAssign, TokenKind::kPercent);
        break;
      case '<': t->kind = two('=', TokenKind::kLe, TokenKind::kLt); break;
      case '>': t->kind = two('=', TokenKind::kGe, TokenKind::kGt); break;
      case '=': t->kind = two('=', TokenKind::kEq, TokenKind::kAssign); break;
      case '!': t->kind = two('=', TokenKind::kNe, TokenKind::kNot); break;
      case '&':
        if (Peek() != '&') return Error("bitwise '&' is not supported");
        Skip(1);
        t->kind = TokenKind::kAndAnd;
        break;
      case '|':
        if (Peek() != '|') return Error("bitwise '|' is not supported");
        Skip(1);
        t->kind = TokenKind::kOrOr;
        break;
      default:
        return Error("unexpected character '" +
                     CharForMessage(src_.substr(start)) + "'");
    }
    t->text.assign(src_.substr(start, pos_ - start));
    return Status::OK();
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<std::vector<Token>> Lex(std::string_view source) {
  JFEED_FAULT_POINT(fault::points::kLexer);
  std::vector<Token> tokens;
  JFEED_RETURN_IF_ERROR(LexerImpl(source).Run(&tokens));
  return tokens;
}

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "<eof>";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kIntLiteral: return "int literal";
    case TokenKind::kLongLiteral: return "long literal";
    case TokenKind::kDoubleLiteral: return "double literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kCharLiteral: return "char literal";
    case TokenKind::kKwInt: return "'int'";
    case TokenKind::kKwLong: return "'long'";
    case TokenKind::kKwDouble: return "'double'";
    case TokenKind::kKwBoolean: return "'boolean'";
    case TokenKind::kKwChar: return "'char'";
    case TokenKind::kKwString: return "'String'";
    case TokenKind::kKwVoid: return "'void'";
    case TokenKind::kKwIf: return "'if'";
    case TokenKind::kKwElse: return "'else'";
    case TokenKind::kKwWhile: return "'while'";
    case TokenKind::kKwFor: return "'for'";
    case TokenKind::kKwDo: return "'do'";
    case TokenKind::kKwReturn: return "'return'";
    case TokenKind::kKwBreak: return "'break'";
    case TokenKind::kKwContinue: return "'continue'";
    case TokenKind::kKwNew: return "'new'";
    case TokenKind::kKwTrue: return "'true'";
    case TokenKind::kKwFalse: return "'false'";
    case TokenKind::kKwNull: return "'null'";
    case TokenKind::kKwClass: return "'class'";
    case TokenKind::kKwSwitch: return "'switch'";
    case TokenKind::kKwCase: return "'case'";
    case TokenKind::kKwDefault: return "'default'";
    case TokenKind::kKwPublic: return "'public'";
    case TokenKind::kKwPrivate: return "'private'";
    case TokenKind::kKwStatic: return "'static'";
    case TokenKind::kKwFinal: return "'final'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kSemi: return "';'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kSlashAssign: return "'/='";
    case TokenKind::kPercentAssign: return "'%='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kNot: return "'!'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kColon: return "':'";
  }
  return "<unknown>";
}

}  // namespace jfeed::java
