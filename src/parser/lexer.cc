#include "parser/lexer.h"

#include <cctype>

#include "analysis/diagnostics.h"
#include "value/value.h"

namespace gdlog {

std::string_view TokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kVariable:
      return "variable";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kArrow:
      return "'<-'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kEof:
      return "end of input";
    case TokenKind::kError:
      return "invalid token";
  }
  return "?";
}

Status Lexer::Next(Token* tok) {
  GDLOG_RETURN_IF_ERROR(SkipWhitespaceAndComments());
  *tok = Token{};
  tok->line = line_;
  tok->column = column_;
  if (AtEnd()) {
    tok->kind = TokenKind::kEof;
    return Status::OK();
  }
  const char c = Peek();
  if (std::isdigit(static_cast<unsigned char>(c))) {
    return LexInteger(tok);
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    LexWord(tok);
    return Status::OK();
  }
  if (c == '"') return LexString(tok);
  return LexPunct(tok);
}

char Lexer::Advance() {
  const char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

Status Lexer::Error(const std::string& what) const {
  return Status::ParseError(what + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
}

Status Lexer::SkipWhitespaceAndComments() {
  for (;;) {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    if (Peek() == '%' || (Peek() == '/' && Peek(1) == '/')) {
      while (!AtEnd() && Peek() != '\n') Advance();
      continue;
    }
    if (Peek() == '/' && Peek(1) == '*') {
      Advance();
      Advance();
      while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
      if (AtEnd()) return Error("unterminated block comment");
      Advance();
      Advance();
      continue;
    }
    return Status::OK();
  }
}

Status Lexer::LexInteger(Token* tok) {
  tok->kind = TokenKind::kInteger;
  int64_t v = 0;
  bool overflow = false;
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
    const int d = Advance() - '0';
    if (v > (INT64_MAX - d) / 10) overflow = true;
    if (!overflow) v = v * 10 + d;
  }
  // Checked against Value's inline-int payload (61 bits), not int64:
  // a literal the lexer accepts must be representable downstream, or
  // Value::Int would hit its range invariant.
  if (overflow || !Value::IntInRange(v)) {
    return Error(std::string("[") + std::string(diag::kIntLiteralRange) +
                 "] integer literal out of range (inline ints span [" +
                 std::to_string(Value::kMinInt) + ", " +
                 std::to_string(Value::kMaxInt) + "])");
  }
  tok->int_value = v;
  return Status::OK();
}

void Lexer::LexWord(Token* tok) {
  const size_t start = pos_;
  while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                      Peek() == '_')) {
    ++pos_;
  }
  column_ += static_cast<int>(pos_ - start);  // a word never spans lines
  tok->text = src_.substr(start, pos_ - start);
  const char first = tok->text[0];
  tok->kind = (std::isupper(static_cast<unsigned char>(first)) || first == '_')
                  ? TokenKind::kVariable
                  : TokenKind::kIdent;
}

Status Lexer::LexString(Token* tok) {
  Advance();  // opening quote
  const size_t start = pos_;
  bool escaped = false;
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\' && !AtEnd()) {
      if (!escaped) {
        // First escape: copy the plain prefix, unescape from here on.
        scratch_.assign(src_.substr(start, pos_ - 1 - start));
        escaped = true;
      }
      const char esc = Advance();
      switch (esc) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case '\\':
          c = '\\';
          break;
        case '"':
          c = '"';
          break;
        default:
          return Error(std::string("unknown escape '\\") + esc + "'");
      }
    }
    if (escaped) scratch_ += c;
  }
  if (AtEnd()) return Error("unterminated string literal");
  tok->text = escaped ? std::string_view(scratch_)
                      : src_.substr(start, pos_ - start);
  Advance();  // closing quote
  tok->kind = TokenKind::kString;
  return Status::OK();
}

Status Lexer::LexPunct(Token* tok) {
  const char c = Advance();
  switch (c) {
    case '(':
      tok->kind = TokenKind::kLParen;
      return Status::OK();
    case ')':
      tok->kind = TokenKind::kRParen;
      return Status::OK();
    case ',':
      tok->kind = TokenKind::kComma;
      return Status::OK();
    case '.':
      tok->kind = TokenKind::kDot;
      return Status::OK();
    case '+':
      tok->kind = TokenKind::kPlus;
      return Status::OK();
    case '-':
      tok->kind = TokenKind::kMinus;
      return Status::OK();
    case '*':
      tok->kind = TokenKind::kStar;
      return Status::OK();
    case '/':
      tok->kind = TokenKind::kSlash;
      return Status::OK();
    case '=':
      tok->kind = TokenKind::kEq;
      return Status::OK();
    case '!':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      return Error("expected '=' after '!'");
    case ':':
      if (Peek() == '-') {
        Advance();
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      return Error("expected '-' after ':'");
    case '<':
      if (Peek() == '-') {
        Advance();
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kLe;
        return Status::OK();
      }
      if (Peek() == '>') {
        Advance();
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      tok->kind = TokenKind::kLt;
      return Status::OK();
    case '>':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kGe;
        return Status::OK();
      }
      tok->kind = TokenKind::kGt;
      return Status::OK();
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
}

}  // namespace gdlog
