// Lexer for the choice-Datalog surface syntax.
//
// Token classes: lowercase identifiers (predicate/functor/constant names
// and the keywords not/nil/choice/least/most/next/mod/min/max), variables
// (uppercase or `_` start), integers, double-quoted strings, and
// punctuation. Comments: `%` and `//` to end of line, `/* ... */`.
// The parser pulls tokens one at a time (Lexer::Next), so a program's
// text is never held as a token vector.
#ifndef GDLOG_PARSER_LEXER_H_
#define GDLOG_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gdlog {

enum class TokenKind : uint8_t {
  kIdent,     // lowercase-start identifier
  kVariable,  // uppercase- or underscore-start identifier
  kInteger,
  kString,    // "..." (content without quotes)
  kLParen,
  kRParen,
  kComma,
  kDot,
  kArrow,     // <- or :-
  kEq,        // =
  kNe,        // != or <>
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEof,
  kError,    // never lexed: the parser's marker for a failed Next
};

std::string_view TokenKindName(TokenKind k);

struct Token {
  TokenKind kind = TokenKind::kEof;
  // Identifier / variable name or string content. Views the source text,
  // or — for a string with escapes — the lexer's scratch buffer, which
  // the next token overwrites.
  std::string_view text;
  int64_t int_value = 0;
  int line = 1;
  int column = 1;
};

/// Streams tokens out of `source` one at a time; nothing is allocated
/// per token. After the last token Next yields kEof forever.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// Lexes the next token into `tok`, or returns a ParseError naming the
  /// offending line/column.
  Status Next(Token* tok);

  /// A resumable position: Reset(mark()) re-lexes from the same place.
  struct Mark {
    size_t pos = 0;
    int line = 1;
    int column = 1;
  };
  Mark mark() const { return {pos_, line_, column_}; }
  void Reset(const Mark& m) {
    pos_ = m.pos;
    line_ = m.line;
    column_ = m.column;
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance();
  Status Error(const std::string& what) const;
  Status SkipWhitespaceAndComments();
  Status LexInteger(Token* tok);
  void LexWord(Token* tok);
  Status LexString(Token* tok);
  Status LexPunct(Token* tok);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  std::string scratch_;  // unescaped content of the last string token
};

}  // namespace gdlog

#endif  // GDLOG_PARSER_LEXER_H_
