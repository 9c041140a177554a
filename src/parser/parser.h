// Recursive-descent parser producing AST Programs.
//
// Grammar (see README for the full language reference):
//
//   program  := { rule }
//   rule     := atom [ ("<-" | ":-") body ] "."
//   body     := literal { "," literal }
//   literal  := "not" atom
//             | "not" "(" body ")"
//             | "choice" "(" term "," term ")"
//             | "least" "(" term [ "," term ] ")"
//             | "most"  "(" term [ "," term ] ")"
//             | "next" "(" VARIABLE ")"
//             | atom
//             | expr compop expr
//   expr     := additive arithmetic over primaries
//   primary  := INTEGER | VARIABLE | "nil" | STRING
//             | IDENT [ "(" expr {"," expr} ")" ]
//             | "(" ")" | "(" expr {"," expr} ")"     (tuple if 0 or 2+,
//                                                      grouping if exactly 1)
//             | "-" primary
//
// Anonymous variables `_` are renamed apart per occurrence. A ground
// atom with no body is a fact: it lands in Program::facts as Values,
// never as a Rule.
#ifndef GDLOG_PARSER_PARSER_H_
#define GDLOG_PARSER_PARSER_H_

#include <string_view>

#include "ast/ast.h"
#include "common/status.h"

namespace gdlog {

/// Parses a full program. Constants (and the terms of ground facts) are
/// interned into `store`. Rules are numbered by source statement.
Result<Program> ParseProgram(ValueStore* store, std::string_view source);

/// Parses a single rule (convenience for tests).
Result<Rule> ParseRule(ValueStore* store, std::string_view source);

}  // namespace gdlog

#endif  // GDLOG_PARSER_PARSER_H_
