// Fluent helpers for constructing AST fragments programmatically —
// used by the rewriter (which synthesizes chosen/diffChoice rules) and
// by tests that want rules without going through the parser.
#ifndef GDLOG_AST_BUILDER_H_
#define GDLOG_AST_BUILDER_H_

#include <string>
#include <vector>

#include "ast/ast.h"

namespace gdlog {

/// Variable term.
TermNode V(std::string name);
/// Integer constant term.
TermNode C(int64_t v);
/// Symbol constant term (interned in `store`).
TermNode Sym(ValueStore* store, std::string_view name);
/// The constant nil.
TermNode NilTerm();
/// Tuple term (X, Y, ...).
TermNode Tup(std::vector<TermNode> args);
/// Compound term f(args...).
TermNode Fn(std::string functor, std::vector<TermNode> args);

/// Positive atom literal.
Literal Atom(std::string pred, std::vector<TermNode> args);
/// Negated atom literal.
Literal NegAtom(std::string pred, std::vector<TermNode> args);

/// A rule head <- body.
Rule MakeRule(Literal head, std::vector<Literal> body);

}  // namespace gdlog

#endif  // GDLOG_AST_BUILDER_H_
