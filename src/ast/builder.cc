#include "ast/builder.h"

namespace gdlog {

TermNode V(std::string name) { return TermNode::Var(std::move(name)); }

TermNode C(int64_t v) { return TermNode::Const(Value::Int(v)); }

TermNode Sym(ValueStore* store, std::string_view name) {
  return TermNode::Const(store->MakeSymbol(name));
}

TermNode NilTerm() { return TermNode::Const(Value::Nil()); }

TermNode Tup(std::vector<TermNode> args) {
  return TermNode::Tuple(std::move(args));
}

TermNode Fn(std::string functor, std::vector<TermNode> args) {
  return TermNode::Compound(std::move(functor), std::move(args));
}

Literal Atom(std::string pred, std::vector<TermNode> args) {
  return Literal::Atom(std::move(pred), std::move(args), /*neg=*/false);
}

Literal NegAtom(std::string pred, std::vector<TermNode> args) {
  return Literal::Atom(std::move(pred), std::move(args), /*neg=*/true);
}

Rule MakeRule(Literal head, std::vector<Literal> body) {
  Rule r;
  r.head = std::move(head);
  r.body = std::move(body);
  return r;
}

}  // namespace gdlog
