#include "ast/ast.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace gdlog {

std::string SourceLoc::ToString() const {
  if (!valid()) return "unknown location";
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

bool IsArithmeticFunctor(const std::string& name) {
  return name == "+" || name == "-" || name == "*" || name == "/" ||
         name == "mod" || name == "min" || name == "max";
}

void CollectVariables(const TermNode& t, std::vector<std::string>* out) {
  switch (t.kind) {
    case TermKind::kVariable:
      out->push_back(t.name);
      break;
    case TermKind::kConstant:
      break;
    case TermKind::kCompound:
      for (const TermNode& a : t.args) CollectVariables(a, out);
      break;
  }
}

bool TermEquals(const TermNode& a, const TermNode& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case TermKind::kVariable:
      return a.name == b.name;
    case TermKind::kConstant:
      return a.constant == b.constant;
    case TermKind::kCompound: {
      if (a.name != b.name || a.args.size() != b.args.size()) return false;
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!TermEquals(a.args[i], b.args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::string_view ComparisonOpName(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

ComparisonOp FlipComparison(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kEq;
    case ComparisonOp::kNe:
      return ComparisonOp::kNe;
    case ComparisonOp::kLt:
      return ComparisonOp::kGt;
    case ComparisonOp::kLe:
      return ComparisonOp::kGe;
    case ComparisonOp::kGt:
      return ComparisonOp::kLt;
    case ComparisonOp::kGe:
      return ComparisonOp::kLe;
  }
  return op;
}

ComparisonOp NegateComparison(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kNe;
    case ComparisonOp::kNe:
      return ComparisonOp::kEq;
    case ComparisonOp::kLt:
      return ComparisonOp::kGe;
    case ComparisonOp::kLe:
      return ComparisonOp::kGt;
    case ComparisonOp::kGt:
      return ComparisonOp::kLe;
    case ComparisonOp::kGe:
      return ComparisonOp::kLt;
  }
  return op;
}

void CollectLiteralVariables(const Literal& lit,
                             std::vector<std::string>* out) {
  for (const TermNode& t : lit.args) CollectVariables(t, out);
  for (const Literal& inner : lit.body) CollectLiteralVariables(inner, out);
}

bool Rule::has_next() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kNext;
  });
}

bool Rule::has_choice() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kChoice;
  });
}

bool Rule::has_extrema() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kLeast || l.kind == LiteralKind::kMost;
  });
}

std::vector<Program::PredicateRef> Program::AllPredicates() const {
  std::vector<PredicateRef> out;
  auto add = [&out](const std::string& name, uint32_t arity) {
    PredicateRef ref{name, arity};
    if (std::find(out.begin(), out.end(), ref) == out.end()) {
      out.push_back(std::move(ref));
    }
  };
  // Recursion over literals to reach atoms under NotExists.
  std::function<void(const Literal&)> visit = [&](const Literal& l) {
    if (l.kind == LiteralKind::kAtom) {
      add(l.predicate, static_cast<uint32_t>(l.args.size()));
    }
    for (const Literal& inner : l.body) visit(inner);
  };
  VisitInSourceOrder(
      *this, facts,
      [&](const FactBlock& b) { add(b.predicate, b.arity); },
      [&](size_t i) {
        visit(rules[i].head);
        for (const Literal& l : rules[i].body) visit(l);
      });
  return out;
}

}  // namespace gdlog
