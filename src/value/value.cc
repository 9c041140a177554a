#include "value/value.h"

#include <memory>
#include <charconv>

#include "value/symbol_table.h"
#include "value/term_table.h"

namespace gdlog {

ValueStore::ValueStore()
    : symbols_(std::make_unique<SymbolTable>()),
      terms_(std::make_unique<TermTable>()) {
  tuple_functor_ = symbols_->Intern("$tuple");
}

ValueStore::~ValueStore() = default;

void ValueStore::set_memory_budget(MemoryBudget* budget) {
  symbols_->set_memory_budget(budget);
  terms_->set_memory_budget(budget);
}

Value ValueStore::MakeSymbol(std::string_view name) {
  return Value::Symbol(symbols_->Intern(name));
}

Value ValueStore::MakeTerm(std::string_view functor,
                           std::span<const Value> args) {
  return MakeTerm(symbols_->Intern(functor), args);
}

Value ValueStore::MakeTerm(SymbolId functor, std::span<const Value> args) {
  return Value::Term(terms_->Intern(functor, args));
}

Value ValueStore::MakeTuple(std::span<const Value> args) {
  return Value::Term(terms_->Intern(tuple_functor_, args));
}

std::string_view ValueStore::SymbolName(SymbolId id) const {
  return symbols_->Name(id);
}

SymbolId ValueStore::TermFunctor(TermId id) const {
  return terms_->Functor(id);
}

std::span<const Value> ValueStore::TermArgs(TermId id) const {
  return terms_->Args(id);
}

bool ValueStore::IsTuple(Value v) const {
  return v.is_term() && terms_->Functor(v.AsTermId()) == tuple_functor_;
}

namespace {
// Rank in the semantic cross-kind order: nil < int < symbol < term.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNil:
      return 0;
    case ValueKind::kInt:
      return 1;
    case ValueKind::kSymbol:
      return 2;
    case ValueKind::kTerm:
      return 3;
  }
  return 4;
}
}  // namespace

int ValueStore::Compare(Value a, Value b) const {
  if (a == b) return 0;
  const int ra = KindRank(a.kind());
  const int rb = KindRank(b.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.kind()) {
    case ValueKind::kNil:
      return 0;
    case ValueKind::kInt: {
      const int64_t x = a.AsInt();
      const int64_t y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueKind::kSymbol: {
      const int c = SymbolName(a.AsSymbolId()).compare(SymbolName(b.AsSymbolId()));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueKind::kTerm: {
      const TermId ta = a.AsTermId();
      const TermId tb = b.AsTermId();
      const int fc =
          SymbolName(terms_->Functor(ta)).compare(SymbolName(terms_->Functor(tb)));
      if (fc != 0) return fc < 0 ? -1 : 1;
      auto xs = terms_->Args(ta);
      auto ys = terms_->Args(tb);
      if (xs.size() != ys.size()) return xs.size() < ys.size() ? -1 : 1;
      for (size_t i = 0; i < xs.size(); ++i) {
        const int c = Compare(xs[i], ys[i]);
        if (c != 0) return c;
      }
      return 0;
    }
  }
  return 0;
}

std::string ValueStore::ToString(Value v) const {
  std::string out;
  AppendTo(v, &out);
  return out;
}

void ValueStore::AppendTo(Value v, std::string* out) const {
  switch (v.kind()) {
    case ValueKind::kNil:
      out->append("nil");
      return;
    case ValueKind::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), v.AsInt());
      out->append(buf, res.ptr);
      return;
    }
    case ValueKind::kSymbol:
      out->append(SymbolName(v.AsSymbolId()));
      return;
    case ValueKind::kTerm: {
      const TermId id = v.AsTermId();
      const SymbolId functor = terms_->Functor(id);
      if (functor != tuple_functor_) out->append(SymbolName(functor));
      out->push_back('(');
      auto args = terms_->Args(id);
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out->push_back(',');
        AppendTo(args[i], out);
      }
      out->push_back(')');
      return;
    }
  }
  out->push_back('?');
}

size_t ValueStore::num_symbols() const { return symbols_->size(); }
size_t ValueStore::num_terms() const { return terms_->size(); }

}  // namespace gdlog
