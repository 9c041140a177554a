#include "parser/parser.h"

#include <cstdint>
#include <span>
#include <unordered_map>

#include "parser/lexer.h"

namespace gdlog {

namespace {

bool IsComparisonToken(TokenKind k) {
  switch (k) {
    case TokenKind::kEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

ComparisonOp ToComparisonOp(TokenKind k) {
  switch (k) {
    case TokenKind::kEq:
      return ComparisonOp::kEq;
    case TokenKind::kNe:
      return ComparisonOp::kNe;
    case TokenKind::kLt:
      return ComparisonOp::kLt;
    case TokenKind::kLe:
      return ComparisonOp::kLe;
    case TokenKind::kGt:
      return ComparisonOp::kGt;
    default:
      return ComparisonOp::kGe;
  }
}

class Parser {
 public:
  Parser(ValueStore* store, std::string_view source)
      : store_(store), lexer_(source) {
    Advance();
  }

  Result<Program> ParseProgram() {
    Program prog;
    for (uint32_t statement = 0; !Check(TokenKind::kEof); ++statement) {
      if (TryParseFact(statement, &prog)) continue;
      Result<Rule> rule = ParseOneRule();
      if (!rule.ok()) return Fail(rule.status());
      rule->number = statement;
      prog.rules.push_back(std::move(*rule));
    }
    return prog;
  }

  Result<Rule> ParseSingleRule() {
    Result<Rule> rule = ParseOneRule();
    if (!rule.ok()) return Fail(rule.status());
    if (!Check(TokenKind::kEof)) {
      return Fail(Error("trailing input after rule"));
    }
    return rule;
  }

 private:
  const Token& Peek() const { return tok_; }
  bool Check(TokenKind k) const { return tok_.kind == k; }
  /// Moves to the next token. A lexer error parks the parser on a sticky
  /// kError token, which no grammar rule accepts; Fail reports the error.
  void Advance() {
    if (tok_.kind == TokenKind::kError) return;
    Status st = lexer_.Next(&tok_);
    if (!st.ok()) {
      lex_error_ = std::move(st);
      tok_.kind = TokenKind::kError;
    }
  }
  bool Match(TokenKind k) {
    if (!Check(k)) return false;
    Advance();
    return true;
  }

  /// The status for a failed parse. Lexer errors win over parse errors,
  /// wherever in the text they are, as when the whole text was lexed
  /// before parsing: scan the rest of the input for one.
  Status Fail(Status parse_error) {
    if (!lex_error_.ok()) return lex_error_;
    Token t;
    for (;;) {
      Status st = lexer_.Next(&t);
      if (!st.ok()) return st;
      if (t.kind == TokenKind::kEof) return parse_error;
    }
  }

  Status Error(const std::string& what) const {
    const Token& t = Peek();
    return Status::ParseError(what + " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) +
                              " (found " +
                              std::string(TokenKindName(t.kind)) + ")");
  }

  Status Expect(TokenKind k, const char* context) {
    if (Match(k)) return Status::OK();
    return Error(std::string("expected ") + std::string(TokenKindName(k)) +
                 " " + context);
  }

  // -- Ground facts ----------------------------------------------------------
  //
  // A statement that is a ground atom followed by '.' goes straight into
  // its predicate's FactBlock: no Rule, Literal or TermNode is built.
  // Anything else — a rule, a fact with a variable, a syntax error —
  // rewinds to the statement start for the rule parser, which also
  // reports any error exactly as it always has.

  bool TryParseFact(uint32_t statement, Program* prog) {
    if (!Check(TokenKind::kIdent)) return false;
    const Token first = tok_;  // an identifier views the source text
    const Lexer::Mark after_first = lexer_.mark();
    fact_values_.clear();
    Advance();
    bool ground = true;
    if (Match(TokenKind::kLParen) && !Match(TokenKind::kRParen)) {
      do {
        Value v;
        ground = GroundExpr(&v);
        if (ground) fact_values_.push_back(v);
      } while (ground && Match(TokenKind::kComma));
      ground = ground && Match(TokenKind::kRParen);
    }
    if (!ground || !Check(TokenKind::kDot)) {
      tok_ = first;
      lexer_.Reset(after_first);
      lex_error_ = Status::OK();
      term_args_.clear();
      return false;
    }
    Advance();
    FactBlock& block =
        BlockFor(first.text, static_cast<uint32_t>(fact_values_.size()),
                 statement, LocOf(first), prog);
    block.values.insert(block.values.end(), fact_values_.begin(),
                        fact_values_.end());
    ++block.rows;
    return true;
  }

  FactBlock& BlockFor(std::string_view name, uint32_t arity,
                      uint32_t statement, SourceLoc loc, Program* prog) {
    if (last_block_ < prog->facts.size()) {
      FactBlock& last = prog->facts[last_block_];
      if (last.arity == arity && last.predicate == name) return last;
    }
    const auto [it, inserted] = block_index_.try_emplace(
        BlockKey{name, arity}, static_cast<uint32_t>(prog->facts.size()));
    if (inserted) {
      FactBlock& b = prog->facts.emplace_back();
      b.predicate = std::string(name);
      b.arity = arity;
      b.first_statement = statement;
      b.loc = loc;
    }
    last_block_ = it->second;
    return prog->facts[last_block_];
  }

  // The ground forms of ParseExpr/ParseMul/ParsePrimary. A fact's
  // arguments are values, not expressions: an operator builds a term
  // (p(1+2) holds the term +(1,2)), exactly as facts were always loaded.
  // False on a variable or on anything the rule parser must diagnose.

  bool GroundExpr(Value* out) {
    if (!GroundMul(out)) return false;
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const std::string_view op = Check(TokenKind::kPlus) ? "+" : "-";
      Advance();
      Value rhs;
      if (!GroundMul(&rhs)) return false;
      *out = GroundBinary(op, *out, rhs);
    }
    return true;
  }

  bool GroundMul(Value* out) {
    if (!GroundPrimary(out)) return false;
    for (;;) {
      std::string_view op;
      if (Check(TokenKind::kStar)) {
        op = "*";
      } else if (Check(TokenKind::kSlash)) {
        op = "/";
      } else if (Check(TokenKind::kIdent) && Peek().text == "mod") {
        op = "mod";
      } else {
        return true;
      }
      Advance();
      Value rhs;
      if (!GroundPrimary(&rhs)) return false;
      *out = GroundBinary(op, *out, rhs);
    }
  }

  Value GroundBinary(std::string_view op, Value lhs, Value rhs) {
    const Value args[2] = {lhs, rhs};
    return store_->MakeTerm(op, args);
  }

  bool GroundPrimary(Value* out) {
    switch (Peek().kind) {
      case TokenKind::kInteger:
        *out = Value::Int(Peek().int_value);
        Advance();
        return true;
      case TokenKind::kMinus: {
        Advance();
        Value inner;
        if (!GroundPrimary(&inner)) return false;
        *out = inner.is_int() ? Value::Int(-inner.AsInt())
                              : GroundBinary("-", Value::Int(0), inner);
        return true;
      }
      case TokenKind::kString:
        *out = store_->MakeSymbol(Peek().text);
        Advance();
        return true;
      case TokenKind::kIdent: {
        const std::string_view name = Peek().text;
        Advance();
        if (name == "nil") {
          *out = Value::Nil();
          return true;
        }
        if (!Match(TokenKind::kLParen)) {
          *out = store_->MakeSymbol(name);
          return true;
        }
        const size_t base = term_args_.size();
        if (!Check(TokenKind::kRParen) && !GroundList()) return false;
        if (!Match(TokenKind::kRParen)) return false;
        *out = store_->MakeTerm(name, TermArgs(base));
        term_args_.resize(base);
        return true;
      }
      case TokenKind::kLParen: {
        Advance();
        // () is the empty tuple; (e) is grouping; (e1, e2, ...) a tuple.
        const size_t base = term_args_.size();
        if (!Check(TokenKind::kRParen) && !GroundList()) return false;
        if (!Match(TokenKind::kRParen)) return false;
        *out = term_args_.size() - base == 1 ? term_args_[base]
                                             : store_->MakeTuple(TermArgs(base));
        term_args_.resize(base);
        return true;
      }
      default:
        return false;
    }
  }

  /// expr {"," expr}, pushed onto term_args_.
  bool GroundList() {
    do {
      Value v;
      if (!GroundExpr(&v)) return false;
      term_args_.push_back(v);
    } while (Match(TokenKind::kComma));
    return true;
  }

  std::span<const Value> TermArgs(size_t base) const {
    return {term_args_.data() + base, term_args_.size() - base};
  }

  // -- Rules -----------------------------------------------------------------

  std::string FreshAnonymous() {
    return "_G" + std::to_string(anon_counter_++);
  }

  static SourceLoc LocOf(const Token& t) { return SourceLoc{t.line, t.column}; }

  Result<Rule> ParseOneRule() {
    anon_counter_ = 0;
    const SourceLoc loc = LocOf(Peek());
    GDLOG_ASSIGN_OR_RETURN(Literal head, ParseAtom(/*negated=*/false));
    Rule rule;
    rule.loc = loc;
    rule.head = std::move(head);
    if (Match(TokenKind::kArrow)) {
      GDLOG_ASSIGN_OR_RETURN(rule.body, ParseBody());
    }
    GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kDot, "to end rule"));
    return rule;
  }

  Result<std::vector<Literal>> ParseBody() {
    std::vector<Literal> body;
    do {
      GDLOG_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      body.push_back(std::move(lit));
    } while (Match(TokenKind::kComma));
    return body;
  }

  Result<Literal> ParseLiteral() {
    const SourceLoc loc = LocOf(Peek());
    GDLOG_ASSIGN_OR_RETURN(Literal lit, ParseLiteralImpl());
    lit.loc = loc;
    return lit;
  }

  Result<Literal> ParseLiteralImpl() {
    if (Check(TokenKind::kIdent)) {
      const std::string_view word = Peek().text;
      if (word == "not") {
        Advance();
        if (Match(TokenKind::kLParen)) {
          GDLOG_ASSIGN_OR_RETURN(std::vector<Literal> conj, ParseBody());
          GDLOG_RETURN_IF_ERROR(
              Expect(TokenKind::kRParen, "to close 'not ('"));
          // `not (single_atom)` is just a negated atom.
          if (conj.size() == 1 && conj[0].kind == LiteralKind::kAtom &&
              !conj[0].negated) {
            conj[0].negated = true;
            return std::move(conj[0]);
          }
          return Literal::NotExists(std::move(conj));
        }
        return ParseAtom(/*negated=*/true);
      }
      if (word == "choice") {
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after 'choice'"));
        GDLOG_ASSIGN_OR_RETURN(TermNode left, ParseExpr());
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kComma, "between choice arguments"));
        GDLOG_ASSIGN_OR_RETURN(TermNode right, ParseExpr());
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close 'choice('"));
        return Literal::Choice(std::move(left), std::move(right));
      }
      if (word == "least" || word == "most") {
        const bool is_least = word == "least";
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after extremum"));
        GDLOG_ASSIGN_OR_RETURN(TermNode cost, ParseExpr());
        TermNode group = TermNode::Tuple({});
        if (Match(TokenKind::kComma)) {
          GDLOG_ASSIGN_OR_RETURN(group, ParseExpr());
        }
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close extremum goal"));
        return is_least ? Literal::Least(std::move(cost), std::move(group))
                        : Literal::Most(std::move(cost), std::move(group));
      }
      if (word == "next") {
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after 'next'"));
        if (!Check(TokenKind::kVariable)) {
          return Error("next(...) takes a single variable");
        }
        TermNode var = TermNode::Var(Peek().text == "_"
                                         ? FreshAnonymous()
                                         : std::string(Peek().text));
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close 'next('"));
        return Literal::Next(std::move(var));
      }
    }
    // Either an atom or a comparison. Parse an expression first; if a
    // comparison operator follows, it is a comparison. Otherwise the
    // expression must have the shape of an atom.
    GDLOG_ASSIGN_OR_RETURN(TermNode expr, ParseExpr());
    if (IsComparisonToken(Peek().kind)) {
      const ComparisonOp op = ToComparisonOp(Peek().kind);
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParseExpr());
      return Literal::Comparison(op, std::move(expr), std::move(rhs));
    }
    // Atom shape: a compound with a non-arithmetic, non-tuple functor, or
    // a bare lowercase identifier (0-ary predicate, parsed as constant).
    if (expr.is_compound() && !expr.is_tuple() &&
        !IsArithmeticFunctor(expr.name)) {
      return Literal::Atom(expr.name, std::move(expr.args));
    }
    if (expr.is_const() && expr.constant.is_symbol()) {
      return Literal::Atom(std::string(store_->SymbolName(expr.constant)), {});
    }
    return Error("expected an atom or a comparison");
  }

  Result<Literal> ParseAtom(bool negated) {
    if (!Check(TokenKind::kIdent)) {
      return Error("expected a predicate name");
    }
    const SourceLoc loc = LocOf(Peek());
    std::string name(Peek().text);
    Advance();
    std::vector<TermNode> args;
    if (Match(TokenKind::kLParen)) {
      if (!Check(TokenKind::kRParen)) {
        do {
          GDLOG_ASSIGN_OR_RETURN(TermNode arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (Match(TokenKind::kComma));
      }
      GDLOG_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "to close argument list"));
    }
    Literal atom = Literal::Atom(std::move(name), std::move(args), negated);
    atom.loc = loc;
    return atom;
  }

  // expr := mul { (+|-) mul }
  Result<TermNode> ParseExpr() {
    GDLOG_ASSIGN_OR_RETURN(TermNode lhs, ParseMul());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const std::string op = Check(TokenKind::kPlus) ? "+" : "-";
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParseMul());
      std::vector<TermNode> args;
      args.push_back(std::move(lhs));
      args.push_back(std::move(rhs));
      lhs = TermNode::Compound(op, std::move(args));
    }
    return lhs;
  }

  // mul := primary { (*|/|mod) primary }
  Result<TermNode> ParseMul() {
    GDLOG_ASSIGN_OR_RETURN(TermNode lhs, ParsePrimary());
    for (;;) {
      std::string op;
      if (Check(TokenKind::kStar)) {
        op = "*";
      } else if (Check(TokenKind::kSlash)) {
        op = "/";
      } else if (Check(TokenKind::kIdent) && Peek().text == "mod") {
        op = "mod";
      } else {
        break;
      }
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParsePrimary());
      std::vector<TermNode> args;
      args.push_back(std::move(lhs));
      args.push_back(std::move(rhs));
      lhs = TermNode::Compound(op, std::move(args));
    }
    return lhs;
  }

  Result<TermNode> ParsePrimary() {
    if (Check(TokenKind::kInteger)) {
      const int64_t v = Peek().int_value;
      Advance();
      return TermNode::Const(Value::Int(v));
    }
    if (Match(TokenKind::kMinus)) {
      GDLOG_ASSIGN_OR_RETURN(TermNode inner, ParsePrimary());
      if (inner.is_const() && inner.constant.is_int()) {
        return TermNode::Const(Value::Int(-inner.constant.AsInt()));
      }
      std::vector<TermNode> args;
      args.push_back(TermNode::Const(Value::Int(0)));
      args.push_back(std::move(inner));
      return TermNode::Compound("-", std::move(args));
    }
    if (Check(TokenKind::kVariable)) {
      std::string name(Peek().text);
      Advance();
      if (name == "_") name = FreshAnonymous();
      return TermNode::Var(std::move(name));
    }
    if (Check(TokenKind::kString)) {
      TermNode t = TermNode::Const(store_->MakeSymbol(Peek().text));
      Advance();
      return t;
    }
    if (Check(TokenKind::kIdent)) {
      std::string name(Peek().text);
      Advance();
      if (name == "nil") return TermNode::Const(Value::Nil());
      if (Match(TokenKind::kLParen)) {
        std::vector<TermNode> args;
        if (!Check(TokenKind::kRParen)) {
          do {
            GDLOG_ASSIGN_OR_RETURN(TermNode arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Match(TokenKind::kComma));
        }
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close argument list"));
        return TermNode::Compound(std::move(name), std::move(args));
      }
      return TermNode::Const(store_->MakeSymbol(name));
    }
    if (Match(TokenKind::kLParen)) {
      // () is the empty tuple; (e) is grouping; (e1, e2, ...) is a tuple.
      if (Match(TokenKind::kRParen)) return TermNode::Tuple({});
      std::vector<TermNode> elems;
      do {
        GDLOG_ASSIGN_OR_RETURN(TermNode e, ParseExpr());
        elems.push_back(std::move(e));
      } while (Match(TokenKind::kComma));
      GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close tuple"));
      if (elems.size() == 1) return std::move(elems[0]);
      return TermNode::Tuple(std::move(elems));
    }
    return Error("expected a term");
  }

  struct BlockKey {
    std::string_view name;  // views the source text
    uint32_t arity;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    size_t operator()(const BlockKey& k) const {
      return std::hash<std::string_view>()(k.name) * 31 + k.arity;
    }
  };

  ValueStore* store_;
  Lexer lexer_;
  Token tok_;
  Status lex_error_;
  int anon_counter_ = 0;
  // Fact parsing scratch, reused across statements.
  std::vector<Value> fact_values_;
  std::vector<Value> term_args_;
  std::unordered_map<BlockKey, uint32_t, BlockKeyHash> block_index_;
  size_t last_block_ = SIZE_MAX;
};

}  // namespace

Result<Program> ParseProgram(ValueStore* store, std::string_view source) {
  return Parser(store, source).ParseProgram();
}

Result<Rule> ParseRule(ValueStore* store, std::string_view source) {
  return Parser(store, source).ParseSingleRule();
}

}  // namespace gdlog
