#include "eval/ir/ir.h"

#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "storage/catalog.h"

namespace gdlog {
namespace ir {

namespace {

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Slots a MatchTerm against pool[t] binds when every bind succeeds:
/// bare variables at any construct depth. Arithmetic subterms
/// evaluate-and-compare, so they bind nothing.
void MarkMatchBinds(const std::vector<CTerm>& pool, uint32_t t,
                    std::vector<bool>* bound) {
  const CTerm& ct = pool[t];
  switch (ct.kind) {
    case CTerm::Kind::kVar:
      (*bound)[ct.var_slot] = true;
      break;
    case CTerm::Kind::kConstruct:
      for (uint32_t a : ct.args) MarkMatchBinds(pool, a, bound);
      break;
    case CTerm::Kind::kConst:
    case CTerm::Kind::kArith:
      break;
  }
}

size_t CountLiterals(const std::vector<CompiledLiteral>& plan) {
  size_t n = 0;
  for (const CompiledLiteral& lit : plan) {
    ++n;
    if (lit.kind == CompiledLiteral::Kind::kNotExists) {
      n += CountLiterals(lit.sub);
    }
  }
  return n;
}

size_t NotExistsDepth(const std::vector<CompiledLiteral>& plan) {
  size_t depth = 0;
  for (const CompiledLiteral& lit : plan) {
    if (lit.kind == CompiledLiteral::Kind::kNotExists) {
      depth = std::max(depth, 1 + NotExistsDepth(lit.sub));
    }
  }
  return depth;
}

class RuleLowerer {
 public:
  explicit RuleLowerer(const CompiledRule& rule) : rule_(rule) {}

  /// Lowers every plan of the rule; false with `reason` set on the
  /// first unencodable shape (all-or-nothing).
  bool Lower(RuleIR* out, std::string* reason) {
    if (rule_.num_slots > kMaxSlots) {
      *reason = "rule exceeds " + std::to_string(kMaxSlots) + " slots";
      return false;
    }
    out->rule = &rule_;

    std::vector<bool> bound(rule_.num_slots, false);
    if (!LowerPlan(rule_.generator, PlanIR::Role::kGenerator, 0, &bound,
                   out, reason)) {
      return false;
    }
    const std::vector<bool> generator_end = bound;
    for (uint32_t d = 0; d < rule_.delta_plans.size(); ++d) {
      std::vector<bool> dbound(rule_.num_slots, false);
      if (!LowerPlan(rule_.delta_plans[d], PlanIR::Role::kDelta, d, &dbound,
                     out, reason)) {
        return false;
      }
      if (dbound != generator_end) {
        // Delta plans permute the generator's literals, so their end
        // binding state must agree; anything else is a compiler
        // invariant we refuse to encode against.
        *reason = "delta plan end bindings differ from generator";
        return false;
      }
    }
    if (rule_.is_next) {
      // The post plan runs from a restored candidate snapshot with the
      // stage slot bound (FixpointDriver::FireOne).
      std::vector<bool> pbound(rule_.num_slots, false);
      for (uint32_t s : rule_.snapshot_slots) pbound[s] = true;
      pbound[rule_.stage_slot] = true;
      if (!LowerPlan(rule_.post, PlanIR::Role::kPost, 0, &pbound, out,
                     reason)) {
        return false;
      }
    }

    // Emit ops against the generator/delta end-state (BuildHead runs on
    // complete solutions of those plans).
    out->head_ops.reserve(rule_.head_terms.size());
    for (uint32_t t : rule_.head_terms) {
      out->head_ops.push_back(HeadTermOp(t, generator_end));
    }
    return true;
  }

 private:
  bool LowerPlan(const std::vector<CompiledLiteral>& plan,
                 PlanIR::Role role, uint32_t delta, std::vector<bool>* bound,
                 RuleIR* out, std::string* reason) {
    if (CountLiterals(plan) > kMaxPlanLiterals) {
      *reason = "plan exceeds " + std::to_string(kMaxPlanLiterals) +
                " literals";
      return false;
    }
    if (NotExistsDepth(plan) > kMaxNotExistsDepth) {
      *reason = "nested negated conjunction";
      return false;
    }
    PlanIR pir;
    pir.role = role;
    pir.delta = delta;
    pir.source = &plan;
    if (!LowerLevels(plan, bound, &pir.levels, reason)) return false;
    out->plans.push_back(std::move(pir));
    return true;
  }

  bool LowerLevels(const std::vector<CompiledLiteral>& plan,
                   std::vector<bool>* bound, std::vector<LevelIR>* levels,
                   std::string* reason) {
    for (const CompiledLiteral& lit : plan) {
      LevelIR level;
      level.kind = lit.kind;
      switch (lit.kind) {
        case CompiledLiteral::Kind::kScan:
          LowerScan(lit.scan, bound, &level.scan);
          break;
        case CompiledLiteral::Kind::kCompare:
          level.cmp = &lit.cmp;
          if (lit.cmp.is_assignment) {
            level.assign_bound = (*bound)[lit.cmp.assign_slot];
            level.cmp_value = KeyTermOp(lit.cmp.value_term, *bound);
            (*bound)[lit.cmp.assign_slot] = true;
          } else {
            level.cmp_lhs = KeyTermOp(lit.cmp.lhs, *bound);
            level.cmp_rhs = KeyTermOp(lit.cmp.rhs, *bound);
          }
          break;
        case CompiledLiteral::Kind::kNotExists: {
          // Subplan bindings are local (the interpreter unwinds to the
          // pre-literal mark either way), so simulate on a copy.
          std::vector<bool> sub_bound = *bound;
          level.sub = std::make_unique<PlanIR>();
          level.sub->source = &lit.sub;
          if (!LowerLevels(lit.sub, &sub_bound, &level.sub->levels,
                           reason)) {
            return false;
          }
          break;
        }
      }
      levels->push_back(std::move(level));
    }
    return true;
  }

  void LowerScan(const CompiledScan& scan, std::vector<bool>* bound,
                 ScanIR* out) {
    out->scan = &scan;
    // Probe keys evaluate against the pre-scan binding state.
    if (scan.index_id >= 0) {
      out->keys.reserve(scan.bound_cols.size());
      for (uint32_t col : scan.bound_cols) {
        out->keys.push_back(KeyTermOp(scan.arg_terms[col], *bound));
      }
    }
    // Column actions, in column order. Negated scans undo their
    // bindings before returning, so they mutate only a scratch copy.
    std::vector<bool> scratch;
    std::vector<bool>* b = bound;
    if (scan.negated) {
      scratch = *bound;
      b = &scratch;
    }
    out->cols.reserve(scan.arg_terms.size());
    for (uint32_t col = 0; col < scan.arg_terms.size(); ++col) {
      const uint32_t t = scan.arg_terms[col];
      const CTerm& ct = rule_.pool[t];
      ColOp op;
      op.col = col;
      switch (ct.kind) {
        case CTerm::Kind::kConst:
          op.kind = ColOp::Kind::kCompareConst;
          op.constant = ct.constant;
          break;
        case CTerm::Kind::kVar:
          if ((*b)[ct.var_slot]) {
            op.kind = ColOp::Kind::kCompareSlot;
          } else {
            op.kind = ColOp::Kind::kBind;
            (*b)[ct.var_slot] = true;
          }
          op.slot = ct.var_slot;
          break;
        case CTerm::Kind::kConstruct:
        case CTerm::Kind::kArith:
          op.kind = ColOp::Kind::kMatch;
          op.term = t;
          MarkMatchBinds(rule_.pool, t, b);
          break;
      }
      out->cols.push_back(op);
    }
  }

  KeyOp KeyTermOp(uint32_t t, const std::vector<bool>& bound) const {
    const CTerm& ct = rule_.pool[t];
    KeyOp op;
    if (ct.kind == CTerm::Kind::kConst) {
      op.kind = KeyOp::Kind::kConst;
      op.constant = ct.constant;
    } else if (ct.kind == CTerm::Kind::kVar && bound[ct.var_slot]) {
      op.kind = KeyOp::Kind::kSlot;
      op.slot = ct.var_slot;
    } else {
      // General term (or a statically-unbound variable, whose runtime
      // EvalTerm failure reproduces the interpreter's key_ok skip).
      op.kind = KeyOp::Kind::kEval;
      op.term = t;
    }
    return op;
  }

  HeadOp HeadTermOp(uint32_t t, const std::vector<bool>& bound) const {
    const CTerm& ct = rule_.pool[t];
    HeadOp op;
    if (ct.kind == CTerm::Kind::kConst) {
      op.kind = HeadOp::Kind::kConst;
      op.constant = ct.constant;
    } else if (ct.kind == CTerm::Kind::kVar && bound[ct.var_slot]) {
      op.kind = HeadOp::Kind::kSlot;
      op.slot = ct.var_slot;
    } else {
      op.kind = HeadOp::Kind::kEval;
      op.term = t;
    }
    return op;
  }

  const CompiledRule& rule_;
};

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

class Printer {
 public:
  Printer(const ProgramIR& ir, const Catalog& catalog,
          const ValueStore& store)
      : ir_(ir), catalog_(catalog), store_(store) {}

  std::string Text() {
    out_ << "vm lowering: " << ir_.report.rules_lowered << "/"
         << ir_.report.rules_total << " rules\n";
    for (const RuleIR& r : ir_.rules) PrintRule(r);
    if (!ir_.report.rejections.empty()) {
      out_ << "\nnot lowered:\n";
      for (const auto& rej : ir_.report.rejections) {
        out_ << "  rule " << rej.rule_index << " (" << rej.head
             << "): " << rej.reason << "\n";
      }
    }
    return out_.str();
  }

 private:
  std::string SlotName(uint32_t slot) const {
    if (slot < rule_->slot_names.size() &&
        !rule_->slot_names[slot].empty()) {
      return rule_->slot_names[slot];
    }
    return "s" + std::to_string(slot);
  }

  std::string Term(uint32_t t) const {
    const CTerm& ct = rule_->pool[t];
    switch (ct.kind) {
      case CTerm::Kind::kConst:
        return store_.ToString(ct.constant);
      case CTerm::Kind::kVar:
        return SlotName(ct.var_slot);
      case CTerm::Kind::kConstruct: {
        std::string s(store_.SymbolName(ct.functor));
        s += "(";
        for (size_t i = 0; i < ct.args.size(); ++i) {
          if (i != 0) s += ", ";
          s += Term(ct.args[i]);
        }
        s += ")";
        return s;
      }
      case CTerm::Kind::kArith: {
        const char* op = "?";
        bool prefix = false;
        switch (ct.op) {
          case ArithOp::kAdd: op = "+"; break;
          case ArithOp::kSub: op = "-"; break;
          case ArithOp::kMul: op = "*"; break;
          case ArithOp::kDiv: op = "/"; break;
          case ArithOp::kMod: op = "mod"; prefix = true; break;
          case ArithOp::kMin: op = "min"; prefix = true; break;
          case ArithOp::kMax: op = "max"; prefix = true; break;
        }
        const std::string a = Term(ct.args[0]);
        const std::string b = Term(ct.args[1]);
        if (prefix) return std::string(op) + "(" + a + ", " + b + ")";
        return "(" + a + " " + op + " " + b + ")";
      }
    }
    return "?";
  }

  void PrintRule(const RuleIR& r) {
    rule_ = r.rule;
    out_ << "\nrule " << rule_->number << ": "
         << catalog_.DisplayName(rule_->head_pred);
    const char* kind = rule_->is_next          ? " [next]"
                       : rule_->is_gamma       ? " [gamma]"
                       : rule_->has_extremum   ? " [aggregate]"
                                               : "";
    out_ << kind << "\n";
    out_ << "  emit [";
    for (size_t i = 0; i < r.head_ops.size(); ++i) {
      if (i != 0) out_ << ", ";
      const HeadOp& h = r.head_ops[i];
      switch (h.kind) {
        case HeadOp::Kind::kSlot:
          out_ << SlotName(h.slot);
          break;
        case HeadOp::Kind::kConst:
          out_ << store_.ToString(h.constant);
          break;
        case HeadOp::Kind::kEval:
          out_ << "eval " << Term(h.term);
          break;
      }
    }
    out_ << "]\n";
    for (const PlanIR& p : r.plans) PrintPlan(p);
  }

  void PrintPlan(const PlanIR& p) {
    out_ << "  plan ";
    switch (p.role) {
      case PlanIR::Role::kGenerator:
        out_ << "generator";
        break;
      case PlanIR::Role::kDelta:
        out_ << "delta[" << p.delta << "]";
        break;
      case PlanIR::Role::kPost:
        out_ << "post";
        break;
    }
    out_ << ":\n";
    PrintLevels(p.levels, 4);
  }

  void PrintLevels(const std::vector<LevelIR>& levels, int indent) {
    const std::string pad(indent, ' ');
    for (size_t i = 0; i < levels.size(); ++i) {
      const LevelIR& l = levels[i];
      out_ << pad << "L" << i << ": ";
      switch (l.kind) {
        case CompiledLiteral::Kind::kScan:
          PrintScan(l.scan);
          break;
        case CompiledLiteral::Kind::kCompare:
          PrintCompare(*l.cmp);
          break;
        case CompiledLiteral::Kind::kNotExists:
          out_ << "not-exists:\n";
          PrintLevels(l.sub->levels, indent + 2);
          continue;
      }
      out_ << "\n";
    }
  }

  void PrintScan(const ScanIR& s) {
    const CompiledScan& scan = *s.scan;
    if (scan.negated) out_ << "refute ";
    if (scan.index_id >= 0) {
      out_ << "probe " << catalog_.DisplayName(scan.pred) << " idx#"
           << scan.index_id << " key=[";
      for (size_t i = 0; i < s.keys.size(); ++i) {
        if (i != 0) out_ << ", ";
        const KeyOp& k = s.keys[i];
        switch (k.kind) {
          case KeyOp::Kind::kSlot:
            out_ << SlotName(k.slot);
            break;
          case KeyOp::Kind::kConst:
            out_ << store_.ToString(k.constant);
            break;
          case KeyOp::Kind::kEval:
            out_ << "eval " << Term(k.term);
            break;
        }
      }
      out_ << "]";
    } else {
      out_ << "scan " << catalog_.DisplayName(scan.pred) << " full";
    }
    if (scan.clique_occurrence != CompiledScan::kNoOccurrence) {
      out_ << " occ=" << scan.clique_occurrence;
    }
    if (scan.goal_id != CompiledScan::kNoGoal) {
      out_ << " goal=" << scan.goal_id;
    }
    out_ << " cols=[";
    for (size_t i = 0; i < s.cols.size(); ++i) {
      if (i != 0) out_ << ", ";
      const ColOp& c = s.cols[i];
      switch (c.kind) {
        case ColOp::Kind::kBind:
          out_ << "bind " << SlotName(c.slot);
          break;
        case ColOp::Kind::kCompareSlot:
          out_ << "eq " << SlotName(c.slot);
          break;
        case ColOp::Kind::kCompareConst:
          out_ << "eq " << store_.ToString(c.constant);
          break;
        case ColOp::Kind::kMatch:
          out_ << "match " << Term(c.term);
          break;
      }
    }
    out_ << "]";
  }

  void PrintCompare(const CompiledCompare& cmp) {
    if (cmp.is_assignment) {
      out_ << SlotName(cmp.assign_slot) << " := " << Term(cmp.value_term);
      return;
    }
    const char* op = "?";
    switch (cmp.op) {
      case ComparisonOp::kEq: op = "=="; break;
      case ComparisonOp::kNe: op = "!="; break;
      case ComparisonOp::kLt: op = "<"; break;
      case ComparisonOp::kLe: op = "<="; break;
      case ComparisonOp::kGt: op = ">"; break;
      case ComparisonOp::kGe: op = ">="; break;
    }
    out_ << "filter " << Term(cmp.lhs) << " " << op << " " << Term(cmp.rhs);
  }

  const ProgramIR& ir_;
  const Catalog& catalog_;
  const ValueStore& store_;
  const CompiledRule* rule_ = nullptr;
  std::ostringstream out_;
};

}  // namespace

ProgramIR LowerProgram(const std::vector<CompiledRule>& rules,
                       const Catalog& catalog) {
  ProgramIR out;
  out.report.rules_total = static_cast<uint32_t>(rules.size());
  for (const CompiledRule& rule : rules) {
    RuleIR rir;
    std::string reason;
    if (RuleLowerer(rule).Lower(&rir, &reason)) {
      out.rules.push_back(std::move(rir));
      ++out.report.rules_lowered;
    } else {
      out.report.rejections.push_back({rule.number,
                                       catalog.DisplayName(rule.head_pred),
                                       std::move(reason)});
    }
  }
  return out;
}

std::string Disassemble(const ProgramIR& ir, const Catalog& catalog,
                        const ValueStore& store) {
  return Printer(ir, catalog, store).Text();
}

}  // namespace ir
}  // namespace gdlog
