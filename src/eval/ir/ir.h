// Typed relational-algebra IR: the lowering target between compiled
// rules (eval/rule_compiler) and the bytecode VM (eval/vm).
//
// A CompiledRule's plans are nested-loop joins whose per-row work the
// interpreter re-discovers on every row: each column match re-inspects
// its CTerm, each probe key re-evaluates its term, each head tuple
// re-walks the head terms. Lowering runs that discovery ONCE, by
// simulating the binding state left-to-right through the plan — exact
// for straight-line plans, because every path through a literal binds
// the same slot set (scans undo their bindings between rows, compares
// between branches) — and records the residual per-column action:
//
//   kBind          column binds a fresh slot
//   kCompareSlot   column equals an already-bound slot
//   kCompareConst  column equals a constant
//   kMatch         structural fallback (construct/arith): MatchTerm
//
// and per probe-key column:
//
//   kSlot          key value is a bound slot
//   kConst         key value is a constant
//   kEval          general term: EvalTerm at probe time (its failure
//                  reproduces the interpreter's key_ok=false skip)
//
// Lowering is all-or-nothing per rule; shapes outside the encodable
// core are rejected with a reason and stay on the interpreter (the
// differential oracle). The coverage report is surfaced in RunReport.
#ifndef GDLOG_EVAL_IR_IR_H_
#define GDLOG_EVAL_IR_IR_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/rule_compiler.h"

namespace gdlog {
namespace ir {

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

/// One probe-key column (in CompiledScan::bound_cols order).
struct KeyOp {
  enum class Kind : uint8_t { kSlot, kConst, kEval };
  Kind kind = Kind::kSlot;
  uint32_t slot = 0;   // kSlot
  Value constant;      // kConst
  uint32_t term = 0;   // kEval: pool index
};

/// One scanned-row column action (column order; short-circuits like the
/// interpreter's MatchTerm loop).
struct ColOp {
  enum class Kind : uint8_t { kBind, kCompareSlot, kCompareConst, kMatch };
  Kind kind = Kind::kBind;
  uint32_t col = 0;
  uint32_t slot = 0;   // kBind / kCompareSlot
  Value constant;      // kCompareConst
  uint32_t term = 0;   // kMatch: pool index
};

/// One head-tuple column for the emit fast path.
struct HeadOp {
  enum class Kind : uint8_t { kSlot, kConst, kEval };
  Kind kind = Kind::kSlot;
  uint32_t slot = 0;   // kSlot
  Value constant;      // kConst
  uint32_t term = 0;   // kEval: pool index
};

// ---------------------------------------------------------------------------
// Levels and plans
// ---------------------------------------------------------------------------

struct PlanIR;

struct ScanIR {
  const CompiledScan* scan = nullptr;  // windows, identity, fallbacks
  std::vector<KeyOp> keys;             // empty for full scans
  std::vector<ColOp> cols;             // one per column
};

/// One plan literal. Compares keep the interpreter's CompiledCompare
/// (already a small decision tree); NotExists carries its lowered
/// subplan.
struct LevelIR {
  CompiledLiteral::Kind kind = CompiledLiteral::Kind::kScan;
  ScanIR scan;
  const CompiledCompare* cmp = nullptr;
  /// kCompare assignments: whether assign_slot is bound on arrival. The
  /// simulation decides the interpreter's runtime IsBound branch
  /// statically — bound tests equality, unbound always (re)binds.
  bool assign_bound = false;
  /// kCompare operands resolved against the static bound state, KeyOp
  /// micro-op style: a bound variable reads its slot, a constant is
  /// inlined, anything else falls back to EvalTerm (whose failure skips
  /// the comparison, exactly like the interpreter). General comparisons
  /// use lhs/rhs; assignments use cmp_value.
  KeyOp cmp_lhs, cmp_rhs, cmp_value;
  std::unique_ptr<PlanIR> sub;
};

struct PlanIR {
  enum class Role : uint8_t { kGenerator, kDelta, kPost };
  Role role = Role::kGenerator;
  uint32_t delta = 0;  // kDelta: which delta variant
  /// The CompiledRule plan this lowers — the executor's dispatch key.
  const std::vector<CompiledLiteral>* source = nullptr;
  std::vector<LevelIR> levels;
};

struct RuleIR {
  const CompiledRule* rule = nullptr;
  std::vector<PlanIR> plans;     // generator, delta variants, post
  std::vector<HeadOp> head_ops;  // emit ops at generator/delta end-state
};

// ---------------------------------------------------------------------------
// Program lowering
// ---------------------------------------------------------------------------

/// Coverage of the lowering over a compiled program (echoed in
/// RunReport; asserted non-vacuous by the differential fleet).
struct LoweringReport {
  struct Rejection {
    uint32_t rule_index = 0;  // CompiledRule::number
    std::string head;    // "pred/arity"
    std::string reason;
  };
  uint32_t rules_total = 0;
  uint32_t rules_lowered = 0;
  std::vector<Rejection> rejections;
};

struct ProgramIR {
  std::vector<RuleIR> rules;  // lowered rules only
  LoweringReport report;
};

/// Encoding limits; plans outside them fall back to the interpreter.
inline constexpr size_t kMaxPlanLiterals = 64;  // incl. subplan literals
inline constexpr uint32_t kMaxSlots = 256;
inline constexpr size_t kMaxNotExistsDepth = 1;

/// Lowers every encodable rule. `catalog` supplies head display names
/// for the report. Pointers in the result alias `rules`, which must
/// stay alive and unmoved for the lifetime of the IR (and of any
/// vm::ProgramCode compiled from it).
ProgramIR LowerProgram(const std::vector<CompiledRule>& rules,
                       const Catalog& catalog);

/// Deterministic disassembly of the lowered program (plus the rejection
/// list) — the shell's `--dump-plan` text and the `.plan` golden
/// format.
std::string Disassemble(const ProgramIR& ir, const Catalog& catalog,
                        const ValueStore& store);

}  // namespace ir
}  // namespace gdlog

#endif  // GDLOG_EVAL_IR_IR_H_
