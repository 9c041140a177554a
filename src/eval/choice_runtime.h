// Chosen-tuple memoization: the runtime realization of the paper's
// chosen/diffChoice predicates.
//
// Per Section 2, "an efficient implementation for choice programs only
// requires memorization of the chosen predicates; from these, the
// diffChoice predicates can be generated on-the-fly". Each choice goal
// choice(L, R) of a gamma rule owns a memo from the value of L to the
// value of R. A candidate firing is admissible iff for every goal the
// memo either lacks L's value or maps it to exactly R's value; firing
// commits all pairs and records the chosen$ tuple for the stable-model
// checker.
//
// Goals the compiler proved vacuous (ChoiceSpec::vacuity) are neither
// evaluated nor memoized: next's choice(I, W) always (every firing binds
// a fresh stage), and a goal whose left term holds every congruence slot
// while the rule's queue merges (a repeated left value is a repeated
// congruence key, which L rejects before the candidate is ever popped).
// The remaining goals each use an open-addressing table keyed by the
// left Value. The chosen$ tuples of a rule sit in one flat vector with
// stride |chosen_slots|.
//
// The stable-model checker rebuilds diffChoice$ from the chosen tuples
// alone, so it checks every FD — vacuous goals included — independently
// of these memos.
#ifndef GDLOG_EVAL_CHOICE_RUNTIME_H_
#define GDLOG_EVAL_CHOICE_RUNTIME_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "eval/rule_compiler.h"
#include "eval/stable_model.h"

namespace gdlog {

class ChoiceRuntime {
 public:
  explicit ChoiceRuntime(ValueStore* store) : store_(store) {}

  /// Registers a gamma rule; returns its handle (== rule.gamma_index).
  /// `merge` is the runtime congruence-merge mode of the rule's queue:
  /// goals vacuous by the congruence proof are skipped only under it.
  int Register(const CompiledRule& rule, bool merge);

  /// True iff firing `rule` under `frame` violates no FD recorded so far.
  /// All choice-goal variables must be bound.
  bool Admissible(const CompiledRule& rule, const BindingFrame& frame);

  /// Commits the FD pairs of a firing and records its chosen$ tuple.
  /// Call only right after Admissible returned true for the same rule
  /// under the same frame: it commits the pairs Admissible evaluated.
  void Commit(const CompiledRule& rule, const BindingFrame& frame);

  /// The chosen$ tuples recorded for gamma rule `gamma_index`, each laid
  /// out per CompiledRule::chosen_slots. Valid until the next Commit.
  ChosenSet ChosenTuples(int gamma_index) const;

 private:
  /// Open-addressing map from a left Value to its committed right Value.
  class FdMemo {
   public:
    /// The right value committed for `left`, or nullptr.
    const Value* Find(Value left) const;
    /// Records left -> right; no-op if `left` is already present.
    void Insert(Value left, Value right);

   private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};  // no Value has it
    size_t Slot(uint64_t bits) const;
    std::vector<uint64_t> keys_;  // left.bits(), kEmpty when free
    std::vector<Value> values_;
    size_t size_ = 0;
  };
  struct RuleMemo {
    // Indices into CompiledRule::choices of the goals checked at runtime,
    // with one memo each.
    std::vector<uint32_t> checked;
    std::vector<FdMemo> fds;
    uint32_t arity = 0;         // chosen_slots.size()
    std::vector<Value> chosen;  // flat, stride = arity
    size_t num_chosen = 0;
  };

  ValueStore* store_;
  std::vector<RuleMemo> memos_;  // by gamma_index
  // The (left, right) pairs of the last Admissible call, parallel to its
  // rule's `checked`; Commit inserts them without re-evaluating.
  std::vector<std::pair<Value, Value>> pending_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_CHOICE_RUNTIME_H_
