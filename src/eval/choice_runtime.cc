#include "eval/choice_runtime.h"

#include "common/hash.h"
#include "common/logging.h"

namespace gdlog {

size_t ChoiceRuntime::FdMemo::Slot(uint64_t bits) const {
  const size_t mask = keys_.size() - 1;
  size_t i = Mix64(bits) & mask;
  while (keys_[i] != kEmpty && keys_[i] != bits) i = (i + 1) & mask;
  return i;
}

const Value* ChoiceRuntime::FdMemo::Find(Value left) const {
  if (size_ == 0) return nullptr;
  const size_t i = Slot(left.bits());
  return keys_[i] == kEmpty ? nullptr : &values_[i];
}

void ChoiceRuntime::FdMemo::Insert(Value left, Value right) {
  if (2 * (size_ + 1) > keys_.size()) {
    // Grow (load <= 1/2) and re-place every pair.
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(old_keys.empty() ? 16 : old_keys.size() * 2, kEmpty);
    values_.assign(keys_.size(), Value());
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      const size_t i = Slot(old_keys[j]);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }
  const size_t i = Slot(left.bits());
  if (keys_[i] != kEmpty) return;
  keys_[i] = left.bits();
  values_[i] = right;
  ++size_;
}

int ChoiceRuntime::Register(const CompiledRule& rule, bool merge) {
  GDLOG_CHECK_GE(rule.gamma_index, 0);
  if (memos_.size() <= static_cast<size_t>(rule.gamma_index)) {
    memos_.resize(rule.gamma_index + 1);
  }
  RuleMemo& memo = memos_[rule.gamma_index];
  memo.arity = static_cast<uint32_t>(rule.chosen_slots.size());
  for (uint32_t g = 0; g < rule.choices.size(); ++g) {
    switch (rule.choices[g].vacuity) {
      case ChoiceSpec::Vacuity::kFreshStage:
        continue;
      case ChoiceSpec::Vacuity::kCongruence:
        if (merge) continue;
        break;
      case ChoiceSpec::Vacuity::kNone:
        break;
    }
    memo.checked.push_back(g);
  }
  memo.fds.resize(memo.checked.size());
  return rule.gamma_index;
}

bool ChoiceRuntime::Admissible(const CompiledRule& rule,
                               const BindingFrame& frame) {
  const RuleMemo& memo = memos_[rule.gamma_index];
  pending_.clear();
  for (size_t k = 0; k < memo.checked.size(); ++k) {
    const ChoiceSpec& spec = rule.choices[memo.checked[k]];
    Value left, right;
    if (!EvalTerm(rule.pool, spec.left_term, frame, store_, &left) ||
        !EvalTerm(rule.pool, spec.right_term, frame, store_, &right)) {
      // A choice pair that fails to evaluate (unbound variable, or an
      // arithmetic term that overflowed) has no FD witness; treat the
      // candidate as inadmissible rather than aborting — the queue marks
      // it redundant and moves on.
      return false;
    }
    const Value* committed = memo.fds[k].Find(left);
    if (committed != nullptr && *committed != right) return false;
    pending_.emplace_back(left, right);
  }
  return true;
}

void ChoiceRuntime::Commit(const CompiledRule& rule,
                           const BindingFrame& frame) {
  RuleMemo& memo = memos_[rule.gamma_index];
  GDLOG_CHECK_EQ(pending_.size(), memo.checked.size());
  for (size_t k = 0; k < pending_.size(); ++k) {
    memo.fds[k].Insert(pending_[k].first, pending_[k].second);
  }
  pending_.clear();
  for (uint32_t s : rule.chosen_slots) {
    GDLOG_CHECK(frame.IsBound(s));
    memo.chosen.push_back(frame.Get(s));
  }
  ++memo.num_chosen;
}

ChosenSet ChoiceRuntime::ChosenTuples(int gamma_index) const {
  GDLOG_CHECK_GE(gamma_index, 0);
  GDLOG_CHECK_LT(static_cast<size_t>(gamma_index), memos_.size());
  const RuleMemo& memo = memos_[gamma_index];
  ChosenSet set;
  set.values = memo.chosen;
  set.arity = memo.arity;
  set.count = memo.num_chosen;
  return set;
}

}  // namespace gdlog
