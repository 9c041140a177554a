#include "eval/rql.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace gdlog {

CandidateQueue::CandidateQueue(const ValueStore* store, Order order,
                               uint32_t stride,
                               std::vector<uint32_t> merge_key,
                               uint64_t tie_seed, bool linear_scan)
    : store_(store),
      order_(order),
      stride_(stride),
      merge_key_(std::move(merge_key)),
      tie_seed_(tie_seed),
      linear_scan_(linear_scan) {
  for (uint32_t p : merge_key_) GDLOG_CHECK_LT(p, stride_);
  prem_offsets_.push_back(0);
}

bool CandidateQueue::After(const HeapEntry& a, const HeapEntry& b) const {
  if (order_ != Order::kFifo) {
    const int c = store_->Compare(a.cost, b.cost);
    if (c != 0) {
      return order_ == Order::kMin ? c > 0 : c < 0;
    }
  }
  return a.tie > b.tie;
}

uint64_t CandidateQueue::KeyHash(std::span<const Value> snapshot) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  if (merge_key_.empty()) {
    for (Value v : snapshot) h = HashCombine(h, v.bits());
  } else {
    for (uint32_t p : merge_key_) h = HashCombine(h, snapshot[p].bits());
  }
  return h;
}

bool CandidateQueue::KeyEquals(const Class& c,
                               std::span<const Value> snapshot) const {
  const Value* rep = arena_.data() + size_t{c.entry} * stride_;
  if (merge_key_.empty()) {
    return std::equal(snapshot.begin(), snapshot.end(), rep);
  }
  for (uint32_t p : merge_key_) {
    if (rep[p] != snapshot[p]) return false;
  }
  return true;
}

int64_t CandidateQueue::FindClass(std::span<const Value> snapshot,
                                  uint64_t hash, size_t* slot) const {
  const size_t mask = table_.size() - 1;
  const uint64_t tag = hash >> 32;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t s = table_[i];
    if (s == 0) {
      *slot = i;
      return -1;
    }
    if ((s >> 32) == tag) {
      const uint32_t cls = static_cast<uint32_t>(s) - 1;
      if (KeyEquals(classes_[cls], snapshot)) return cls;
    }
  }
}

void CandidateQueue::GrowTable() {
  std::vector<uint64_t> old = std::move(table_);
  table_.assign(old.empty() ? 64 : old.size() * 2, 0);
  const size_t mask = table_.size() - 1;
  for (uint64_t s : old) {
    if (s == 0) continue;
    const uint64_t hash = classes_[static_cast<uint32_t>(s) - 1].hash;
    size_t i = hash & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = s;
  }
}

void CandidateQueue::Push(Value cost, std::span<const Value> snapshot,
                          std::span<const ProvPremise> premises) {
  GDLOG_CHECK_EQ(snapshot.size(), stride_);
  ++stats_.inserted;
  if (2 * (classes_.size() + 1) > table_.size()) GrowTable();
  const uint64_t hash = KeyHash(snapshot);
  size_t slot = 0;
  const int64_t found = FindClass(snapshot, hash, &slot);
  if (found >= 0 && classes_[found].fired) {
    ++stats_.merged;
    return;  // L-hit at insertion: straight to R (paper's insertion rule)
  }
  const uint64_t seq = next_seq_++;
  uint32_t cls;
  if (found >= 0) {
    // Full mode: the key is the whole candidate — exact duplicate.
    // Merge mode: keep the better of the congruent pair in Q; the
    // superseded heap entry goes stale.
    ++stats_.merged;
    if (!merge()) return;
    cls = static_cast<uint32_t>(found);
    const int c = store_->Compare(cost, classes_[cls].cost);
    const bool new_better = order_ == Order::kMin ? c < 0 : c > 0;
    if (!new_better) return;
  } else {
    cls = static_cast<uint32_t>(classes_.size());
    GDLOG_CHECK_LT(cls, UINT32_MAX) << "candidate queue class overflow";
    classes_.push_back(Class{hash, 0, false, cost});
    table_[slot] = (hash >> 32) << 32 | (uint64_t{cls} + 1);
    ++live_count_;
  }
  GDLOG_CHECK_LT(num_entries_, UINT32_MAX) << "candidate arena overflow";
  const uint32_t entry = num_entries_++;
  arena_.insert(arena_.end(), snapshot.begin(), snapshot.end());
  prem_arena_.insert(prem_arena_.end(), premises.begin(), premises.end());
  prem_offsets_.push_back(static_cast<uint32_t>(prem_arena_.size()));
  classes_[cls].entry = entry;
  classes_[cls].cost = cost;

  heap_.push_back(
      HeapEntry{cost, tie_seed_ ? Mix64(seq ^ tie_seed_) : seq, entry, cls});
  if (!linear_scan_) {
    std::push_heap(heap_.begin(), heap_.end(),
                   [this](const HeapEntry& a, const HeapEntry& b) {
                     return After(a, b);
                   });
  }
  stats_.max_queue = std::max(stats_.max_queue, live_count_);
  if (tracer_ != nullptr) TraceOp(".push");
}

CandidateQueue::HeapEntry CandidateQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [this](const HeapEntry& a, const HeapEntry& b) {
                  return After(a, b);
                });
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  return top;
}

Candidate CandidateQueue::Take(HeapEntry e) {
  if (live_count_ > 0) --live_count_;
  if (tracer_ != nullptr) TraceOp(".pop");
  Candidate c;
  c.cost = e.cost;
  c.snapshot = std::span<const Value>(
      arena_.data() + size_t{e.entry} * stride_, stride_);
  c.premises = std::span<const ProvPremise>(
      prem_arena_.data() + prem_offsets_[e.entry],
      prem_offsets_[e.entry + 1] - prem_offsets_[e.entry]);
  c.class_id = e.cls;
  return c;
}

void CandidateQueue::SkimDead() {
  while (!heap_.empty() && !EntryLive(heap_[0])) {
    ++stats_.redundant;
    if (tracer_ != nullptr) TraceOp(".lazy_delete");
    PopTop();
  }
}

std::optional<Candidate> CandidateQueue::Pop() {
  if (linear_scan_) return PopLinear();
  SkimDead();
  if (heap_.empty()) return std::nullopt;
  return Take(PopTop());
}

size_t CandidateQueue::CountLiveEqualCost(const Value& cost) const {
  if (heap_.empty()) return 0;
  if (linear_scan_ || order_ == Order::kFifo) {
    // FIFO heaps order by seq, not cost, so there is nothing to prune;
    // the linear ablation has no heap order at all.
    size_t n = 0;
    for (const HeapEntry& e : heap_) {
      if (EntryLive(e) && store_->Compare(e.cost, cost) == 0) ++n;
    }
    return n;
  }
  // Min/max heap: walk from the root, pruning any subtree whose root is
  // already strictly worse than `cost` (its descendants are worse still).
  // Stale entries may be better than `cost`, so "better" roots are
  // traversed without being counted.
  size_t n = 0;
  std::vector<size_t> stack{0};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    if (i >= heap_.size()) continue;
    const int c = store_->Compare(heap_[i].cost, cost);
    const bool worse = order_ == Order::kMin ? c > 0 : c < 0;
    if (worse) continue;
    if (c == 0 && EntryLive(heap_[i])) ++n;
    stack.push_back(2 * i + 1);
    stack.push_back(2 * i + 2);
  }
  return n;
}

void CandidateQueue::MarkFired(const Candidate& c) {
  classes_[c.class_id].fired = true;
  ++stats_.fired;
}

void CandidateQueue::MarkRedundant(const Candidate& c) {
  ++stats_.redundant;
  if (merge()) {
    // The FD that rejected this candidate is keyed by the congruence key,
    // so the whole class is dead: block future congruent insertions.
    classes_[c.class_id].fired = true;
  }
  // Full mode: the class stays registered as seen, so exact
  // re-derivations keep being dropped at insertion.
}

std::optional<Candidate> CandidateQueue::PopLinear() {
  size_t best = heap_.size();
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (!EntryLive(heap_[i])) continue;
    if (best == heap_.size() || After(heap_[best], heap_[i])) best = i;
  }
  if (best == heap_.size()) {
    // Everything left is dead.
    stats_.redundant += heap_.size();
    heap_.clear();
    return std::nullopt;
  }
  const HeapEntry e = heap_[best];
  heap_[best] = heap_.back();
  heap_.pop_back();
  return Take(e);
}

}  // namespace gdlog
