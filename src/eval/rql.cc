#include "eval/rql.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace gdlog {

CandidateQueue::CandidateQueue(const ValueStore* store, Order order,
                               bool merge, uint64_t tie_seed,
                               bool linear_scan)
    : store_(store),
      order_(order),
      merge_(merge),
      tie_seed_(tie_seed),
      linear_scan_(linear_scan) {}

bool CandidateQueue::After(const HeapEntry& a, const HeapEntry& b) const {
  if (order_ != Order::kFifo) {
    const int c = store_->Compare(a.c.cost, b.c.cost);
    if (c != 0) {
      return order_ == Order::kMin ? c > 0 : c < 0;
    }
  }
  return a.tie > b.tie;
}

void CandidateQueue::Push(Value cost, Value congruence_key,
                          std::vector<Value> snapshot,
                          std::vector<ProvPremise> premises) {
  ++stats_.inserted;
  if (fired_.count(congruence_key)) {
    ++stats_.merged;
    return;  // L-hit at insertion: straight to R (paper's insertion rule)
  }
  const uint64_t seq = next_seq_++;
  auto [it, fresh] = live_.try_emplace(congruence_key, LiveEntry{seq, cost});
  if (!fresh) {
    // Full mode: the key is the whole candidate — exact duplicate.
    // Merge mode: keep the better of the congruent pair in Q; the
    // superseded heap entry goes stale.
    ++stats_.merged;
    if (!merge_) return;
    const int c = store_->Compare(cost, it->second.cost);
    const bool new_better = order_ == Order::kMin ? c < 0 : c > 0;
    if (!new_better) return;
    it->second = LiveEntry{seq, cost};
  } else {
    ++live_count_;
  }

  HeapEntry e;
  e.c.cost = cost;
  e.c.seq = seq;
  e.c.congruence_key = congruence_key;
  e.c.snapshot = std::move(snapshot);
  e.c.premises = std::move(premises);
  e.tie = tie_seed_ ? Mix64(seq ^ tie_seed_) : seq;
  heap_.push_back(std::move(e));
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
  HeapEntry top = std::move(heap_.back());
  heap_.pop_back();
  return top;
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
  Candidate c = std::move(PopTop().c);
  if (live_count_ > 0) --live_count_;
  if (tracer_ != nullptr) TraceOp(".pop");
  return c;
}

bool CandidateQueue::EntryLive(const HeapEntry& e) const {
  const auto it = live_.find(e.c.congruence_key);
  return it != live_.end() && it->second.seq == e.c.seq &&
         fired_.count(e.c.congruence_key) == 0;
}

size_t CandidateQueue::CountLiveEqualCost(const Value& cost) const {
  if (heap_.empty()) return 0;
  if (linear_scan_ || order_ == Order::kFifo) {
    // FIFO heaps order by seq, not cost, so there is nothing to prune;
    // the linear ablation has no heap order at all.
    size_t n = 0;
    for (const HeapEntry& e : heap_) {
      if (EntryLive(e) && store_->Compare(e.c.cost, cost) == 0) ++n;
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
    const int c = store_->Compare(heap_[i].c.cost, cost);
    const bool worse = order_ == Order::kMin ? c > 0 : c < 0;
    if (worse) continue;
    if (c == 0 && EntryLive(heap_[i])) ++n;
    stack.push_back(2 * i + 1);
    stack.push_back(2 * i + 2);
  }
  return n;
}

void CandidateQueue::MarkFired(const Candidate& c) {
  fired_.insert(c.congruence_key);
  ++stats_.fired;
}

void CandidateQueue::MarkRedundant(const Candidate& c) {
  ++stats_.redundant;
  if (merge_) {
    // The FD that rejected this candidate is keyed by the congruence key,
    // so the whole class is dead: block future congruent insertions.
    fired_.insert(c.congruence_key);
  }
  // Full mode: the key stays in live_ as a seen-set entry, so exact
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
  Candidate c = std::move(heap_[best].c);
  heap_[best] = std::move(heap_.back());
  heap_.pop_back();
  if (live_count_ > 0) --live_count_;
  if (tracer_ != nullptr) TraceOp(".pop");
  return c;
}

}  // namespace gdlog
