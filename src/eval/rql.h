// The D_r = (R_r, Q_r, L_r) structure of Section 6.
//
// One CandidateQueue backs each gamma rule r:
//
//   Q_r — the priority queue of candidate rule instances, keyed by the
//         extremum cost (least: min-heap, most: max-heap; rules without
//         an extremum degrade Q_r to FIFO retrieval, the paper's
//         "retrieve any");
//   L_r — the congruence keys of instances that fired;
//   R_r — redundant instances: merged away at insertion (a congruent,
//         no-better candidate), superseded in place, or discarded at pop
//         (stale, L-hit, FD-violating, failed post conditions).
//
// Congruence: in merge mode (CompiledRule::merge_by_choice_keys, enabled
// only when provably semantics-preserving) the key is the tuple of choice
// FD keys — the paper's r-congruence — and insertion keeps the best
// candidate per class, exactly the paper's insertion operation. In full
// mode the key is the whole candidate (pure duplicate elimination) and
// competition is resolved lazily at pop.
//
// Complexity: insertion and pop are O(log |Q|) plus O(1) hash work —
// the bound Section 6 assumes.
#ifndef GDLOG_EVAL_RQL_H_
#define GDLOG_EVAL_RQL_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "storage/relation.h"
#include "value/value.h"

namespace gdlog {

struct Candidate {
  Value cost;                   // extremum key (Int(seq) for FIFO rules)
  uint64_t seq = 0;             // insertion order; ties and staleness
  Value congruence_key;         // interned tuple
  std::vector<Value> snapshot;  // generator-bound slot values
  // Generator premises (provenance mode only; empty otherwise). Carried
  // through supersede/pop so a firing can annotate its head row.
  std::vector<ProvPremise> premises;
};

struct CandidateQueueStats {
  uint64_t inserted = 0;    // calls to Push
  uint64_t merged = 0;      // insertion-time R moves (congruence merge)
  uint64_t redundant = 0;   // pop-time R moves (stale/L-hit), plus
                            // discards recorded via MarkRedundant
  uint64_t fired = 0;       // moves into L
  // High-water mark of |Q| counting *live* candidates — one per
  // congruence class in merge mode, matching the paper's bound (e.g. at
  // most n for Prim). Superseded entries pending lazy removal from the
  // physical heap are excluded.
  size_t max_queue = 0;
};

class CandidateQueue {
 public:
  enum class Order : uint8_t { kMin, kMax, kFifo };

  /// `merge` selects congruence-merge insertion; `tie_seed` perturbs
  /// equal-cost (and FIFO) ordering to explore different stable models
  /// (0 = plain insertion order). `linear_scan` disables the heap and
  /// finds the best candidate by an O(|Q|) scan per retrieval — the
  /// naive baseline the Section 6 structure is benchmarked against.
  CandidateQueue(const ValueStore* store, Order order, bool merge,
                 uint64_t tie_seed = 0, bool linear_scan = false);

  /// Inserts a candidate. In merge mode a congruent entry in L sends the
  /// candidate to R; a congruent better entry in Q sends it to R; a
  /// congruent worse entry is superseded. In full mode exact duplicates
  /// (same key) are dropped.
  void Push(Value cost, Value congruence_key, std::vector<Value> snapshot,
            std::vector<ProvPremise> premises = {});

  /// Pops the best live candidate (skipping stale/L-hit entries into R).
  /// Returns nullopt when the queue is drained.
  std::optional<Candidate> Pop();

  /// Moves a popped candidate's class into L (it fired).
  void MarkFired(const Candidate& c);

  /// Records that a popped candidate was discarded (FD violation or
  /// failed post conditions) — the paper's move into R_r.
  void MarkRedundant(const Candidate& c);

  /// Live (non-stale, non-fired) candidates currently in Q — the
  /// candidate-set size the choice audit reports.
  size_t LiveSize() const { return live_count_; }
  /// Live candidates whose cost compares equal to `cost` — the audit's
  /// tie count. O(|heap|) worst case, but heap order prunes subtrees
  /// that cannot hold equal-cost entries; called only in audit mode.
  size_t CountLiveEqualCost(const Value& cost) const;
  const CandidateQueueStats& stats() const { return stats_; }

  /// Attaches a tracer for sampled push/pop/lazy-delete instant events;
  /// `tag` prefixes event names (e.g. "q0" -> "q0.push"). Null detaches.
  void set_tracer(Tracer* tracer, std::string tag) {
    tracer_ = tracer;
    trace_tag_ = std::move(tag);
  }

 private:
  struct HeapEntry {
    Candidate c;
    uint64_t tie = 0;  // perturbed seq: a bijection, so pop order is total
  };
  /// The authoritative entry of one congruence class.
  struct LiveEntry {
    uint64_t seq = 0;
    Value cost;
  };

  /// True when a comes after b in pop order; as the heap comparator it
  /// keeps the best entry at the root.
  bool After(const HeapEntry& a, const HeapEntry& b) const;
  /// Removes and returns the heap root.
  HeapEntry PopTop();

  void SkimDead();
  std::optional<Candidate> PopLinear();
  bool EntryLive(const HeapEntry& e) const;

  const ValueStore* store_;
  Order order_;
  bool merge_;
  uint64_t tie_seed_;
  bool linear_scan_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;  // authoritative (non-stale, non-fired) entries

  std::vector<HeapEntry> heap_;  // binary heap (std::push_heap/pop_heap)
  // Live-entry registry: congruence key -> the authoritative entry. A
  // popped entry whose seq mismatches is stale (superseded).
  std::unordered_map<Value, LiveEntry, ValueHash> live_;
  std::unordered_set<Value, ValueHash> fired_;  // L
  CandidateQueueStats stats_;
  Tracer* tracer_ = nullptr;
  std::string trace_tag_;

  void TraceOp(const char* op) {
    if (tracer_ != nullptr && tracer_->Sample()) {
      tracer_->Instant(trace_tag_ + op, "queue",
                       {{"live", static_cast<int64_t>(live_count_)},
                        {"heap", static_cast<int64_t>(heap_.size())}});
    }
  }
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_RQL_H_
