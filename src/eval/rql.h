// The D_r = (R_r, Q_r, L_r) structure of Section 6.
//
// One CandidateQueue backs each gamma rule r:
//
//   Q_r — the priority queue of candidate rule instances, keyed by the
//         extremum cost (least: min-heap, most: max-heap; rules without
//         an extremum degrade Q_r to FIFO retrieval, the paper's
//         "retrieve any");
//   L_r — the congruence classes of instances that fired;
//   R_r — redundant instances: merged away at insertion (a congruent,
//         no-better candidate), superseded in place, or discarded at pop
//         (stale, L-hit, FD-violating, failed post conditions).
//
// Congruence: in merge mode (CompiledRule::merge_by_choice_keys, enabled
// only when provably semantics-preserving) the key is the candidate's
// choice-FD key positions — the paper's r-congruence — and insertion
// keeps the best candidate per class, exactly the paper's insertion
// operation. In full mode the key is the whole candidate (pure duplicate
// elimination) and competition is resolved lazily at pop.
//
// Layout: flat, with nothing interned in the ValueStore.
//   * Snapshot arena — one std::vector<Value> with a fixed stride (the
//     rule's snapshot width). Every accepted push appends its snapshot;
//     a push merged away or L-hit leaves nothing behind. Provenance
//     premises live in a parallel CSR arena: one offset per accepted
//     push, and no premises at all when provenance is off.
//   * Heap — entries of {cost, tie, arena entry, class}: no owned
//     vectors, so sifting moves 24 bytes.
//   * Classes — one open-addressing table over a 64-bit hash of the key
//     positions of a snapshot; equal hashes are confirmed by comparing
//     those positions against the class's representative snapshot in
//     the arena (the relation dedup set's scheme). One table serves as
//     both the live registry (which arena entry is the class's
//     authoritative candidate) and L (the class fired). Since Values are
//     hash-consed, key equality by content is exactly equality of the
//     interned key tuple the queue used to build.
//
// Complexity: insertion and pop are O(log |Q|) plus O(1) hash work —
// the bound Section 6 assumes. A heap entry is checked for staleness by
// indexing its class, not by hashing.
#ifndef GDLOG_EVAL_RQL_H_
#define GDLOG_EVAL_RQL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/relation.h"
#include "value/value.h"

namespace gdlog {

/// A popped candidate: views into the queue's arenas, valid until the
/// next Push.
struct Candidate {
  Value cost;                              // extremum key (0 for FIFO)
  std::span<const Value> snapshot;         // generator-bound slot values
  std::span<const ProvPremise> premises;   // empty without provenance
  uint32_t class_id = 0;                   // the queue's congruence class
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

  /// `stride` is the snapshot width. `merge_key` lists the snapshot
  /// positions of the congruence key and selects merge-mode insertion;
  /// empty selects full mode (the key is the whole snapshot). `tie_seed`
  /// perturbs equal-cost (and FIFO) ordering to explore different stable
  /// models (0 = plain insertion order). `linear_scan` disables the heap
  /// and finds the best candidate by an O(|Q|) scan per retrieval — the
  /// naive baseline the Section 6 structure is benchmarked against.
  CandidateQueue(const ValueStore* store, Order order, uint32_t stride,
                 std::vector<uint32_t> merge_key, uint64_t tie_seed = 0,
                 bool linear_scan = false);

  /// Inserts a candidate (`snapshot.size()` must equal the stride). In
  /// merge mode a congruent entry in L sends the candidate to R; a
  /// congruent better entry in Q sends it to R; a congruent worse entry
  /// is superseded. In full mode exact duplicates are dropped.
  void Push(Value cost, std::span<const Value> snapshot,
            std::span<const ProvPremise> premises = {});

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
    Value cost;
    uint64_t tie = 0;    // perturbed seq: a bijection, so pop order is total
    uint32_t entry = 0;  // arena entry (snapshot at entry * stride)
    uint32_t cls = 0;    // index into classes_
  };
  /// One congruence class.
  struct Class {
    uint64_t hash = 0;
    // The authoritative candidate's arena entry; its snapshot is also the
    // representative the key positions are compared against.
    uint32_t entry = 0;
    bool fired = false;  // in L
    Value cost;          // the authoritative candidate's cost
  };

  /// True when a comes after b in pop order; as the heap comparator it
  /// keeps the best entry at the root.
  bool After(const HeapEntry& a, const HeapEntry& b) const;
  /// Removes and returns the heap root.
  HeapEntry PopTop();
  /// The Candidate view of an entry just removed from the heap.
  Candidate Take(HeapEntry e);

  bool merge() const { return !merge_key_.empty(); }
  void SkimDead();
  std::optional<Candidate> PopLinear();
  bool EntryLive(const HeapEntry& e) const {
    const Class& c = classes_[e.cls];
    return !c.fired && c.entry == e.entry;
  }

  uint64_t KeyHash(std::span<const Value> snapshot) const;
  bool KeyEquals(const Class& c, std::span<const Value> snapshot) const;
  /// The class whose key equals `snapshot`'s, or the empty table slot
  /// where it would go (`*slot`); returns the class index or -1.
  int64_t FindClass(std::span<const Value> snapshot, uint64_t hash,
                    size_t* slot) const;
  void GrowTable();

  const ValueStore* store_;
  Order order_;
  uint32_t stride_;
  std::vector<uint32_t> merge_key_;  // snapshot positions; empty = full
  uint64_t tie_seed_;
  bool linear_scan_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;  // authoritative (non-stale, non-fired) entries
  uint32_t num_entries_ = 0;  // accepted pushes (arena entries)

  std::vector<Value> arena_;             // snapshots, stride_ apart
  std::vector<ProvPremise> prem_arena_;  // premises of all entries
  std::vector<uint32_t> prem_offsets_;   // entry e: [off[e], off[e+1])
  std::vector<HeapEntry> heap_;  // binary heap (std::push_heap/pop_heap)
  std::vector<Class> classes_;
  // Open addressing, linear probing, power-of-two size, load <= 1/2.
  // A slot holds (hash >> 32) << 32 | (class + 1); 0 is empty.
  std::vector<uint64_t> table_;
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
