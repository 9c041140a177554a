// Derivation provenance: proof trees over the relation store's
// annotation column, and the choice-audit trail.
//
// When EngineOptions::provenance is on, the evaluator annotates every
// inserted row with (deriving rule, premise rows) — see
// Relation::Annotate. This module turns those annotations back into
// answers:
//
//   BuildProofTree  — follows premises row-by-row into a depth-bounded
//                     tree. Every premise row was inserted strictly
//                     before the row it justifies, so the recursion
//                     terminates even on recursive programs; the depth
//                     bound just keeps deep chains readable.
//   ProofTree*      — text / JSON / DOT renderers for the tree
//                     (shell `.why`, batch `--why`).
//   ChoiceAuditTrail — one entry per γ firing: candidate-set size,
//                     chosen witness, tie count, pops, and the
//                     admissibility rejections it took to get there;
//                     plus one unfired entry per γ step whose queue
//                     drained after rejections.
#ifndef GDLOG_OBS_PROVENANCE_H_
#define GDLOG_OBS_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "value/value.h"

namespace gdlog {

class JsonWriter;

struct ProofNode {
  PredicateId pred = kNoPredicate;
  RowId row = kNoRow;
  std::string atom;  // rendered "pred(v1, ...)"
  // The deriving rule's number (CompiledRule::number); Relation::kEdbRule
  // for asserted facts, Relation::kUnknownRule when the row predates
  // provenance or was derived by an unannotated path.
  uint32_t rule_index = Relation::kUnknownRule;
  std::string rule;       // rendered rule text (empty for facts)
  bool truncated = false;  // premises elided by the depth bound
  std::vector<ProofNode> premises;
};

/// Reconstructs the proof of `pred`'s row `row` from the provenance
/// column. `rule_text[n]` renders the program rule numbered n
/// (missing/empty entries degrade to "rule #n"). `max_depth` bounds the tree depth (the root is
/// depth 0); nodes at the bound with premises are marked truncated.
ProofNode BuildProofTree(const Catalog& catalog, const ValueStore& store,
                         PredicateId pred, RowId row,
                         const std::vector<std::string>& rule_text,
                         uint32_t max_depth);

/// Indented text rendering, one node per line with box-drawing guides.
std::string ProofTreeText(const ProofNode& root);
/// JSON object {atom, rule, fact, truncated, premises: [...]}.
void ProofTreeJson(const ProofNode& root, JsonWriter* w);
/// Graphviz DOT digraph; premise edges point at what they justify.
std::string ProofTreeDot(const ProofNode& root);

/// One γ step as the choice audit saw it: a firing, or (`fired` false)
/// a pass whose pops were all rejected until the queue drained — such an
/// entry has no firing ordinal (0), winner, cost, or ties. "Candidate
/// set" is the live |Q| before the step's pop sequence; "ties" counts
/// the other live candidates whose cost equals the winner's (0 for FIFO
/// rules, where cost carries no information).
struct ChoiceAuditEntry {
  uint32_t rule_index = 0;  // CompiledRule::number
  int gamma_index = -1;
  uint64_t firing = 0;   // 1-based global γ firing ordinal; 0 if unfired
  int64_t stage = -1;    // stage assigned (next rules only)
  uint64_t candidate_set = 0;
  uint64_t pops = 0;     // pops consumed to reach the winner
  uint64_t ties = 0;
  // Rejections on the way to this firing: extremum-filtered pops,
  // choice-FD (Admissible) failures, and candidates that derived
  // nothing — a next-rule post plan with no solution, or a head term
  // that failed to evaluate (untyped binding).
  uint64_t rejected_extremum = 0;
  uint64_t rejected_fd = 0;
  uint64_t rejected_post = 0;
  bool fired = true;     // false: the queue drained after rejections
  Value cost;            // winner's extremum cost (Int(0) for FIFO)
  std::string witness;   // rendered head atom of the winner
  PredicateId head_pred = kNoPredicate;
  RowId head_row = kNoRow;
};

class ChoiceAuditTrail {
 public:
  void Add(ChoiceAuditEntry e) { entries_.push_back(std::move(e)); }
  const std::vector<ChoiceAuditEntry>& entries() const { return entries_; }
  size_t ApproxBytes() const {
    return entries_.capacity() * sizeof(ChoiceAuditEntry);
  }

 private:
  std::vector<ChoiceAuditEntry> entries_;
};

/// One line per audited γ step, shell `.choices` format.
std::string ChoiceAuditText(const ChoiceAuditTrail& trail,
                            const ValueStore& store);

}  // namespace gdlog

#endif  // GDLOG_OBS_PROVENANCE_H_
