// Stable-model verification via the Gelfond-Lifschitz reduct.
//
// Theorem 1 asserts that every fact set produced by the Choice Fixpoint
// on a stage-stratified program is a stable model of the program's
// first-order rewriting. This checker verifies that claim directly for a
// concrete run:
//
//   1. the program is rewritten to its normal form (next expanded,
//      choice -> chosen$/diffChoice$, extrema -> negation, NotExists ->
//      aux$ predicates);
//   2. the candidate model M+ is assembled from the engine's relations,
//      the recorded chosen$ tuples, and the aux$ extension computed
//      against M; diffChoice$ is evaluated on the fly from chosen$
//      (never materialized — its defining rules are unsafe by design);
//   3. the reduct P^{M+} is evaluated to its least fixpoint (negation
//      tested against the *fixed* M+), and the result is compared with
//      M+ — equality is stability.
//
// Intended for tests at small scale: the fixpoint here is naive.
#ifndef GDLOG_EVAL_STABLE_MODEL_H_
#define GDLOG_EVAL_STABLE_MODEL_H_

#include <span>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "storage/catalog.h"

namespace gdlog {

/// The chosen$i tuples of one choice rule, flat: `count` tuples of
/// `arity` values each, tuple k at values[k * arity, (k + 1) * arity).
struct ChosenSet {
  std::span<const Value> values;
  uint32_t arity = 0;
  size_t count = 0;
  TupleView operator[](size_t k) const {
    return values.subspan(k * arity, arity);
  }
};

struct StableCheckResult {
  bool stable = false;
  // When not stable: which predicate disagreed and an example tuple.
  std::string diagnostic;
  size_t model_facts = 0;
  size_t reduct_facts = 0;
};

/// Verifies that the contents of `model_catalog` (plus `chosen_by_rule`,
/// indexed like RewriteChoice's chosen$i; every set's arity must match
/// its chosen$i) form a stable model of
/// `original`. `store` must be the ValueStore the model was built with.
/// `seed_watermarks[pred]` is the number of rows of each relation that
/// existed before evaluation (user facts + program facts): those rows
/// seed the reduct's least fixpoint as extensional input.
Result<StableCheckResult> CheckStableModel(
    const Program& original, const Catalog& model_catalog, ValueStore* store,
    const std::vector<ChosenSet>& chosen_by_rule,
    const std::vector<size_t>& seed_watermarks);

}  // namespace gdlog

#endif  // GDLOG_EVAL_STABLE_MODEL_H_
