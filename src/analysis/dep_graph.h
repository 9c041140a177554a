// Predicate dependency graph, SCC decomposition (recursive cliques), and
// classical stratification.
//
// Nodes are predicate name/arity pairs. An edge q -> p exists when a rule
// with head q has p in its body; the edge is *negative* when p occurs
// under negation (a negated atom or inside a NotExists conjunction).
// Maximal sets of mutually recursive predicates — the paper's "recursive
// cliques" — are the nontrivial SCCs (or single predicates with a
// self-loop).
#ifndef GDLOG_ANALYSIS_DEP_GRAPH_H_
#define GDLOG_ANALYSIS_DEP_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"

namespace gdlog {

/// Dense id of a predicate within one DependencyGraph.
using PredIndex = uint32_t;
inline constexpr PredIndex kNoPred = UINT32_MAX;

class DependencyGraph {
 public:
  /// Builds the graph for the rules of `program`. Predicates mentioned
  /// only in bodies (pure EDB) get nodes too, and so does each block of
  /// `facts` (the parsed program's; the rewritten forms carry none), as
  /// an IDB node with no rules, numbered where its first fact stands.
  explicit DependencyGraph(const Program& program,
                           const std::vector<FactBlock>& facts = {});

  size_t num_predicates() const { return names_.size(); }
  const std::string& name(PredIndex p) const { return names_[p]; }
  uint32_t arity(PredIndex p) const { return arities_[p]; }

  /// kNoPred if the predicate does not appear in the program.
  PredIndex Lookup(const std::string& name, uint32_t arity) const;

  struct Edge {
    PredIndex from;  // head predicate
    PredIndex to;    // body predicate
    bool negative;
    uint32_t rule_index;
  };
  const std::vector<Edge>& edges() const { return edges_; }

  /// True if the predicate appears in some rule head or has facts.
  bool IsIdb(PredIndex p) const { return is_idb_[p]; }

  /// Indices of rules whose head is p.
  const std::vector<uint32_t>& RulesFor(PredIndex p) const {
    return rules_for_[p];
  }

  // -- SCCs ---------------------------------------------------------------
  /// SCC id of each predicate; SCC ids are in *reverse* topological order
  /// of the condensation when produced by Tarjan, so we re-number them so
  /// that scc_id increases along dependencies (EDB sccs first).
  uint32_t scc_of(PredIndex p) const { return scc_of_[p]; }
  size_t num_sccs() const { return scc_members_.size(); }
  const std::vector<PredIndex>& scc_members(uint32_t scc) const {
    return scc_members_[scc];
  }
  /// True when the SCC is a recursive clique: more than one member, or a
  /// single member with a self-edge.
  bool IsRecursive(uint32_t scc) const { return scc_recursive_[scc]; }
  /// True when some edge internal to the SCC is negative.
  bool HasInternalNegation(uint32_t scc) const {
    return scc_internal_negation_[scc];
  }

  /// Edge indices (into edges()) forming a dependency cycle through the
  /// members of `scc`: each edge's `to` is the next edge's `from`, and
  /// the last edge returns to the first edge's `from`. Empty when the
  /// SCC is not recursive. Used by diagnostics to explain why a clique
  /// is recursive (e.g. the cycle that breaks stage-stratification).
  std::vector<uint32_t> CycleWithin(uint32_t scc) const;

  /// Classical stratification: assigns each predicate a stratum such that
  /// positive dependencies are non-decreasing and negative dependencies
  /// strictly increase. Fails (AnalysisError) when a recursive clique has
  /// an internal negative edge — those cliques must instead pass the
  /// stage-stratification test of analysis/stage.h.
  Result<std::vector<uint32_t>> ComputeStrata() const;

 private:
  PredIndex Ensure(const std::string& name, uint32_t arity);
  void AddLiteralEdges(const Literal& lit, PredIndex head, uint32_t rule_index,
                       bool under_negation);
  void ComputeSccs();

  std::unordered_map<std::string, PredIndex> by_key_;
  std::vector<std::string> names_;
  std::vector<uint32_t> arities_;
  std::vector<bool> is_idb_;
  std::vector<std::vector<uint32_t>> rules_for_;
  std::vector<Edge> edges_;
  std::vector<std::vector<uint32_t>> adj_;  // pred -> edge indices (from=pred)

  std::vector<uint32_t> scc_of_;
  std::vector<std::vector<PredIndex>> scc_members_;
  std::vector<bool> scc_recursive_;
  std::vector<bool> scc_internal_negation_;
};

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_DEP_GRAPH_H_
