#include "analysis/dep_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace gdlog {

namespace {
std::string Key(const std::string& name, uint32_t arity) {
  return name + "/" + std::to_string(arity);
}
}  // namespace

DependencyGraph::DependencyGraph(const Program& program,
                                 const std::vector<FactBlock>& facts) {
  // Source order fixes the node numbering, and with it the SCC order.
  VisitInSourceOrder(
      program, facts,
      [&](const FactBlock& b) { is_idb_[Ensure(b.predicate, b.arity)] = true; },
      [&](size_t i) {
        const auto ri = static_cast<uint32_t>(i);
        const Rule& r = program.rules[ri];
        GDLOG_CHECK(r.head.kind == LiteralKind::kAtom);
        const PredIndex head = Ensure(
            r.head.predicate, static_cast<uint32_t>(r.head.args.size()));
        is_idb_[head] = true;
        rules_for_[head].push_back(ri);
        for (const Literal& lit : r.body) {
          AddLiteralEdges(lit, head, ri, /*under_negation=*/false);
        }
      });
  adj_.assign(names_.size(), {});
  for (uint32_t e = 0; e < edges_.size(); ++e) {
    adj_[edges_[e].from].push_back(e);
  }
  ComputeSccs();
}

PredIndex DependencyGraph::Ensure(const std::string& name, uint32_t arity) {
  const std::string key = Key(name, arity);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  const auto p = static_cast<PredIndex>(names_.size());
  by_key_.emplace(key, p);
  names_.push_back(name);
  arities_.push_back(arity);
  is_idb_.push_back(false);
  rules_for_.emplace_back();
  return p;
}

PredIndex DependencyGraph::Lookup(const std::string& name,
                                  uint32_t arity) const {
  auto it = by_key_.find(Key(name, arity));
  return it == by_key_.end() ? kNoPred : it->second;
}

void DependencyGraph::AddLiteralEdges(const Literal& lit, PredIndex head,
                                      uint32_t rule_index,
                                      bool under_negation) {
  switch (lit.kind) {
    case LiteralKind::kAtom: {
      const PredIndex p =
          Ensure(lit.predicate, static_cast<uint32_t>(lit.args.size()));
      edges_.push_back(
          Edge{head, p, under_negation || lit.negated, rule_index});
      return;
    }
    case LiteralKind::kNotExists:
      for (const Literal& inner : lit.body) {
        AddLiteralEdges(inner, head, rule_index, /*under_negation=*/true);
      }
      return;
    default:
      return;  // comparisons and meta goals add no edges
  }
}

void DependencyGraph::ComputeSccs() {
  // Iterative Tarjan.
  const size_t n = names_.size();
  scc_of_.assign(n, UINT32_MAX);
  std::vector<uint32_t> index(n, UINT32_MAX), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<PredIndex> stack;
  uint32_t next_index = 0;

  struct Frame {
    PredIndex v;
    size_t edge_pos;
  };
  std::vector<std::vector<PredIndex>> sccs;

  for (PredIndex root = 0; root < n; ++root) {
    if (index[root] != UINT32_MAX) continue;
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge_pos < adj_[f.v].size()) {
        const Edge& e = edges_[adj_[f.v][f.edge_pos++]];
        const PredIndex w = e.to;
        if (index[w] == UINT32_MAX) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<PredIndex> members;
          for (;;) {
            const PredIndex w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            members.push_back(w);
            if (w == f.v) break;
          }
          sccs.push_back(std::move(members));
        }
        const PredIndex v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }

  // Tarjan emits SCCs in reverse topological order of the condensation
  // (callees before callers); we want dependencies-first, which is the
  // emission order itself for edges head -> body (head depends on body):
  // a body SCC completes before the head SCC pops. So emission order is
  // already "EDB first".
  scc_members_ = std::move(sccs);
  for (uint32_t s = 0; s < scc_members_.size(); ++s) {
    for (PredIndex p : scc_members_[s]) scc_of_[p] = s;
  }
  scc_recursive_.assign(scc_members_.size(), false);
  scc_internal_negation_.assign(scc_members_.size(), false);
  for (uint32_t s = 0; s < scc_members_.size(); ++s) {
    if (scc_members_[s].size() > 1) scc_recursive_[s] = true;
  }
  for (const Edge& e : edges_) {
    if (scc_of_[e.from] == scc_of_[e.to] && e.negative) {
      scc_internal_negation_[scc_of_[e.from]] = true;
    }
  }
  // A single-member SCC with no self-edge is not recursive; fix up.
  for (uint32_t s = 0; s < scc_members_.size(); ++s) {
    if (scc_members_[s].size() == 1) {
      const PredIndex p = scc_members_[s][0];
      bool self = false;
      for (uint32_t ei : adj_[p]) {
        if (edges_[ei].to == p) {
          self = true;
          break;
        }
      }
      scc_recursive_[s] = self;
    }
  }
}

std::vector<uint32_t> DependencyGraph::CycleWithin(uint32_t scc) const {
  if (!IsRecursive(scc)) return {};
  const PredIndex start = scc_members_[scc][0];
  for (uint32_t ei : adj_[start]) {
    if (edges_[ei].to == start) return {ei};  // self-loop
  }
  // BFS within the SCC from `start`, recording the edge that first
  // reached each node; the first edge found back into `start` closes a
  // shortest cycle through it (one exists: the SCC is strongly
  // connected).
  std::vector<uint32_t> parent(names_.size(), UINT32_MAX);
  std::vector<bool> seen(names_.size(), false);
  std::vector<PredIndex> queue{start};
  seen[start] = true;
  uint32_t closing = UINT32_MAX;
  for (size_t qi = 0; qi < queue.size() && closing == UINT32_MAX; ++qi) {
    const PredIndex u = queue[qi];
    for (uint32_t ei : adj_[u]) {
      const Edge& e = edges_[ei];
      if (scc_of_[e.to] != scc) continue;
      if (e.to == start) {
        closing = ei;
        break;
      }
      if (!seen[e.to]) {
        seen[e.to] = true;
        parent[e.to] = ei;
        queue.push_back(e.to);
      }
    }
  }
  if (closing == UINT32_MAX) return {};
  std::vector<uint32_t> path{closing};
  for (PredIndex v = edges_[closing].from; v != start;
       v = edges_[path.back()].from) {
    path.push_back(parent[v]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Result<std::vector<uint32_t>> DependencyGraph::ComputeStrata() const {
  const size_t n = names_.size();
  // Stratum = longest chain of negative edges below the predicate; computed
  // on the SCC condensation (SCC ids are topologically ordered,
  // dependencies first).
  for (uint32_t s = 0; s < num_sccs(); ++s) {
    if (HasInternalNegation(s)) {
      std::string who;
      for (PredIndex p : scc_members_[s]) {
        if (!who.empty()) who += ", ";
        who += names_[p] + "/" + std::to_string(arities_[p]);
      }
      return Status::AnalysisError(
          "negation inside recursive clique {" + who +
          "} — not classically stratifiable (stage analysis required)");
    }
  }
  std::vector<uint32_t> scc_stratum(num_sccs(), 0);
  for (const Edge& e : edges_) {
    const uint32_t sh = scc_of_[e.from];
    const uint32_t sb = scc_of_[e.to];
    if (sh == sb) continue;
    // sb < sh in emission order (body completes first).
    const uint32_t need = scc_stratum[sb] + (e.negative ? 1 : 0);
    if (scc_stratum[sh] < need) scc_stratum[sh] = need;
  }
  // One fixpoint pass is enough only if edges are visited in topological
  // order; iterate until stable to be safe (condensation is acyclic, so
  // at most num_sccs passes).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : edges_) {
      const uint32_t sh = scc_of_[e.from];
      const uint32_t sb = scc_of_[e.to];
      if (sh == sb) continue;
      const uint32_t need = scc_stratum[sb] + (e.negative ? 1 : 0);
      if (scc_stratum[sh] < need) {
        scc_stratum[sh] = need;
        changed = true;
      }
    }
  }
  std::vector<uint32_t> strata(n);
  for (PredIndex p = 0; p < n; ++p) strata[p] = scc_stratum[scc_of_[p]];
  return strata;
}

}  // namespace gdlog
