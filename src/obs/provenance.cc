#include "obs/provenance.h"

#include <deque>

#include "obs/json.h"
#include "storage/tuple.h"

namespace gdlog {

namespace {

std::string AtomText(const Catalog& catalog, const ValueStore& store,
                     PredicateId pred, RowId row) {
  const Relation& rel = catalog.relation(pred);
  if (row >= rel.size()) {
    return rel.name() + "(<row " + std::to_string(row) + " out of range>)";
  }
  return rel.name() + TupleToString(store, rel.Row(row));
}

std::string RuleLabel(uint32_t rule_index,
                      const std::vector<std::string>& rule_text) {
  if (rule_index < rule_text.size() && !rule_text[rule_index].empty()) {
    return rule_text[rule_index];
  }
  return "rule #" + std::to_string(rule_index);
}

void BuildNode(const Catalog& catalog, const ValueStore& store,
               const std::vector<std::string>& rule_text, uint32_t depth_left,
               ProofNode* node) {
  node->atom = AtomText(catalog, store, node->pred, node->row);
  const Relation& rel = catalog.relation(node->pred);
  const Relation::ProvView prov =
      node->row < rel.size() ? rel.ProvenanceOf(node->row)
                             : Relation::ProvView{};
  node->rule_index = prov.rule_index;
  if (prov.rule_index == Relation::kEdbRule ||
      prov.rule_index == Relation::kUnknownRule) {
    return;  // leaf: asserted fact or unannotated row
  }
  node->rule = RuleLabel(prov.rule_index, rule_text);
  if (prov.num_premises == 0) return;
  if (depth_left == 0) {
    node->truncated = true;
    return;
  }
  node->premises.resize(prov.num_premises);
  for (size_t i = 0; i < prov.num_premises; ++i) {
    ProofNode& child = node->premises[i];
    child.pred = prov.premises[i].pred;
    child.row = prov.premises[i].row;
    BuildNode(catalog, store, rule_text, depth_left - 1, &child);
  }
}

void RenderText(const ProofNode& node, const std::string& prefix, bool last,
                bool root, std::string* out) {
  if (!root) {
    out->append(prefix);
    out->append(last ? "└─ " : "├─ ");
  }
  out->append(node.atom);
  if (node.rule_index == Relation::kEdbRule) {
    out->append("   [fact]");
  } else if (node.rule_index == Relation::kUnknownRule) {
    out->append("   [unannotated]");
  } else {
    out->append("   [rule #");
    out->append(std::to_string(node.rule_index));
    if (!node.rule.empty()) {
      out->append(": ");
      out->append(node.rule);
    }
    out->append("]");
  }
  if (node.truncated) out->append("   [depth limit]");
  out->push_back('\n');
  const std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < node.premises.size(); ++i) {
    RenderText(node.premises[i], child_prefix,
               i + 1 == node.premises.size(), false, out);
  }
}

void DotEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

ProofNode BuildProofTree(const Catalog& catalog, const ValueStore& store,
                         PredicateId pred, RowId row,
                         const std::vector<std::string>& rule_text,
                         uint32_t max_depth) {
  ProofNode root;
  root.pred = pred;
  root.row = row;
  BuildNode(catalog, store, rule_text, max_depth, &root);
  return root;
}

std::string ProofTreeText(const ProofNode& root) {
  std::string out;
  RenderText(root, "", /*last=*/true, /*root=*/true, &out);
  return out;
}

void ProofTreeJson(const ProofNode& root, JsonWriter* w) {
  w->BeginObject();
  w->Key("atom").String(root.atom);
  if (root.rule_index == Relation::kEdbRule) {
    w->Key("fact").Bool(true);
  } else if (root.rule_index == Relation::kUnknownRule) {
    w->Key("unannotated").Bool(true);
  } else {
    w->Key("rule_index").UInt(root.rule_index);
    if (!root.rule.empty()) w->Key("rule").String(root.rule);
  }
  if (root.truncated) w->Key("truncated").Bool(true);
  if (!root.premises.empty()) {
    w->Key("premises").BeginArray();
    for (const ProofNode& p : root.premises) ProofTreeJson(p, w);
    w->EndArray();
  }
  w->EndObject();
}

std::string ProofTreeDot(const ProofNode& root) {
  // Breadth-first numbering keeps node ids stable and readable.
  std::string out = "digraph proof {\n  rankdir=BT;\n  node [fontsize=10];\n";
  struct Item {
    const ProofNode* node;
    size_t id;
  };
  std::deque<Item> queue{{&root, 0}};
  size_t next_id = 1;
  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop_front();
    const ProofNode& n = *item.node;
    out += "  n" + std::to_string(item.id) + " [label=\"";
    DotEscape(n.atom, &out);
    if (n.rule_index != Relation::kEdbRule &&
        n.rule_index != Relation::kUnknownRule) {
      out += "\\nrule #" + std::to_string(n.rule_index);
    }
    out += "\"";
    if (n.rule_index == Relation::kEdbRule) {
      out += " shape=box";  // asserted facts are boxes, derived rows ovals
    }
    if (n.truncated) out += " style=dashed";
    out += "];\n";
    for (const ProofNode& p : n.premises) {
      const size_t id = next_id++;
      out += "  n" + std::to_string(id) + " -> n" +
             std::to_string(item.id) + ";\n";
      queue.push_back({&p, id});
    }
  }
  out += "}\n";
  return out;
}

std::string ChoiceAuditText(const ChoiceAuditTrail& trail,
                            const ValueStore& store) {
  std::string out;
  if (trail.entries().empty()) {
    return "(no choice firings recorded)\n";
  }
  for (const ChoiceAuditEntry& e : trail.entries()) {
    if (e.fired) {
      out += "#" + std::to_string(e.firing) + " rule " +
             std::to_string(e.rule_index);
      if (e.stage >= 0) out += " stage " + std::to_string(e.stage);
      out += ": chose " + e.witness;
      out += "  cost=" + store.ToString(e.cost);
    } else {
      out += "-- rule " + std::to_string(e.rule_index) + ": drained";
    }
    out += "  candidates=" + std::to_string(e.candidate_set);
    out += " pops=" + std::to_string(e.pops);
    out += " ties=" + std::to_string(e.ties);
    if (e.rejected_extremum + e.rejected_fd + e.rejected_post > 0) {
      out += "  rejected[extremum=" + std::to_string(e.rejected_extremum) +
             " fd=" + std::to_string(e.rejected_fd) +
             " post=" + std::to_string(e.rejected_post) + "]";
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace gdlog
