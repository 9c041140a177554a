// Derivation provenance & choice audit (observability PR 6):
//
//   1. Why() must reproduce a proof tree counted by hand on a tiny
//      fixture — the annotation column is asserted row-by-row, not just
//      "some tree came back".
//   2. Provenance is pure metadata: with it on or off, the shipped
//      choice programs produce bit-identical models.
//   3. The choice audit must agree with the procedural baselines: the
//      sum of audited winner costs is exactly the baseline MST /
//      Huffman cost, and the firing count matches the merge count.
//   4. Error paths (before Run, provenance off, unknown tuples) fail
//      cleanly, and the build-info / flight-recorder satellites show up
//      where documented.
//
// Hand-counted fixture (same as explain_analyze_test):
//   e(1,2). e(1,3). e(2,3).   f(2..7).   g(3).
//   p(X,Y) <- e(X,Y), f(Y).
//   q(X)   <- p(X,Y), g(Y).
// q(1) has exactly one derivation: {g(3), p(1,3)}, and p(1,3) has
// exactly one: {e(1,3), f(3)} — so the tree below is forced, whatever
// join order the planner picks (premise order inside a node is
// plan-dependent, so assertions are order-insensitive).
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "baselines/huffman.h"
#include "baselines/kruskal.h"
#include "baselines/prim.h"
#include "common/build_info.h"
#include "greedy/huffman.h"
#include "greedy/kruskal.h"
#include "greedy/prim.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "storage/tuple.h"
#include "workload/graph_gen.h"
#include "workload/text_gen.h"

namespace gdlog {
namespace {

constexpr char kFixture[] = R"(
  e(1,2). e(1,3). e(2,3).
  f(2). f(3). f(4). f(5). f(6). f(7).
  g(3).
  p(X,Y) <- e(X,Y), f(Y).
  q(X) <- p(X,Y), g(Y).
)";

EngineOptions WithProvenance() {
  EngineOptions opts;
  opts.provenance = true;
  return opts;
}

std::set<std::string> PremiseAtoms(const ProofNode& n) {
  std::set<std::string> atoms;
  for (const ProofNode& p : n.premises) atoms.insert(p.atom);
  return atoms;
}

const ProofNode* FindPremise(const ProofNode& n, const std::string& atom) {
  for (const ProofNode& p : n.premises) {
    if (p.atom == atom) return &p;
  }
  return nullptr;
}

// -- 1. Hand-counted proof tree ------------------------------------------

TEST(Provenance, WhyReproducesHandCountedProofTree) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());

  auto why = e.Why("q", {Value::Int(1)});
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  EXPECT_EQ(why->atom, "q(1)");
  EXPECT_FALSE(why->truncated);
  EXPECT_NE(why->rule.find("q(X)"), std::string::npos) << why->rule;

  // q(1) <- { g(3), p(1,3) } — the only solution of rule q for X=1.
  EXPECT_EQ(PremiseAtoms(*why),
            (std::set<std::string>{"g(3)", "p(1, 3)"}));

  const ProofNode* g3 = FindPremise(*why, "g(3)");
  ASSERT_NE(g3, nullptr);
  EXPECT_EQ(g3->rule_index, Relation::kEdbRule);
  EXPECT_TRUE(g3->premises.empty());
  EXPECT_TRUE(g3->rule.empty());

  // p(1,3) <- { e(1,3), f(3) }, both asserted facts.
  const ProofNode* p13 = FindPremise(*why, "p(1, 3)");
  ASSERT_NE(p13, nullptr);
  EXPECT_NE(p13->rule.find("p(X, Y)"), std::string::npos) << p13->rule;
  EXPECT_EQ(PremiseAtoms(*p13),
            (std::set<std::string>{"e(1, 3)", "f(3)"}));
  for (const ProofNode& leaf : p13->premises) {
    EXPECT_EQ(leaf.rule_index, Relation::kEdbRule) << leaf.atom;
    EXPECT_TRUE(leaf.premises.empty()) << leaf.atom;
  }
}

TEST(Provenance, DepthBoundMarksTruncation) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto why = e.Why("q", {Value::Int(1)}, /*max_depth=*/0);
  ASSERT_TRUE(why.ok());
  EXPECT_TRUE(why->truncated);
  EXPECT_TRUE(why->premises.empty());
  // One level down: q's premises present, p's elided.
  auto one = e.Why("q", {Value::Int(1)}, /*max_depth=*/1);
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(one->truncated);
  const ProofNode* p13 = FindPremise(*one, "p(1, 3)");
  ASSERT_NE(p13, nullptr);
  EXPECT_TRUE(p13->truncated);
  EXPECT_TRUE(p13->premises.empty());
}

TEST(Provenance, RenderersCoverTextJsonDot) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());

  auto text = e.WhyText("q(1)");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("q(1)"), std::string::npos);
  EXPECT_NE(text->find("[fact]"), std::string::npos);

  // pred/arity targets resolve to the relation's last derived row.
  auto last = e.WhyText("q/1");
  ASSERT_TRUE(last.ok()) << last.status().ToString();

  auto json = e.WhyJson("q(1)");
  ASSERT_TRUE(json.ok());
  auto doc = ParseJson(*json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* atom = doc->Find("atom");
  ASSERT_NE(atom, nullptr);
  EXPECT_EQ(atom->string, "q(1)");
  ASSERT_NE(doc->Find("premises"), nullptr);
  EXPECT_EQ(doc->Find("premises")->items.size(), 2u);

  auto dot = e.WhyDot("q(1)");
  ASSERT_TRUE(dot.ok());
  EXPECT_NE(dot->find("digraph"), std::string::npos);
  EXPECT_NE(dot->find("->"), std::string::npos);
  EXPECT_NE(dot->find("q(1)"), std::string::npos);
}

TEST(Provenance, ErrorPathsFailCleanly) {
  {
    // Before Run.
    Engine e(WithProvenance());
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    EXPECT_FALSE(e.Why("q", {Value::Int(1)}).ok());
    EXPECT_FALSE(e.ChoiceAuditText().ok());
  }
  {
    // Provenance off: the annotation column does not exist.
    Engine e;
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_FALSE(e.WhyText("q(1)").ok());
    EXPECT_EQ(e.ChoiceAudit(), nullptr);
    EXPECT_FALSE(e.ChoiceAuditText().ok());
  }
  {
    Engine e(WithProvenance());
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_FALSE(e.WhyText("q(99)").ok());        // not derived
    EXPECT_FALSE(e.WhyText("zzz(1)").ok());       // unknown predicate
    EXPECT_FALSE(e.WhyText("zzz/3").ok());        // unknown relation
    EXPECT_FALSE(e.WhyText("not an atom").ok());  // unparseable
  }
}

// -- 2. Provenance is invisible to the model -----------------------------

std::string ReadFileOrDie(const std::string& name) {
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/programs/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> DumpModel(const Engine& e) {
  std::vector<std::string> lines;
  for (const auto& ref : e.program()->AllPredicates()) {
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      line += TupleToString(e.store(), TupleView(tuple));
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

class ProvenanceDifferential : public ::testing::TestWithParam<const char*> {
};

TEST_P(ProvenanceDifferential, ModelBitIdenticalOnOff) {
  const std::string text = ReadFileOrDie(GetParam());
  auto run = [&text](bool provenance) {
    EngineOptions opts = WithProvenance();
    opts.provenance = provenance;
    Engine e(opts);
    EXPECT_TRUE(e.LoadProgram(text).ok());
    auto st = e.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return DumpModel(e);
  };
  const std::vector<std::string> baseline = run(false);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(true), baseline) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, ProvenanceDifferential,
                         ::testing::Values("prim.dl", "kruskal.dl",
                                           "huffman.dl",
                                           "course_assignment.dl"));

// -- 3. Choice audit vs procedural baselines -----------------------------

// Entries for γ steps that fired (the rest record a drained queue).
size_t FiredEntries(const ChoiceAuditTrail* audit) {
  size_t n = 0;
  for (const ChoiceAuditEntry& e : audit->entries()) n += e.fired ? 1 : 0;
  return n;
}

int64_t AuditCostSum(const ChoiceAuditTrail* audit) {
  int64_t sum = 0;
  for (const ChoiceAuditEntry& e : audit->entries()) {
    if (e.fired) sum += e.cost.AsInt();
  }
  return sum;
}

TEST(ChoiceAudit, PrimWinnersMatchBaseline) {
  GraphGenOptions gen;
  gen.seed = 17;
  const Graph g = ConnectedRandomGraph(30, 60, gen);
  auto r = PrimMst(g, 0, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  // One audited firing per tree edge; the audited winner costs sum to
  // exactly the procedural MST cost.
  EXPECT_EQ(audit->entries().size(), r->edges.size());
  EXPECT_EQ(AuditCostSum(audit), BaselinePrim(g, 0).total_cost);
  for (const ChoiceAuditEntry& e : audit->entries()) {
    EXPECT_TRUE(e.fired);
    EXPECT_GE(e.stage, 1);
    EXPECT_GE(e.candidate_set, 1u);
    EXPECT_GE(e.pops, 1u);
    EXPECT_EQ(e.witness.rfind("prm(", 0), 0u) << e.witness;
  }
  // Each audited witness is the stage's tree edge, in firing order.
  ASSERT_EQ(audit->entries().size(), r->edges.size());
  for (size_t i = 0; i < r->edges.size(); ++i) {
    EXPECT_EQ(audit->entries()[i].cost.AsInt(), r->edges[i].cost);
  }
}

TEST(ChoiceAudit, KruskalWinnersMatchBaseline) {
  GraphGenOptions gen;
  gen.seed = 23;
  const Graph g = ConnectedRandomGraph(20, 40, gen);
  auto r = KruskalMst(g, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(FiredEntries(audit), r->edges.size());
  EXPECT_EQ(AuditCostSum(audit), BaselineKruskal(g).total_cost);
}

TEST(ChoiceAudit, HuffmanFiringsEqualMergeCount) {
  TextGenOptions gen;
  gen.seed = 11;
  const auto freqs = ZipfLetterFrequencies(10, gen);
  auto r = HuffmanTree(freqs, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  // k letters -> k-1 merges, one gamma firing each; merged-node costs
  // sum to the weighted path length the baseline computes.
  EXPECT_EQ(FiredEntries(audit), freqs.size() - 1);
  EXPECT_EQ(FiredEntries(audit), r->merges);
  EXPECT_EQ(AuditCostSum(audit), BaselineHuffman(freqs).total_cost);
}

TEST(ChoiceAudit, RejectionsAndTiesAreVisible) {
  // Triangle with a forced rejection: Kruskal takes costs 1 and 2, then
  // pops the cost-3 edge whose endpoints are already connected — its
  // post plan yields no solution, the queue drains, and the rejection
  // lands both in the flight recorder and in an unfired audit entry.
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}};
  auto r = KruskalMst(g, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  ASSERT_EQ(audit->entries().size(), 3u);
  ASSERT_EQ(FiredEntries(audit), 2u);
  uint64_t rejected_post = 0;
  for (const ChoiceAuditEntry& e : audit->entries()) {
    if (e.fired) rejected_post += e.rejected_post;
  }
  EXPECT_EQ(rejected_post, 0u)  // both winners fire on their first pop
      << "winners should not absorb the cycle edge's rejection";
  const ChoiceAuditEntry& drained = audit->entries().back();
  EXPECT_FALSE(drained.fired);
  EXPECT_EQ(drained.rejected_post, 1u);
  EXPECT_EQ(drained.pops, 1u);
  EXPECT_EQ(drained.firing, 0u);
  const std::string blackbox = r->engine->DumpFlightRecorder();
  EXPECT_NE(blackbox.find("choice-reject"), std::string::npos) << blackbox;

  auto text = r->engine->ChoiceAuditText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("chose"), std::string::npos);
  EXPECT_NE(text->find("kruskal("), std::string::npos);
  EXPECT_NE(text->find("drained"), std::string::npos) << *text;
}

// -- 4. Report, metrics, build info --------------------------------------

TEST(ChoiceAudit, RunReportCarriesProvenanceAndChoices) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const JsonValue* prov = doc->Find("provenance");
  ASSERT_NE(prov, nullptr);
  const JsonValue* enabled = prov->Find("enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->boolean);
  const JsonValue* annotated = prov->Find("rows_annotated");
  ASSERT_NE(annotated, nullptr);
  // 3 p rows + 2 q rows derived; EDB facts are annotated too.
  EXPECT_GE(annotated->number, 5.0);

  const JsonValue* choices = doc->Find("choices");
  ASSERT_NE(choices, nullptr);
  ASSERT_TRUE(choices->is_object());  // null only when audit is off
  ASSERT_NE(choices->Find("total"), nullptr);
  EXPECT_EQ(choices->Find("total")->number, 0.0);  // no gamma rules here

  const JsonValue* build = doc->Find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build->Find("version"), nullptr);
  EXPECT_EQ(build->Find("version")->string, GetBuildInfo().version);
}

TEST(ChoiceAudit, ChoiceSeriesReachPrometheus) {
  GraphGenOptions gen;
  gen.seed = 29;
  const Graph g = ConnectedRandomGraph(12, 24, gen);
  auto r = PrimMst(g, 0, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto metrics = r->engine->MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_choice_candidate_set"), std::string::npos);
  EXPECT_NE(metrics->find("gdlog_choice_audit_firings_total"),
            std::string::npos);
}

// -- 5. The choice-reject contract ----------------------------------------
//
// docs/OBSERVABILITY.md: a choice-reject event is recorded every time a
// popped candidate fails to fire, and the audit entry of that γ step
// counts it — a firing's entry, or an unfired entry when the queue
// drained. So, per rule, the events since the rule's previous firing are
// exactly the rejections of the rule's audit entries since then, the
// firing's own included; and every event is audited.

// A choice rule whose first candidate's head fails to evaluate (a + 1):
// one rejected_post, then the second candidate fires.
constexpr char kHeadFailure[] = R"(
  v(a, k). v(1, k). v(2, k).
  w(X + 1, K) <- v(X, K), choice(K, X).
)";

void ExpectRejectEventsMatchAudit(const std::string& text) {
  EngineOptions opts = WithProvenance();
  opts.obs.recorder_capacity = 1 << 16;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(text).ok());
  ASSERT_TRUE(e.Run().ok());
  const FlightRecorder* rec = e.flight_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_LE(rec->recorded(), rec->capacity());  // nothing lapped
  const ChoiceAuditTrail* audit = e.ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  const auto rejections = [](const ChoiceAuditEntry& e) {
    return e.rejected_extremum + e.rejected_fd + e.rejected_post;
  };
  // rule -> reject events since its last firing, and the rejections of
  // its unfired (drained) entries audited since then.
  std::map<int64_t, uint64_t> pending, drained;
  const auto& entries = audit->entries();
  size_t next = 0;  // audit entries consumed
  uint64_t events = 0, audited = 0;
  for (const FlightRecorder::Event& ev : rec->Snapshot()) {
    if (ev.kind == FlightEventKind::kChoiceReject) {
      ++events;
      ++pending[ev.a0];
      continue;
    }
    if (ev.kind != FlightEventKind::kGammaFire &&
        ev.kind != FlightEventKind::kStageAdvance) {
      continue;
    }
    // Drained steps precede this firing in the trail.
    for (; next < entries.size() && !entries[next].fired; ++next) {
      EXPECT_GT(rejections(entries[next]), 0u);
      EXPECT_EQ(entries[next].firing, 0u);
      drained[entries[next].rule_index] += rejections(entries[next]);
      audited += rejections(entries[next]);
    }
    ASSERT_LT(next, entries.size());
    const ChoiceAuditEntry& entry = entries[next++];
    EXPECT_EQ(ev.a0, entry.rule_index);
    // gamma-fire carries the firing ordinal, stage-advance the stage.
    EXPECT_EQ(ev.a1, ev.kind == FlightEventKind::kGammaFire
                         ? static_cast<int64_t>(entry.firing)
                         : entry.stage);
    EXPECT_EQ(pending[ev.a0], drained[ev.a0] + rejections(entry))
        << "firing #" << entry.firing;
    audited += rejections(entry);
    pending[ev.a0] = 0;
    drained[ev.a0] = 0;
  }
  // Whatever follows the last firing is drained steps only.
  for (; next < entries.size(); ++next) {
    EXPECT_FALSE(entries[next].fired);
    drained[entries[next].rule_index] += rejections(entries[next]);
    audited += rejections(entries[next]);
  }
  for (const auto& [rule, n] : pending) {
    EXPECT_EQ(n, drained[rule]) << "rule " << rule;
  }
  EXPECT_EQ(events, audited);
}

TEST(ChoiceRejectContract, DrainedStepsAreAudited) {
  // course_assignment.dl: the recorder's 5 choice-reject events are
  // all audited — 1 on the way to a firing, 4 in drained steps.
  EngineOptions opts = WithProvenance();
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(ReadFileOrDie("course_assignment.dl")).ok());
  ASSERT_TRUE(e.Run().ok());
  uint64_t rejections = 0, unfired = 0;
  for (const ChoiceAuditEntry& entry : e.ChoiceAudit()->entries()) {
    rejections +=
        entry.rejected_extremum + entry.rejected_fd + entry.rejected_post;
    if (!entry.fired) ++unfired;
  }
  EXPECT_EQ(rejections, 5u);
  EXPECT_GT(unfired, 0u);
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_choice_audit_firings_total " +
                          std::to_string(e.ChoiceAudit()->entries().size() -
                                         unfired)),
            std::string::npos)
      << *metrics;
}

TEST(ChoiceRejectContract, ShippedPrograms) {
  for (const char* program : {"course_assignment.dl", "prim.dl"}) {
    SCOPED_TRACE(program);
    ExpectRejectEventsMatchAudit(ReadFileOrDie(program));
  }
}

TEST(ChoiceRejectContract, HeadFailureIsARejection) {
  ExpectRejectEventsMatchAudit(kHeadFailure);
}

TEST(BuildInfo, GaugeAndReportExposeBuildIdentity) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_NE(info.version, nullptr);
  EXPECT_STRNE(info.version, "");
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(X).").ok());
  ASSERT_TRUE(e.AddFact("q", {Value::Int(1)}).ok());
  ASSERT_TRUE(e.Run().ok());
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_build_info"), std::string::npos);
  EXPECT_NE(metrics->find(info.version), std::string::npos);
}

}  // namespace
}  // namespace gdlog
