// Tests for the choice construct: FD enforcement, multiple choice
// models across seeds, choice in recursion, the chosen memo, and the
// compiler's vacuous-goal proofs.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "analysis/stage.h"
#include "api/engine.h"
#include "eval/rule_compiler.h"
#include "parser/parser.h"

namespace gdlog {
namespace {

constexpr char kExample1[] = R"(
  takes(andy, engl, 4).
  takes(mark, engl, 2).
  takes(ann, math, 3).
  takes(mark, math, 2).
  a_st(St, Crs, G) <- takes(St, Crs, G), choice(Crs, St), choice(St, Crs).
)";

std::set<std::pair<std::string, std::string>> Assignment(const Engine& e) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& row : e.Query("a_st", 3)) {
    out.insert({std::string(e.store().SymbolName(row[0])),
                std::string(e.store().SymbolName(row[1]))});
  }
  return out;
}

TEST(Choice, Example1ModelsMatchThePaper) {
  // The paper lists exactly three choice models M1, M2, M3.
  const std::set<std::set<std::pair<std::string, std::string>>> valid = {
      {{"andy", "engl"}, {"ann", "math"}},
      {{"mark", "engl"}, {"ann", "math"}},
      {{"andy", "engl"}, {"mark", "math"}},
  };
  std::set<std::set<std::pair<std::string, std::string>>> seen;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    EngineOptions opts;
    opts.eval.choice_seed = seed;
    Engine e(opts);
    ASSERT_TRUE(e.LoadProgram(kExample1).ok());
    ASSERT_TRUE(e.Run().ok());
    const auto model = Assignment(e);
    EXPECT_TRUE(valid.count(model)) << "invalid choice model for seed "
                                    << seed;
    seen.insert(model);
  }
  // Different seeds should reach more than one of the three models.
  EXPECT_GE(seen.size(), 2u);
}

TEST(Choice, EveryModelIsStable) {
  for (uint64_t seed : {0u, 1u, 2u, 3u}) {
    EngineOptions opts;
    opts.eval.choice_seed = seed;
    Engine e(opts);
    ASSERT_TRUE(e.LoadProgram(kExample1).ok());
    ASSERT_TRUE(e.Run().ok());
    auto check = e.VerifyStableModel();
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->stable) << check->diagnostic;
  }
}

TEST(Choice, SingleFdOnly) {
  // One student per course, but students may take several courses.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    takes(a, c1). takes(b, c1). takes(a, c2). takes(b, c2).
    pick(St, Crs) <- takes(St, Crs), choice(Crs, St).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  const auto rows = e.Query("pick", 2);
  EXPECT_EQ(rows.size(), 2u);  // one per course
  std::set<Value> courses;
  for (const auto& r : rows) courses.insert(r[1]);
  EXPECT_EQ(courses.size(), 2u);
}

TEST(Choice, EmptyKeySelectsGlobalWitness) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    item(1). item(2). item(3).
    one(X) <- item(X), choice((), X).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("one", 1).size(), 1u);
}

TEST(Choice, CompoundKeyTuple) {
  // FD (A, B) -> C.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    t(1, 1, 10). t(1, 1, 20). t(1, 2, 30). t(2, 1, 40).
    f(A, B, C) <- t(A, B, C), choice((A, B), C).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("f", 3).size(), 3u);  // one of the (1,1) pair survives
}

TEST(Choice, RecursiveChoiceReachesEverything) {
  // Example 3-style: each reachable node adopted exactly once.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    root(0).
    edge(0, 1). edge(0, 2). edge(1, 3). edge(2, 3). edge(3, 4).
    tree(nil, R) <- root(R).
    tree(X, Y) <- tree(_, X), edge(X, Y), choice(Y, X).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  const auto rows = e.Query("tree", 2);
  // nil->0 plus one entry per node 1..4.
  EXPECT_EQ(rows.size(), 5u);
  std::set<Value> entered;
  for (const auto& r : rows) EXPECT_TRUE(entered.insert(r[1]).second);
}

TEST(Choice, StatsCountChosenTuples) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kExample1).ok());
  ASSERT_TRUE(e.Run().ok());
  ASSERT_NE(e.stats(), nullptr);
  EXPECT_EQ(e.stats()->gamma_firings, 2u);
  const CandidateQueueStats* qs = e.QueueStats(0);
  ASSERT_NE(qs, nullptr);
  EXPECT_EQ(qs->inserted, 4u);   // all takes tuples become candidates
  EXPECT_EQ(qs->fired, 2u);      // two admissible firings
  EXPECT_EQ(qs->redundant, 2u);  // two FD-blocked candidates
}

TEST(Choice, RewrittenProgramTextMentionsChosen) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kExample1).ok());
  auto text = e.RewrittenProgramText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("chosen$0"), std::string::npos);
  EXPECT_NE(text->find("not diffChoice$0"), std::string::npos);
}

// -- Vacuous FD goals ------------------------------------------------------

using Vacuity = ChoiceSpec::Vacuity;

/// The vacuity of each choice goal of `text`'s single gamma rule, in
/// CompiledRule::choices order.
std::vector<Vacuity> GoalVacuity(const std::string& text) {
  ValueStore store;
  Catalog catalog;
  auto prog = ParseProgram(&store, text);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return {};
  auto analysis = AnalyzeStages(*prog);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  if (!analysis.ok()) return {};
  auto rules = CompileProgram(*prog, *analysis, &catalog, &store);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  if (!rules.ok()) return {};
  std::vector<Vacuity> out;
  int gammas = 0;
  for (const CompiledRule& r : *rules) {
    if (!r.is_gamma) continue;
    ++gammas;
    for (const ChoiceSpec& spec : r.choices) out.push_back(spec.vacuity);
  }
  EXPECT_EQ(gammas, 1);
  return out;
}

TEST(ChoiceVacuity, PrimGoalsAreAllVacuous) {
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/programs/prim.dl");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  // next(I) expands to choice(I, W) and choice(W, I); the body adds
  // choice(Y, X). The congruence key is Y, a component of W and Y.
  EXPECT_EQ(GoalVacuity(text.str()),
            (std::vector<Vacuity>{Vacuity::kFreshStage, Vacuity::kCongruence,
                                  Vacuity::kCongruence}));
}

TEST(ChoiceVacuity, ArithmeticInWIsNotTotal) {
  // W = (X + 1, C): neither next goal can be skipped, since evaluating
  // W can fail. choice(Y, X) keeps its congruence proof.
  EXPECT_EQ(GoalVacuity(R"(
    q(1, 2, 5). q(1, 3, 4).
    p(X + 1, Y, C, I) <- next(I), q(X, Y, C), least(C, I), choice(Y, X).
  )"),
            (std::vector<Vacuity>{Vacuity::kNone, Vacuity::kNone,
                                  Vacuity::kCongruence}));
}

TEST(ChoiceVacuity, FifoRuleHasOnlyTheFreshStageProof) {
  // No extremum: the queue never merges, so L cannot stand in for
  // choice(W, I) or choice(X, Y).
  EXPECT_EQ(GoalVacuity(R"(
    p(a, 1). p(b, 2).
    s(X, Y, I) <- next(I), p(X, Y), choice(X, Y).
  )"),
            (std::vector<Vacuity>{Vacuity::kFreshStage, Vacuity::kNone,
                                  Vacuity::kNone}));
}

TEST(ChoiceVacuity, KeyMissingFromTheLeftTermIsChecked) {
  // Congruence key {St, Crs}: each goal's left term holds only one of
  // them, so both FDs stay checked.
  EXPECT_EQ(GoalVacuity(R"(
    takes(andy, engl, 4). takes(mark, engl, 2).
    b(St, Crs, G) <- takes(St, Crs, G), least(G),
                     choice(St, Crs), choice(Crs, St).
  )"),
            (std::vector<Vacuity>{Vacuity::kNone, Vacuity::kNone}));
}

TEST(ChoiceVacuity, NoMergeStillEnforcesEveryGoal) {
  // With merging off, proof (b) does not apply and the FD memo must
  // reject the second candidate of each Y: Prim's tree stays a tree.
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/programs/prim.dl");
  std::ostringstream text;
  text << in.rdbuf();
  for (const bool merge : {true, false}) {
    SCOPED_TRACE(merge ? "merge" : "no-merge");
    EngineOptions opts;
    opts.eval.use_merge_congruence = merge;
    Engine e(opts);
    ASSERT_TRUE(e.LoadProgram(text.str()).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_EQ(e.Query("prm", 4).size(), 5u);  // root + 4 tree edges
    auto check = e.VerifyStableModel();
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->stable) << check->diagnostic;
  }
}

}  // namespace
}  // namespace gdlog
