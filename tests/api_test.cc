// Tests of the unified request/outcome API: the semantics registry,
// RepairEngine::Execute/RunBatch, wall-clock budgets (kBudgetExhausted
// must still deliver a verifiable stabilizing set), cooperative
// cancellation, verify-after-run, and seed plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "repair/end_semantics.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

struct ApiFixture {
  Database db;
  TupleId a1, a2, b1;

  ApiFixture() {
    uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
    uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
    a1 = db.Insert(a, {Value(int64_t{1})});
    a2 = db.Insert(a, {Value(int64_t{2})});
    b1 = db.Insert(b, {Value(int64_t{1})});
  }
};

const char* kProgram =
    "~A(x) :- A(x), x = 1.\n"
    "~B(x) :- B(x), ~A(x).\n";

/// The fig7 workload shape: a generated MAS instance plus the full
/// cascade program 20 (Org -> Author -> Writes -> Publication -> Cite).
struct MasFixture {
  MasData mas;
  MasFixture() {
    MasConfig config;
    config.num_orgs = 15;
    config.num_authors = 200;
    config.num_pubs = 400;
    mas = GenerateMas(config);
  }
};

TEST(SemanticsRegistryTest, KnowsTheFourBuiltins) {
  auto names = SemanticsRegistry::Global().Names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "end");
  EXPECT_EQ(names[1], "stage");
  EXPECT_EQ(names[2], "step");
  EXPECT_EQ(names[3], "independent");
  for (const std::string& name : names) {
    auto semantics = SemanticsRegistry::Global().Get(name);
    ASSERT_TRUE(semantics.ok()) << name;
    EXPECT_EQ((*semantics)->name(), name);
  }
}

TEST(SemanticsRegistryTest, ResolvesAliases) {
  auto ind = SemanticsRegistry::Global().Get("ind");
  ASSERT_TRUE(ind.ok());
  EXPECT_EQ((*ind)->kind(), SemanticsKind::kIndependent);
  EXPECT_EQ(*ind, *SemanticsRegistry::Global().Get("independent"));
}

TEST(SemanticsRegistryTest, UnknownNameIsStatusError) {
  auto missing = SemanticsRegistry::Global().Get("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error names the known semantics, for actionable messages.
  EXPECT_NE(missing.status().message().find("end"), std::string::npos);
}

TEST(SemanticsRegistryTest, GetKindReturnsBuiltins) {
  for (SemanticsKind kind :
       {SemanticsKind::kEnd, SemanticsKind::kStage, SemanticsKind::kStep,
        SemanticsKind::kIndependent}) {
    EXPECT_EQ(SemanticsRegistry::Global().GetKind(kind).kind(), kind);
  }
}

TEST(SemanticsRegistryTest, DuplicateRegistrationFails) {
  Status st =
      SemanticsRegistry::Global().Register(std::make_unique<EndSemantics>());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(ExecuteTest, UnknownSemanticsIsInvalidProgramOutcome) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  RepairOutcome outcome = engine->Execute(RepairRequest("bogus"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.termination, TerminationReason::kInvalidProgram);
  EXPECT_EQ(outcome.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(outcome.result.deleted.empty());
}

TEST(ExecuteTest, CompleteRunRestoresStateAndVerifies) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  RepairRequest request("stage");
  request.options.verify_after_run = true;
  RepairOutcome outcome = engine->Execute(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.termination, TerminationReason::kComplete);
  EXPECT_EQ(outcome.result.deleted, IdSet({f.a1, f.b1}));
  ASSERT_TRUE(outcome.verified.has_value());
  EXPECT_TRUE(*outcome.verified);
  EXPECT_EQ(f.db.TotalLive(), 3u);
  EXPECT_EQ(f.db.TotalDelta(), 0u);
}

TEST(ExecuteTest, VerifiedAbsentUnlessRequested) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Execute(RepairRequest("end")).verified.has_value());
}

TEST(ExecuteTest, ApplyLeavesDatabaseRepaired) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  RepairRequest request("stage");
  request.apply = true;
  RepairOutcome outcome = engine->Execute(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(f.db.TotalLive(), 1u);
  EXPECT_TRUE(f.db.delta(f.a1));
  EXPECT_TRUE(IsStable(&f.db, engine->program()));
}

TEST(RunBatchTest, RestoresStateBetweenAndAfterRequests) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  // The same semantics twice, sandwiching a destructive one: identical
  // results prove each request saw the same initial state.
  std::vector<RepairOutcome> outcomes = engine->RunBatch(
      {RepairRequest("stage"), RepairRequest("independent"),
       RepairRequest("stage")});
  ASSERT_EQ(outcomes.size(), 3u);
  for (const RepairOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.result.deleted.empty());
  }
  EXPECT_EQ(outcomes[0].result.deleted, outcomes[2].result.deleted);
  EXPECT_EQ(f.db.TotalLive(), 3u);
  EXPECT_EQ(f.db.TotalDelta(), 0u);
}

TEST(RunBatchTest, IgnoresApplyFlag) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  RepairRequest destructive("stage");
  destructive.apply = true;
  engine->RunBatch({destructive});
  EXPECT_EQ(f.db.TotalLive(), 3u);
}

TEST(BudgetTest, TinyBudgetOnMasWorkloadExhaustsAndStillStabilizes) {
  MasFixture f;
  for (const std::string& name : SemanticsRegistry::Global().Names()) {
    Database db = f.mas.db;
    auto engine = RepairEngine::Create(&db, MasProgram(20, f.mas.hubs));
    ASSERT_TRUE(engine.ok()) << name;
    RepairRequest request(name);
    request.options.budget_seconds = 1e-6;  // deliberately unmeetable
    request.options.verify_after_run = true;
    RepairOutcome outcome = engine->Execute(request);
    ASSERT_TRUE(outcome.ok()) << name;
    EXPECT_EQ(outcome.termination, TerminationReason::kBudgetExhausted)
        << name;
    // The anytime contract: a budget-exhausted run still hands back a
    // verifiable stabilizing set (here the trivial completion).
    ASSERT_TRUE(outcome.verified.has_value()) << name;
    EXPECT_TRUE(*outcome.verified) << name;
    EXPECT_FALSE(outcome.result.stats.optimal) << name;
    EXPECT_FALSE(outcome.result.deleted.empty()) << name;
    // And the engine restored the instance afterwards.
    EXPECT_EQ(db.TotalLive(), f.mas.db.TotalLive()) << name;
  }
}

TEST(BudgetTest, GenerousBudgetCompletesNormally) {
  ApiFixture f;
  auto engine = RepairEngine::Create(&f.db, MustParseProgram(kProgram));
  ASSERT_TRUE(engine.ok());
  RepairRequest request("stage");
  request.options.budget_seconds = 60.0;
  RepairOutcome outcome = engine->Execute(request);
  EXPECT_EQ(outcome.termination, TerminationReason::kComplete);
  EXPECT_EQ(outcome.result.deleted, IdSet({f.a1, f.b1}));
}

TEST(BudgetTest, UnprovenIndependentMinimumIsNotReportedComplete) {
  // At the default MAS size, program 8's Min-Ones search leaves some
  // incumbents unproven without touching the request's budget. Such a
  // run must say budget_exhausted, never complete, and its deletion set
  // must still be stabilizing.
  int unproven = 0;
  for (uint64_t seed : {1, 2, 3}) {
    MasConfig config;
    config.seed = seed;
    MasData mas = GenerateMas(config);
    auto engine = RepairEngine::Create(&mas.db, MasProgram(8, mas.hubs));
    ASSERT_TRUE(engine.ok()) << seed;
    RepairRequest request("independent");
    request.options.verify_after_run = true;
    RepairOutcome outcome = engine->Execute(request);
    ASSERT_TRUE(outcome.ok()) << seed;
    EXPECT_EQ(outcome.termination,
              outcome.result.stats.optimal
                  ? TerminationReason::kComplete
                  : TerminationReason::kBudgetExhausted)
        << seed;
    ASSERT_TRUE(outcome.verified.has_value()) << seed;
    EXPECT_TRUE(*outcome.verified) << seed;
    unproven += outcome.result.stats.optimal ? 0 : 1;
  }
  EXPECT_GT(unproven, 0) << "no seed exercises the unproven path";
}

TEST(CancelTest, PreCancelledTokenStopsInsideTheFixpoint) {
  MasFixture f;
  CancelToken token;
  token.Cancel();
  for (const std::string& name : SemanticsRegistry::Global().Names()) {
    Database db = f.mas.db;
    auto engine = RepairEngine::Create(&db, MasProgram(20, f.mas.hubs));
    ASSERT_TRUE(engine.ok()) << name;
    RepairRequest request(name);
    request.options.cancel = &token;
    RepairOutcome outcome = engine->Execute(request);
    ASSERT_TRUE(outcome.ok()) << name;
    EXPECT_EQ(outcome.termination, TerminationReason::kCancelled) << name;
    // Cancellation unwinds without the (possibly expensive) trivial
    // completion; the run got nowhere, so nothing was chosen.
    EXPECT_TRUE(outcome.result.deleted.empty()) << name;
    EXPECT_EQ(db.TotalLive(), f.mas.db.TotalLive()) << name;
  }
}

TEST(CancelTest, CancelFromAnotherThreadIsHonoredMidRun) {
  // A 3-way cross product (~64M assignments) that no current machine
  // finishes in milliseconds: the cancel lands mid-enumeration.
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  uint32_t s = db.AddRelation(MakeIntSchema("S", {"x"}));
  uint32_t t = db.AddRelation(MakeIntSchema("T", {"x"}));
  for (int64_t i = 0; i < 400; ++i) {
    db.Insert(r, {Value(i)});
    db.Insert(s, {Value(i)});
    db.Insert(t, {Value(i)});
  }
  auto engine = RepairEngine::Create(
      &db, MustParseProgram("~R(x) :- R(x), S(y), T(z).\n"));
  ASSERT_TRUE(engine.ok());

  CancelToken token;
  RepairRequest request("end");
  request.options.cancel = &token;
  std::atomic<bool> started{false};
  RepairOutcome outcome;
  std::thread runner([&] {
    started.store(true);
    outcome = engine->Execute(request);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  runner.join();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.termination, TerminationReason::kCancelled);
  EXPECT_EQ(db.TotalLive(), 1200u);  // state restored
}

TEST(SeedTest, ArbitraryOrderingIsDeterministicPerSeed) {
  MasFixture f;
  auto run = [&](uint64_t seed) {
    Database db = f.mas.db;
    auto engine = RepairEngine::Create(&db, MasProgram(4, f.mas.hubs));
    EXPECT_TRUE(engine.ok());
    RepairRequest request("step");
    request.options.step.ordering = StepOrdering::kArbitrary;
    request.options.seed = seed;
    return engine->Execute(request).result.deleted;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(0), run(0));
}

TEST(TrivialCompletionTest, DeletesEveryHeadRelationTuple) {
  ApiFixture f;
  Program program = MustParseProgram(kProgram);
  ASSERT_TRUE(ResolveProgram(&program, f.db).ok());
  RepairResult result;
  TrivialStabilizingCompletion(&f.db, program, &result);
  CanonicalizeResult(&result);
  // Head relations are A and B: everything in them goes; the set is
  // stabilizing by construction.
  EXPECT_EQ(result.deleted, IdSet({f.a1, f.a2, f.b1}));
  f.db.ResetState();
  EXPECT_TRUE(IsStabilizingSet(&f.db, program, result.deleted));
}

}  // namespace
}  // namespace deltarepair
