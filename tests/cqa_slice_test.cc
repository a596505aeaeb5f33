// Slicing-soundness differential suite: the cone-of-influence CQA path
// (query-scoped CNF slicing + parallel per-answer entailment) must agree
// verdict-for-verdict with the unsliced full-formula path on every
// semantics, on the paper's running example and on randomized
// instances — cold, threaded, and warm (IncrementalEngine over an
// update stream). Counterexamples need not be identical tuples-for-
// tuples (minimum repairs are not unique) but must each be stabilizing,
// actually kill their answer, and have equal size when both runs claim
// minimality.
//
// DR_FUZZ_ITERS multiplies the randomized coverage (nightly deep-fuzz
// job); the default counts keep an ASan/TSan CI run fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cqa/cqa.h"
#include "repair/stability.h"
#include "service/incremental_engine.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

/// Scales a base iteration count by the DR_FUZZ_ITERS multiplier.
int ScaledIters(int base) {
  const char* env = std::getenv("DR_FUZZ_ITERS");
  if (env == nullptr) return base;
  int mult = std::atoi(env);
  return mult > 1 ? base * mult : base;
}

std::vector<std::string> AllSemanticsNames() {
  return {"end", "stage", "step", "independent"};
}

Query MustParseQuery(const std::string& text) {
  StatusOr<Query> q = ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failure: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

/// A counterexample refutes its answer: it is stabilizing and the
/// answer is absent from Q(D \ cex).
void ExpectRefutes(Database* db, const Program& program,
                   const std::string& query_text, const CqaAnswer& answer,
                   const std::string& context) {
  ASSERT_FALSE(answer.counterexample.empty()) << context;
  EXPECT_TRUE(IsStabilizingSet(db, program, answer.counterexample))
      << context << "\ncex: " << RenderSet(*db, answer.counterexample);
  Query q = MustParseQuery(query_text);
  ASSERT_TRUE(ResolveQuery(&q, *db).ok()) << context;
  InstanceView view = db->SnapshotView();
  for (const TupleId& t : answer.counterexample) view.MarkDeleted(t);
  std::vector<Tuple> surviving = EvalQuery(&view, q);
  EXPECT_EQ(std::count(surviving.begin(), surviving.end(), answer.values),
            0)
      << TupleToString(answer.values) << " survives "
      << RenderSet(*db, answer.counterexample) << "\n"
      << context;
}

/// Asserts two runs of the same request agree answer-for-answer:
/// identical tuples in identical order, identical verdict bits, and
/// counterexamples that each refute their answer (equal sizes when both
/// claim minimality).
void ExpectSameAnswers(Database* db, const Program& program,
                       const std::string& query_text, const CqaResult& got,
                       const CqaResult& want, const std::string& context) {
  ASSERT_TRUE(got.ok()) << got.status.ToString() << "\n" << context;
  ASSERT_TRUE(want.ok()) << want.status.ToString() << "\n" << context;
  EXPECT_EQ(got.termination, want.termination) << context;
  ASSERT_EQ(got.answers.size(), want.answers.size()) << context;
  for (size_t i = 0; i < got.answers.size(); ++i) {
    const CqaAnswer& g = got.answers[i];
    const CqaAnswer& w = want.answers[i];
    std::string at = StrFormat("answer #%zu %s\n%s", i,
                               TupleToString(g.values).c_str(),
                               context.c_str());
    EXPECT_EQ(g.values, w.values) << at;
    EXPECT_EQ(g.certain, w.certain) << at;
    EXPECT_EQ(g.possible, w.possible) << at;
    EXPECT_EQ(g.certain_decided, w.certain_decided) << at;
    EXPECT_EQ(g.possible_decided, w.possible_decided) << at;
    EXPECT_EQ(g.decided, w.decided) << at;
    EXPECT_EQ(g.derivations, w.derivations) << at;
    // Counterexamples are witnesses, not canonical objects: check each
    // on its own terms instead of tuple-for-tuple.
    EXPECT_EQ(g.counterexample.empty(), w.counterexample.empty()) << at;
    if (!g.counterexample.empty()) {
      ExpectRefutes(db, program, query_text, g, "got: " + at);
      ExpectRefutes(db, program, query_text, w, "want: " + at);
      if (g.counterexample_minimal && w.counterexample_minimal) {
        EXPECT_EQ(g.counterexample.size(), w.counterexample.size()) << at;
      }
    }
  }
  EXPECT_EQ(got.CertainAnswers(), want.CertainAnswers()) << context;
  EXPECT_EQ(got.PossibleAnswers(), want.PossibleAnswers()) << context;
}

/// Runs one (semantics, query) request four ways — sliced (default),
/// slicing disabled (the oracle: every verdict through the full CNF),
/// and sliced with a 4-worker entailment pool — and asserts all agree.
void ExpectSlicingSound(Database* db, RepairEngine* engine,
                        const std::string& semantics,
                        const std::string& query_text,
                        const std::string& context) {
  CqaRequest sliced(semantics, query_text);
  sliced.annotate = true;
  CqaRequest full = sliced;
  full.options.cqa_slice.enable = false;
  CqaRequest threaded = sliced;
  threaded.options.threads = 4;

  CqaResult want = AnswerQuery(engine, full);
  CqaResult got = AnswerQuery(engine, sliced);
  CqaResult par = AnswerQuery(engine, threaded);
  ExpectSameAnswers(db, engine->program(), query_text, got, want,
                    StrFormat("%s sliced-vs-full\n%s", semantics.c_str(),
                              context.c_str()));
  ExpectSameAnswers(db, engine->program(), query_text, par, want,
                    StrFormat("%s threaded-vs-full\n%s", semantics.c_str(),
                              context.c_str()));
  // The slicing layer never leaks counters into the oracle run.
  EXPECT_EQ(want.stats.slice.sliced_solve_calls, 0u) << context;
  EXPECT_EQ(want.stats.slice.cone_vars, 0u) << context;
}

// ---------------------------------------------------------------------------
// Cold differential: running example
// ---------------------------------------------------------------------------

struct CqaFixture {
  RunningExample ex;
  StatusOr<RepairEngine> engine;

  CqaFixture()
      : ex(MakeRunningExample()),
        engine(RepairEngine::Create(&ex.db, ex.program)) {}
};

TEST(CqaSliceTest, RunningExampleAllSemantics) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  const char* queries[] = {
      "Q(n) :- Author(a, n).",
      "Q(n) :- Author(a, n), Writes(a, p).",
      "Q(t) :- Pub(p, t).",
      "Q(a, p) :- Writes(a, p), Pub(p, t).",
      "Q(c) :- Cite(c, p), Pub(p, t).",
      "Q(n) :- Author(a, n), AuthGrant(a, g), Grant(g, gn).",
      "Q(n) :- Grant(g, n), g >= 2.\nQ(n) :- Author(a, n), a <= 2.",
  };
  for (const char* q : queries) {
    for (const std::string& s : AllSemanticsNames()) {
      ExpectSlicingSound(&f.ex.db, &f.engine.value(), s, q,
                         StrFormat("query: %s\n", q));
    }
  }
}

// ---------------------------------------------------------------------------
// Cold differential: randomized instances
// ---------------------------------------------------------------------------

/// The cqa_test generator shape: three unary int relations, acyclic
/// cascade programs of four rule shapes.
struct RandomInstance {
  Database db;
  Program program;
  std::string description;
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst;
  const int num_rels = 3;
  const int domain = 4;
  for (int r = 0; r < num_rels; ++r) {
    uint32_t rel =
        inst.db.AddRelation(MakeIntSchema(StrFormat("R%d", r), {"x"}));
    int tuples = 2 + static_cast<int>(rng.NextBounded(3));
    for (int t = 0; t < tuples; ++t) {
      inst.db.Insert(rel,
                     {Value(static_cast<int64_t>(rng.NextBounded(domain)))});
    }
  }
  std::string text;
  int num_rules = 2 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < num_rules; ++i) {
    int head = static_cast<int>(rng.NextBounded(num_rels));
    switch (rng.NextBounded(4)) {
      case 0:
        text += StrFormat("~R%d(x) :- R%d(x), x <= %d.\n", head, head,
                          static_cast<int>(rng.NextBounded(domain)));
        break;
      case 1: {
        int other = static_cast<int>(rng.NextBounded(num_rels));
        const char* cmp = rng.NextBool(0.5) ? "=" : "!=";
        text += StrFormat("~R%d(x) :- R%d(x), R%d(y), x %s y.\n", head, head,
                          other, cmp);
        break;
      }
      case 2: {
        if (head == 0) head = 1;
        int dep =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(head)));
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(x).\n", head, head, dep);
        break;
      }
      default: {
        if (head == 0) head = 2;
        int dep =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(head)));
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(y).\n", head, head, dep);
        break;
      }
    }
  }
  inst.program = MustParseProgram(text);
  inst.description = text;
  return inst;
}

const char* RandomQueries(size_t i) {
  static const char* queries[] = {
      "Q(x) :- R0(x).",
      "Q(x) :- R1(x), R2(x).",
      "Q(x, y) :- R0(x), R1(y), x <= y.",
      "Q(x) :- R0(x).\nQ(x) :- R2(x), x >= 1.",
  };
  return queries[i % 4];
}

class CqaSliceRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CqaSliceRandomTest, SlicedMatchesFullOnAllSemantics) {
  // DR_FUZZ_ITERS deepens each seed's stream instead of adding
  // parameterized seeds (gtest instantiation counts are static).
  const int rounds = ScaledIters(1);
  for (int round = 0; round < rounds; ++round) {
    RandomInstance inst = MakeRandomInstance(
        static_cast<uint64_t>(GetParam()) * 733 +
        static_cast<uint64_t>(round) * 104729 + 13);
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&inst.db, inst.program);
    ASSERT_TRUE(engine.ok()) << inst.description;
    for (size_t qi = 0; qi < 4; ++qi) {
      const char* q = RandomQueries(qi);
      for (const std::string& s : AllSemanticsNames()) {
        ExpectSlicingSound(
            &inst.db, &engine.value(), s, q,
            StrFormat("seed %d round %d\nprogram:\n%squery: %s\n",
                      GetParam(), round, inst.description.c_str(), q));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqaSliceRandomTest, ::testing::Range(0, 32));

// ---------------------------------------------------------------------------
// Warm differential: IncrementalEngine over an update stream
// ---------------------------------------------------------------------------

Tuple Row(int64_t v) { return Tuple{Value(v)}; }

/// One random realized update: insert a random tuple or delete a random
/// live one (retrying a few times for a non-empty delta).
void RandomUpdate(Database* db, Rng* rng) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    uint32_t rel =
        static_cast<uint32_t>(rng->NextBounded(db->num_relations()));
    bool insert = rng->NextBool(0.5);
    Delta delta;
    if (insert) {
      delta = db->ApplyUpdate(
          rel, true, {Row(static_cast<int64_t>(rng->NextBounded(4)))});
    } else {
      std::vector<TupleId> live = db->base_view().LiveTupleIds();
      if (live.empty()) continue;
      TupleId victim = live[rng->NextBounded(live.size())];
      delta = db->ApplyUpdate(victim.relation, false, {db->tuple(victim)});
    }
    if (!delta.empty()) return;
  }
}

class CqaSliceWarmTest : public ::testing::TestWithParam<int> {};

TEST_P(CqaSliceWarmTest, WarmSlicedMatchesColdFullOverUpdates) {
  RandomInstance inst = MakeRandomInstance(
      static_cast<uint64_t>(GetParam()) * 977 + 29);
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(warm_or.ok()) << inst.description;
  IncrementalEngine* warm = warm_or->get();
  StatusOr<RepairEngine> cold_or =
      RepairEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(cold_or.ok()) << inst.description;
  RepairEngine* cold = &cold_or.value();

  Rng rng(static_cast<uint64_t>(GetParam()) + 4242);
  const int steps = ScaledIters(12);
  for (int step = 0; step < steps; ++step) {
    RandomUpdate(&inst.db, &rng);
    std::string context =
        StrFormat("seed %d step %d (v%llu)\nprogram:\n%s", GetParam(), step,
                  static_cast<unsigned long long>(inst.db.version()),
                  inst.description.c_str());
    const char* q = RandomQueries(static_cast<size_t>(step));
    for (const std::string& s : AllSemanticsNames()) {
      // Warm path, slicing on (the default), with the engine's verdict
      // cache across steps. These requests ground fewer than
      // kWarmMinAnswers answers, so their verdicts come from the
      // full-CNF path on the long-lived solver; CqaSliceSharedConeTest
      // covers the warm sliced path.
      CqaRequest request(s, q);
      request.annotate = true;
      CqaResult got = warm->ExecuteCqa(request);
      // Oracle: cold engine, slicing forced off.
      CqaRequest oracle = request;
      oracle.options.cqa_slice.enable = false;
      CqaResult want = AnswerQueryOnSnapshot(cold, oracle);
      // cold->program() is the *resolved* copy (relation indices bound).
      ExpectSameAnswers(&inst.db, cold->program(), q, got, want,
                        StrFormat("%s warm-vs-cold\nquery: %s\n%s",
                                  s.c_str(), q, context.c_str()));
    }
    ASSERT_EQ(warm->warm_version(), inst.db.version()) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqaSliceWarmTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Shared cones: the two-rule ERC cascade
// ---------------------------------------------------------------------------

/// 40 authors with two papers each (drawn from 30) over five orgs. Orgs 0
/// and 1 are 'ERC' with a dozen authors each: every minimum repair
/// deletes their org rows, and each org's authors and papers form one
/// residual component, so the answers from one org share one cone (and
/// one per-slice solver). Org 2 is 'ERC' with a single paperless author,
/// so deleting that author ties with deleting the org: its answer to
/// the author query is possible but not certain. The rest sit in two
/// non-ERC orgs. Names come from a pool of 25, so some answers of the
/// paper query merge authors from different orgs and span two cones.
RandomInstance MakeErcInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst;
  const uint32_t author = inst.db.AddRelation(
      RelationSchema("Author", {{"aid", ValueType::kInt},
                                {"name", ValueType::kString},
                                {"oid", ValueType::kInt}}));
  const uint32_t org = inst.db.AddRelation(RelationSchema(
      "Org", {{"oid", ValueType::kInt}, {"oname", ValueType::kString}}));
  const uint32_t writes = inst.db.AddRelation(RelationSchema(
      "Writes", {{"aid", ValueType::kInt}, {"pid", ValueType::kInt}}));
  const char* org_names[] = {"ERC", "ERC", "ERC", "MIT", "TAU"};
  for (int64_t o = 0; o < 5; ++o) {
    inst.db.Insert(org, {Value(o), Value(org_names[o])});
  }
  for (int64_t a = 0; a < 40; ++a) {
    const int64_t oid = a < 12 ? 0 : a < 24 ? 1 : a == 24 ? 2 : 3 + a % 2;
    const std::string name =
        StrFormat("n%d", static_cast<int>(rng.NextBounded(25)));
    inst.db.Insert(author, {Value(a), Value(name), Value(oid)});
    if (oid == 2) continue;
    for (int w = 0; w < 2; ++w) {
      inst.db.Insert(writes,
                     {Value(a), Value(static_cast<int64_t>(
                                    rng.NextBounded(30)))});
    }
  }
  inst.description =
      "~Author(a, n, o) :- Author(a, n, o), Org(o, x), x = 'ERC'.\n"
      "~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).\n";
  inst.program = MustParseProgram(inst.description);
  return inst;
}

/// Both ground more than kWarmMinAnswers answers on the ERC instance.
const char* const kErcQueries[] = {
    "Q(n, p) :- Author(a, n, o), Writes(a, p).",
    "Q(a, o) :- Author(a, n, o).",
};

// Warm independent CQA on shared cones across delete/reinsert updates:
// the requests are large enough to slice on the engine's per-epoch
// cone decomposition, and each result must match the cold full-CNF
// oracle. An unchanged repeat is served from the verdict cache.
TEST(CqaSliceSharedConeTest, WarmSlicedMatchesColdFullOverUpdates) {
  RandomInstance inst = MakeErcInstance(7);
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(warm_or.ok());
  IncrementalEngine* warm = warm_or->get();
  StatusOr<RepairEngine> cold_or =
      RepairEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(cold_or.ok());
  RepairEngine* cold = &cold_or.value();

  Rng rng(4242);
  std::optional<std::pair<uint32_t, Tuple>> removed;
  uint64_t sliced_solves = 0;
  const int steps = ScaledIters(12);
  for (int step = 0; step < steps; ++step) {
    // Odd steps delete a random live tuple, even ones put it back.
    if (removed.has_value()) {
      inst.db.ApplyUpdate(removed->first, true, {removed->second});
      removed.reset();
    } else if (step > 0) {
      std::vector<TupleId> live = inst.db.base_view().LiveTupleIds();
      const TupleId victim = live[rng.NextBounded(live.size())];
      removed.emplace(victim.relation, inst.db.tuple(victim));
      inst.db.ApplyUpdate(victim.relation, false, {removed->second});
    }
    const char* q = kErcQueries[step % 2];
    const std::string context =
        StrFormat("step %d (v%llu)\nquery: %s\n", step,
                  static_cast<unsigned long long>(inst.db.version()), q);
    CqaRequest request("independent", q);
    request.annotate = true;
    CqaRequest oracle = request;
    oracle.options.cqa_slice.enable = false;
    CqaResult want = AnswerQueryOnSnapshot(cold, oracle);
    CqaResult got = warm->ExecuteCqa(request);
    ExpectSameAnswers(&inst.db, cold->program(), q, got, want,
                      "warm-vs-cold\n" + context);
    ASSERT_GE(got.answers.size(), kWarmMinAnswers) << context;
    if (step == 0) {
      EXPECT_GT(got.stats.slice.cone_vars, 0u) << context;
      EXPECT_GT(got.stats.slice.sliced_solve_calls, 0u) << context;
    }
    sliced_solves += got.stats.slice.sliced_solve_calls;

    const uint64_t hits = warm->stats().verdict_cache_hits;
    CqaResult again = warm->ExecuteCqa(request);
    ExpectSameAnswers(&inst.db, cold->program(), q, again, want,
                      "warm repeat\n" + context);
    EXPECT_EQ(warm->stats().verdict_cache_hits - hits, again.answers.size())
        << context;
  }
  EXPECT_GT(sliced_solves, 0u);
}

// ---------------------------------------------------------------------------
// Parallel entailment stress (TSan target)
// ---------------------------------------------------------------------------

// Many answers through a 4-worker entailment pool with slicing enabled,
// cold and warm, repeatedly — the data-race surface is the shared
// repair space (memoized slices, fallback solver, stats flushes), so
// the assertion is simply "agrees with sequential" while TSan watches.
TEST(CqaSliceStressTest, ParallelEntailmentWithSlicing) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&f.ex.db, f.ex.program);
  ASSERT_TRUE(warm_or.ok());
  const char* query = "Q(a, p) :- Writes(a, p), Pub(p, t).";
  const int rounds = ScaledIters(4);
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& s : AllSemanticsNames()) {
      CqaRequest request(s, query);
      request.annotate = true;
      request.options.threads = 4;
      CqaRequest sequential = request;
      sequential.options.threads = 1;

      CqaResult par = AnswerQuery(&f.engine.value(), request);
      CqaResult seq = AnswerQuery(&f.engine.value(), sequential);
      ExpectSameAnswers(&f.ex.db, f.engine->program(), query, par, seq,
                        StrFormat("cold round %d %s", round, s.c_str()));

      CqaResult warm_par = (*warm_or)->ExecuteCqa(request);
      ExpectSameAnswers(&f.ex.db, f.engine->program(), query, warm_par, seq,
                        StrFormat("warm round %d %s", round, s.c_str()));
    }
  }

  // Answers that share cones: several judges each load and reuse a
  // solver for the same memoized slices.
  RandomInstance erc = MakeErcInstance(7);
  StatusOr<RepairEngine> erc_cold = RepairEngine::Create(&erc.db, erc.program);
  ASSERT_TRUE(erc_cold.ok());
  for (int round = 0; round < rounds; ++round) {
    for (const char* q : kErcQueries) {
      CqaRequest request("independent", q);
      request.annotate = true;
      request.options.threads = 4;
      CqaRequest sequential = request;
      sequential.options.threads = 1;

      CqaResult par = AnswerQuery(&erc_cold.value(), request);
      CqaResult seq = AnswerQuery(&erc_cold.value(), sequential);
      ExpectSameAnswers(&erc.db, erc_cold->program(), q, par, seq,
                        StrFormat("erc cold round %d\nquery: %s", round, q));
      EXPECT_GT(par.stats.slice.sliced_solve_calls, 0u) << q;

      // A fresh warm engine, so no verdict cache answers in its place.
      StatusOr<std::unique_ptr<IncrementalEngine>> erc_warm =
          IncrementalEngine::Create(&erc.db, erc.program);
      ASSERT_TRUE(erc_warm.ok());
      CqaResult warm_par = (*erc_warm)->ExecuteCqa(request);
      ExpectSameAnswers(&erc.db, erc_cold->program(), q, warm_par, seq,
                        StrFormat("erc warm round %d\nquery: %s", round, q));
      EXPECT_GT(warm_par.stats.slice.sliced_solve_calls, 0u) << q;
    }
  }
}

}  // namespace
}  // namespace deltarepair
