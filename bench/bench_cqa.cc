// Consistent query answering over the MAS workload and a shared-cone
// instance: for each cascade program and query, how expensive is
// grounding the query, building the per-semantics repair space, and
// deciding certain/possible per answer?
// Expected shape: end/stage spaces are one semantics run; the symbolic
// independent space pays Algorithm 1's CNF + Min-Ones once, then decides
// each answer on its cone. On MAS constant propagation decides every
// answer, so only the ERC cascade rows reach the entailment solver: the
// answers of one ERC organisation share one cone and one per-cone
// solver.
// Step is excluded: its space is an exhaustive enumeration of activation
// interleavings and does not scale past toy instances.
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "cqa/cqa.h"
#include "datalog/parser.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

struct BenchQuery {
  const char* name;
  const char* text;
};

/// The two-rule ERC cascade: 20000 x DR_SCALE authors over 60
/// organisations, 6 of them 'ERC' (a quarter of the authors sit in
/// those), two papers each. Every minimum repair deletes the ERC org
/// rows, and each ERC organisation's authors and papers form one
/// residual component, so its authors' answers share one cone. The
/// base of 20000 makes DR_SCALE=0.1 (the CI smoke scale) a 2000-author
/// instance whose ~1000 sliced solves clear bench_compare.py's
/// --min-counter floor, so the row is gated there too.
Database GenerateErc() {
  const size_t authors =
      std::max<size_t>(20, static_cast<size_t>(20000 * BenchScale()));
  const size_t pubs = authors * 3 / 2;
  const size_t names = std::max<size_t>(10, authors * 2 / 5);
  const int64_t kOrgs = 60, kErcOrgs = 6;
  Rng rng(7);
  Database db;
  const uint32_t author = db.AddRelation(
      RelationSchema("Author", {{"aid", ValueType::kInt},
                                {"name", ValueType::kString},
                                {"oid", ValueType::kInt}}));
  const uint32_t org = db.AddRelation(RelationSchema(
      "Org", {{"oid", ValueType::kInt}, {"oname", ValueType::kString}}));
  const uint32_t writes = db.AddRelation(RelationSchema(
      "Writes", {{"aid", ValueType::kInt}, {"pid", ValueType::kInt}}));
  for (int64_t o = 0; o < kOrgs; ++o) {
    db.Insert(org, {Value(o), Value(o < kErcOrgs ? "ERC" : "other")});
  }
  for (size_t a = 0; a < authors; ++a) {
    const int64_t oid =
        rng.NextBool(0.25)
            ? static_cast<int64_t>(rng.NextBounded(kErcOrgs))
            : kErcOrgs + static_cast<int64_t>(
                             rng.NextBounded(kOrgs - kErcOrgs));
    db.Insert(author,
              {Value(static_cast<int64_t>(a)),
               Value(StrFormat("n%d", static_cast<int>(
                                          rng.NextBounded(names)))),
               Value(oid)});
    for (int w = 0; w < 2; ++w) {
      db.Insert(writes, {Value(static_cast<int64_t>(a)),
                         Value(static_cast<int64_t>(rng.NextBounded(pubs)))});
    }
  }
  return db;
}

constexpr const char* kErcProgram =
    "~Author(a, n, o) :- Author(a, n, o), Org(o, x), x = 'ERC'.\n"
    "~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).\n";

int Main() {
  MasData mas = BenchMas();
  PrintHeader("CQA: certain/possible answers over MAS repair spaces");
  BenchReporter reporter("bench_cqa");
  TablePrinter table({"Program/Query", "Semantics", "Ground", "Space",
                      "Entail", "Total", "Answers", "Certain", "Possible",
                      "SolveCalls", "Sliced"});
  const char* semantics[] = {"end", "stage", "independent"};

  // One row per semantics for `query` over `engine`'s instance.
  auto run = [&](RepairEngine* engine, const std::string& prefix,
                 const BenchQuery& query) {
    std::vector<CqaRequest> requests;
    for (const char* name : semantics) {
      requests.emplace_back(name, query.text);
    }
    std::vector<CqaResult> results = AnswerQueryBatch(engine, requests, 1);
    for (const CqaResult& result : results) {
      if (!result.ok()) continue;
      const CqaStats& stats = result.stats;
      std::string label = StrFormat("%s/%s/%s", prefix.c_str(), query.name,
                                    result.semantics.c_str());
      reporter.AddRow(label)
          .Metric("ground_seconds", stats.ground_seconds)
          .Metric("space_seconds", stats.space_seconds)
          // The slicing layer's share: cone_seconds (preprocessing +
          // residual decomposition, inside space_seconds) and
          // slice_seconds (per-cone sub-CNF builds, inside
          // entail_seconds for lazily built slices).
          .Metric("cone_seconds", stats.slice.cone_seconds)
          .Metric("slice_seconds", stats.slice.slice_seconds)
          .Metric("entail_seconds", stats.entail_seconds)
          .Metric("total_seconds", stats.total_seconds)
          .Metric("answers", static_cast<int64_t>(stats.answers))
          .Metric("monomials", static_cast<int64_t>(stats.monomials))
          .Metric("certain_answers",
                  static_cast<int64_t>(stats.certain_answers))
          .Metric("possible_answers",
                  static_cast<int64_t>(stats.possible_answers))
          .Metric("repair_size", static_cast<int64_t>(stats.repair_size))
          .Metric("sat_solve_calls",
                  static_cast<int64_t>(stats.repair.sat_solve_calls))
          .Metric("cone_vars", static_cast<int64_t>(stats.slice.cone_vars))
          .Metric("cone_clauses",
                  static_cast<int64_t>(stats.slice.cone_clauses))
          .Metric("sliced_solve_calls",
                  static_cast<int64_t>(stats.slice.sliced_solve_calls))
          .Metric("slice_fallbacks",
                  static_cast<int64_t>(stats.slice.slice_fallbacks))
          .Metric("space_exact", stats.space_exact ? "yes" : "no");
      table.AddRow({StrFormat("%s/%s", prefix.c_str(), query.name),
                    result.semantics, Ms(stats.ground_seconds),
                    Ms(stats.space_seconds), Ms(stats.entail_seconds),
                    Ms(stats.total_seconds), std::to_string(stats.answers),
                    std::to_string(stats.certain_answers),
                    std::to_string(stats.possible_answers),
                    std::to_string(stats.repair.sat_solve_calls),
                    std::to_string(stats.slice.sliced_solve_calls)});
    }
  };

  const BenchQuery queries[] = {
      {"authors", "Q(n) :- Author(a, n, o), Writes(a, p)."},
      {"pubs",
       "Q(p, t) :- Publication(p, t), Writes(a, p), Author(a, n, o)."},
  };
  for (int num : {5, 10, 20}) {
    Database db = mas.db;
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&db, MasProgram(num, mas.hubs));
    if (!engine.ok()) continue;
    for (const BenchQuery& query : queries) {
      run(&engine.value(), StrFormat("mas%d", num), query);
    }
  }

  Database erc = GenerateErc();
  StatusOr<RepairEngine> erc_engine =
      RepairEngine::Create(&erc, ParseProgram(kErcProgram).value());
  if (erc_engine.ok()) {
    run(&erc_engine.value(), "erc",
        {"shared_cone", "Q(n, p) :- Author(a, n, o), Writes(a, p)."});
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
