#include "instances.h"

#include <cstdio>
#include <cstdlib>
#include <random>

#include "datalog/parser.h"
#include "workload/mas_generator.h"
#include "workload/programs.h"
#include "workload/tpch_generator.h"

namespace perfbench {

using deltarepair::Database;
using deltarepair::RelationSchema;
using deltarepair::Value;
using deltarepair::ValueType;

namespace {

constexpr size_t kErcAuthors = 2000;
constexpr size_t kErcOrgs = 60;
constexpr size_t kErcErcOrgs = 6;
constexpr double kErcShare = 0.25;  // of authors placed in ERC orgs
constexpr size_t kErcPubs = 3000;
constexpr int kErcWritesPerAuthor = 2;
constexpr size_t kErcNamePool = 800;

}  // namespace

Database GenerateErc(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) {
    return static_cast<int64_t>(
        std::uniform_int_distribution<size_t>(0, n - 1)(rng));
  };
  Database db;
  const uint32_t author = db.AddRelation(RelationSchema(
      "Author", {{"aid", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"oid", ValueType::kInt}}));
  const uint32_t org = db.AddRelation(RelationSchema(
      "Org", {{"oid", ValueType::kInt}, {"oname", ValueType::kString}}));
  const uint32_t writes = db.AddRelation(RelationSchema(
      "Writes", {{"aid", ValueType::kInt}, {"pid", ValueType::kInt}}));
  static const char* kOther[] = {"UCSD", "MIT", "EPFL", "TAU", "CMU"};
  for (size_t o = 0; o < kErcOrgs; ++o) {
    const bool erc = o < kErcErcOrgs;
    db.Insert(org, {Value(static_cast<int64_t>(o)),
                    Value(erc ? "ERC" : kOther[o % 5])});
  }
  std::bernoulli_distribution in_erc(kErcShare);
  for (size_t a = 0; a < kErcAuthors; ++a) {
    const int64_t oid =
        in_erc(rng)
            ? pick(kErcErcOrgs)
            : static_cast<int64_t>(kErcErcOrgs) +
                  pick(kErcOrgs - kErcErcOrgs);
    char name[32];
    std::snprintf(name, sizeof(name), "n%lld",
                  static_cast<long long>(pick(kErcNamePool)));
    db.Insert(author,
              {Value(static_cast<int64_t>(a)), Value(name), Value(oid)});
    for (int w = 0; w < kErcWritesPerAuthor; ++w) {
      db.Insert(writes, {Value(static_cast<int64_t>(a)),
                         Value(pick(kErcPubs))});
    }
  }
  return db;
}

std::vector<Instance> MasInstances(uint64_t seed, double scale,
                                   const std::vector<int>& programs) {
  deltarepair::MasConfig config;
  config.seed = seed;
  deltarepair::MasData mas = deltarepair::GenerateMas(config.Scaled(scale));
  auto db = std::make_shared<const Database>(std::move(mas.db));
  std::vector<Instance> out;
  for (int num : programs) {
    char name[16];
    std::snprintf(name, sizeof(name), "mas%d", num);
    out.push_back({name, db, deltarepair::MasProgram(num, mas.hubs)});
  }
  return out;
}

std::vector<Instance> TpchInstances(uint64_t seed, double scale,
                                    const std::vector<int>& programs) {
  deltarepair::TpchConfig config;
  config.seed = seed;
  deltarepair::TpchData tpch =
      deltarepair::GenerateTpch(config.Scaled(scale));
  auto db = std::make_shared<const Database>(std::move(tpch.db));
  std::vector<Instance> out;
  for (int num : programs) {
    char name[16];
    std::snprintf(name, sizeof(name), "T%d", num);
    out.push_back({name, db, deltarepair::TpchProgram(num, tpch.consts)});
  }
  return out;
}

Instance ErcInstance(uint64_t seed) {
  auto program = deltarepair::ParseProgram(kErcProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "ERC program: %s\n",
                 program.status().ToString().c_str());
    std::exit(1);
  }
  return {"erc", std::make_shared<const Database>(GenerateErc(seed)),
          std::move(program).value()};
}

std::string LiveCounts(const Database& db) {
  std::string out;
  for (uint32_t r = 0; r < db.num_relations(); ++r) {
    if (!out.empty()) out += ' ';
    out += db.relation(r).schema().name() + ":" +
           std::to_string(db.live_count(r));
  }
  return out;
}

}  // namespace perfbench
