// Seeded inputs of the three workloads: the MAS and TPC-H instances of
// the paper's experiments (through the library's generators) and the
// shared-cone ERC cascade instance, each paired with its delta program.
#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "relation/database.h"

namespace perfbench {

/// A pristine database plus one delta program over it. Requests copy the
/// database, so the instance itself is never mutated; instances generated
/// together share one database.
struct Instance {
  std::string name;
  std::shared_ptr<const deltarepair::Database> db;
  deltarepair::Program program;
};

/// The ERC cascade instance has 2000 authors spread over 60
/// organisations, 6 of them 'ERC' (a quarter of the authors sit in
/// those), and 2 papers per author drawn from 3000. Every ERC
/// organisation's authors and papers form one residual component of the
/// independent repair space, so the answers of `kErcQuery` that come from
/// one ERC organisation share one cone.
inline constexpr const char* kErcProgram =
    "~Author(a, n, o) :- Author(a, n, o), Org(o, x), x = 'ERC'.\n"
    "~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).\n";
inline constexpr const char* kErcQuery =
    "Q(n, p) :- Author(a, n, o), Writes(a, p).";

deltarepair::Database GenerateErc(uint64_t seed);

/// MAS program `num` (1-20) over a MAS instance of `scale` x the default
/// generator size, generated from `seed`.
std::vector<Instance> MasInstances(uint64_t seed, double scale,
                                   const std::vector<int>& programs);
/// TPC-H programs T`num` over one TPC-H instance.
std::vector<Instance> TpchInstances(uint64_t seed, double scale,
                                    const std::vector<int>& programs);
Instance ErcInstance(uint64_t seed);

/// Live tuples per relation, "Author:900 Writes:1800 ...".
std::string LiveCounts(const deltarepair::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
