// The cold, sequential request loop behind batch_repair and
// cqa_shared_cone: one caller runs a fixed list of repair and CQA requests
// per round, each on a fresh copy of its instance through the library's
// public entry points (RepairEngine::Create + Execute, AnswerQuery), as a
// CLI user would.
#ifndef PERFBENCH_COLD_H_
#define PERFBENCH_COLD_H_

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "instances.h"

namespace perfbench {

struct ColdOp {
  enum class Kind { kRepair, kCqa };
  Kind kind = Kind::kRepair;
  size_t instance = 0;  // index into ColdSetup::instances
  std::string semantics;
  std::string query;  // CQA only
  /// Wall-clock budget (0 = none). Only the deliberately failing request
  /// of cqa_shared_cone carries one.
  double budget_seconds = 0;
  /// Instance variant whose rounds run this request.
  int variant = 0;
};

/// Round r runs the requests of variant r % variants: the same request
/// list over instances generated from different sub-seeds, so that one
/// run averages over several instance shapes. Runs are whole cycles of
/// all variants.
struct ColdSetup {
  std::vector<Instance> instances;
  std::vector<ColdOp> ops;
  int variants = 1;
};

/// First request on a fresh copy of `inst` minus the median of its
/// repeats on the same engine: the lazily built indexes (relation layer)
/// the first request pays for.
double FirstTouchMs(const Instance& inst, const std::string& semantics);

/// Runs one cold workload: `make_setup` is timed (and repeated) as the
/// set-up, then whole rounds of `ops` run for opts.seconds, then the
/// outputs are checked. Returns the process exit code.
int RunCold(const Options& opts,
            const std::function<ColdSetup(Layers*)>& make_setup,
            double tail_pct);

}  // namespace perfbench

#endif  // PERFBENCH_COLD_H_
