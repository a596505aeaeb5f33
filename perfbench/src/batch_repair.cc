// batch_repair: the paper's Fig. 7/9 sweep as a CLI user runs it — one
// caller, sequential and cold. Every round repairs MAS programs 1-20 and
// TPC-H T1-T6 under all four semantics and answers the two MAS queries
// of bench_cqa under end, stage and independent semantics. Grounding,
// the fixpoint, the provenance graph and Min-Ones do the work;
// entailment, the server and the warm engine do none.
#include <algorithm>
#include <iterator>
#include <string>

#include "cold.h"

namespace perfbench {

namespace {

constexpr double kMasScale = 2.0;
constexpr double kTpchScale = 2.0;
constexpr int kCqaProgram = 20;
constexpr int kVariants = 4;
constexpr const char* kSemantics[] = {"end", "stage", "step", "independent"};
constexpr const char* kCqaSemantics[] = {"end", "stage", "independent"};
// Algorithm 1 stops without proving its optimum on MAS programs 8 and 14
// for every seed, and on program 15 for some seeds, yet reports the run
// complete; their independent requests are left out of the sweep (their
// end, stage and step requests stay in).
constexpr int kUnprovenIndependent[] = {8, 14, 15};
constexpr const char* kMasQueries[] = {
    "Q(n) :- Author(a, n, o), Writes(a, p).",
    "Q(p, t) :- Publication(p, t), Writes(a, p), Author(a, n, o).",
};

ColdSetup MakeSetup(uint64_t seed, Layers* layers) {
  ColdSetup setup;
  setup.variants = kVariants;
  Stopwatch generate;
  std::vector<int> mas_programs;
  for (int p = 1; p <= 20; ++p) mas_programs.push_back(p);
  for (int v = 0; v < kVariants; ++v) {
    const size_t mas_base = setup.instances.size();
    for (Instance& inst : MasInstances(Mix(seed, 10 + v), kMasScale,
                                       mas_programs)) {
      setup.instances.push_back(std::move(inst));
    }
    for (Instance& inst : TpchInstances(Mix(seed, 20 + v), kTpchScale,
                                        {1, 2, 3, 4, 5, 6})) {
      setup.instances.push_back(std::move(inst));
    }
    for (size_t i = mas_base; i < setup.instances.size(); ++i) {
      const size_t program = i - mas_base;  // < 20: MAS program + 1
      for (const char* s : kSemantics) {
        if (program < mas_programs.size() && std::string(s) == "independent" &&
            std::count(std::begin(kUnprovenIndependent),
                       std::end(kUnprovenIndependent),
                       mas_programs[program]) > 0) {
          continue;
        }
        setup.ops.push_back({ColdOp::Kind::kRepair, i, s, "", 0, v});
      }
    }
    const size_t cqa_instance = mas_base + kCqaProgram - 1;
    for (const char* q : kMasQueries) {
      for (const char* s : kCqaSemantics) {
        setup.ops.push_back({ColdOp::Kind::kCqa, cqa_instance, s, q, 0, v});
      }
    }
  }
  layers->Set("workload.generate_ms", generate.Ms());
  return setup;
}

}  // namespace

int RunBatchRepair(const Options& opts) {
  return RunCold(
      opts, [&](Layers* layers) { return MakeSetup(opts.seed, layers); },
      95.0);
}

}  // namespace perfbench
