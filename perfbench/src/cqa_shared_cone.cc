// cqa_shared_cone: one caller, cold CQA on instances whose answers share
// large provenance cones. Every round answers three join queries over
// TPC-H T1-T6 and the ERC cascade's query under end, stage and
// independent semantics, and repairs the same instances under all four
// semantics. Per-answer entailment dominates; grounding is small.
//
// The seed generates the ERC instances. The four TPC-H variants are the
// same for every seed: the cost of independent CQA on T-3 follows the
// size of the largest shared cone, which the generator's seed moves by up
// to 7x (77 ms to 529 ms at scale 0.5), so seeded TPC-H instances moved
// cqa_ms by 25% between seeds.
//
// One request fails in every cycle (it runs in variant 0's round), on a
// seed-independent instance: independent CQA of Lineitem⋈PartSupp under
// T-3 at TPC-H scale 3. The cold sliced judge builds a fresh solver per
// answer and re-encodes the answer's whole cone each time, so answers
// that share a cone cost O(answers x cone) and the request exhausts its
// budget with undecided answers.
#include "cold.h"

namespace perfbench {

namespace {

constexpr double kTpchScale = 0.5;
constexpr uint64_t kTpchSeed = 7;  // TPC-H generator default
constexpr double kFailingScale = 3.0;
// About twice the slowest request that completes (the ERC independent
// CQA, ~0.55 s, one per round), so the failing request is always the
// slowest of its cycle and tail_ms (p99, ~3.4 of a cycle's 341 requests
// above it) reads the ERC request, not this budget.
constexpr double kFailingBudgetSeconds = 1.0;
constexpr int kVariants = 4;
constexpr const char* kSemantics[] = {"end", "stage", "step", "independent"};
constexpr const char* kCqaSemantics[] = {"end", "stage", "independent"};
constexpr const char* kTpchQueries[] = {
    "Q(o, p) :- Lineitem(o, s, p), PartSupp(s, p).",
    "Q(n, o) :- Supplier(s, n, k), Lineitem(o, s, p).",
    "Q(n, o) :- Customer(c, n, k), Orders(o, c).",
};

ColdSetup MakeSetup(uint64_t seed, Layers* layers) {
  ColdSetup setup;
  setup.variants = kVariants;
  Stopwatch generate;
  std::vector<Instance> failing =
      TpchInstances(kTpchSeed, kFailingScale, {3});
  failing[0].name = "T3-x3";
  setup.instances.push_back(std::move(failing[0]));
  setup.ops.push_back({ColdOp::Kind::kCqa, 0, "independent", kTpchQueries[0],
                       kFailingBudgetSeconds, 0});
  for (int v = 0; v < kVariants; ++v) {
    const size_t base = setup.instances.size();
    for (Instance& inst :
         TpchInstances(Mix(kTpchSeed, 30 + v), kTpchScale, {1, 2, 3, 4, 5, 6})) {
      setup.instances.push_back(std::move(inst));
    }
    setup.instances.push_back(ErcInstance(Mix(seed, 40 + v)));
    for (size_t i = base; i < setup.instances.size(); ++i) {
      const bool is_erc = i + 1 == setup.instances.size();
      for (const char* s : kSemantics) {
        setup.ops.push_back({ColdOp::Kind::kRepair, i, s, "", 0, v});
      }
      for (const char* s : kCqaSemantics) {
        if (is_erc) {
          setup.ops.push_back({ColdOp::Kind::kCqa, i, s, kErcQuery, 0, v});
          continue;
        }
        for (const char* q : kTpchQueries) {
          setup.ops.push_back({ColdOp::Kind::kCqa, i, s, q, 0, v});
        }
      }
    }
  }
  layers->Set("workload.generate_ms", generate.Ms());
  return setup;
}

}  // namespace

int RunCqaSharedCone(const Options& opts) {
  return RunCold(
      opts, [&](Layers* layers) { return MakeSetup(opts.seed, layers); },
      99.0);
}

}  // namespace perfbench
