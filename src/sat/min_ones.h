// Min-Ones SAT (Sec. 5.1 / [31]): find a satisfying assignment with the
// minimum number of variables set to true. This replaces the paper's use
// of the Z3 optimizing solver in Algorithm 1: variables are candidate
// tuple deletions; minimizing true variables = minimizing the repair.
//
// The optimizer is an anytime bounded search over the incremental CDCL
// engine (solver.h):
//  1. normalize (dedupe + unit subsumption), then preprocess with the
//     objective in mind: unit propagation plus pure-negative-literal
//     elimination decide most deletion variables outright
//     (ReduceForMinimumModels, sat/cnf_split.h — the reduction the cone
//     slicer reads too),
//  2. decompose the residual into connected components (violation
//     clusters solve independently — the dominant win on
//     denial-constraint instances; SplitComponents, the one split shared
//     with the slicer, the cold entailment caps and the warm cache),
//  3. one greedy-cover-seeded global solve hands every component a warm
//     incumbent; components whose incumbent matches the disjoint
//     all-positive-clause lower bound are proven optimal on the spot,
//  4. each remaining component gets its own incremental solver: a
//     totalizer cardinality counter (capped at the incumbent) is emitted
//     once, and the optimum is bisected via single-literal assumptions
//     "sum <= t" — learned clauses carry across bounds; UNSAT proves
//     optimality. Components too large for a totalizer fall back to
//     blocking-clause descent with a non-improvement cap.
//
// A work budget / deadline / cancel flag turns the solver into an anytime
// heuristic: when exhausted, the best incumbent is returned with
// optimal=false (the paper makes the same "any satisfying assignment is
// still a stabilizing set" observation).
#ifndef DELTAREPAIR_SAT_MIN_ONES_H_
#define DELTAREPAIR_SAT_MIN_ONES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "sat/cnf.h"
#include "sat/solver.h"

namespace deltarepair {

struct MinOnesOptions {
  /// Engine work budget (decisions + propagations) across the whole
  /// instance (anytime cutoff).
  uint64_t max_assignments = 100'000'000;
  /// Wall-clock cutoff in seconds for the whole instance; each variable
  /// component is additionally guaranteed a small minimum slice so late
  /// components still get an incumbent.
  double time_limit_seconds = 5.0;
  /// Connected-component decomposition (ablation knob; always beneficial
  /// in practice, see bench_ablation).
  bool decompose_components = true;
  /// Clause learning (ablation knob; off = conflict-driven backjumping
  /// without a persistent clause database).
  bool enable_learning = true;
  /// Luby restarts (ablation knob).
  bool enable_restarts = true;
  /// Totalizer size estimate (component vars x incumbent) above which
  /// exact bound probing gives way to blocking-clause descent. Mostly a
  /// tuning/testing knob; 0 forces blocking descent everywhere.
  uint64_t max_totalizer_area = 100'000;
  /// Optional cooperative cancellation (observed alongside the wall-clock
  /// check). Treated like an exhausted budget: the incumbent (or the
  /// all-true fallback) is returned with optimal=false. If cancellation
  /// fires before *any* model exists for some component, the result is
  /// satisfiable=false with optimal=false — "unknown", not an unsat
  /// proof (satisfiable=false with optimal=true is proven).
  const std::atomic<bool>* cancel = nullptr;
};

struct MinOnesResult {
  bool satisfiable = false;
  /// True when the returned model is provably minimum.
  bool optimal = false;
  /// Model indexed by variable; valid when satisfiable.
  std::vector<bool> model;
  /// Number of true variables in the model.
  uint32_t num_true = 0;
  /// Decisions + propagations across all components (work measure).
  uint64_t engine_assignments = 0;
  /// Number of independent variable components solved.
  uint32_t num_components = 0;
  /// CDCL counters aggregated across components and bound iterations.
  SolverStats solver;
  /// What the pre-solve normalization dropped.
  Cnf::NormalizeStats normalize;
};

/// Solves min-ones over `cnf`.
MinOnesResult MinOnesSat(const Cnf& cnf, const MinOnesOptions& options = {});

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_MIN_ONES_H_
