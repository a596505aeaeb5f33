// Sliced per-answer entailment: certain/possible verdicts and minimal
// counterexamples decided on a query-scoped cone of the stability CNF
// (provenance/cone.h) instead of the full formula.
//
// A SlicedJudge is the per-worker face of one ConeSlicer. It keeps one
// long-lived incremental solver per slice it meets, loaded once with the
// slice CNF and its cardinality caps; each certain/possible check adds
// the answer's clauses under a fresh selector, solves under it and then
// retires it, so answers sharing a cone share one solver and its learned
// clauses. Judges on different threads share no solver state. Verdicts
// are the same at any thread count; the solver-effort counters
// (conflicts, propagations) may vary when threads > 1, because which
// worker's solver decides which answer depends on scheduling. Each judge
// accumulates its own SliceStats / RepairStats; the owner folds them
// after the workers join.
//
// Soundness gate — a counterexample *declines* (kFallback) rather than
// guess, and the caller reruns it on the full CNF, when it must search
// outside the minimum-repair space: the answer is alive in every minimum
// repair but might die under a larger deletion set, or the cone-local
// Min-Ones optimum exceeds the cone's share of the global optimum (both
// mean the smallest killer may delete pinned variables the slice fixed
// by minimality-preserving preprocessing).
#ifndef DELTAREPAIR_CQA_ENTAILMENT_H_
#define DELTAREPAIR_CQA_ENTAILMENT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "cqa/repair_space.h"
#include "provenance/cone.h"
#include "repair/repair_options.h"
#include "sat/min_ones.h"

namespace deltarepair {

/// One certain (`certain` = true) or possible check on an incremental
/// solver whose models under `assumptions` are exactly the minimum
/// repairs. `monomials` holds each surviving monomial's deletion
/// variables (none empty). Adds ¬φ (every monomial loses a variable) or
/// a Tseitin-encoded φ (some monomial keeps all of them) under a fresh
/// selector, solves under assumptions + selector, then retires the
/// selector with a unit. Budget/cancel give the conservative undecided
/// bound.
CqaVerdict DecideOnSolver(CdclSolver* solver, bool certain,
                          const std::vector<std::vector<uint32_t>>& monomials,
                          std::vector<Lit> assumptions, ExecContext* ctx);

class SlicedJudge {
 public:
  /// `slicer` (nullable) must outlive the judge and may be shared across
  /// judges.
  SlicedJudge(ConeSlicer* slicer, const MinOnesOptions& min_ones);

  /// False without a valid slicer; every query must then go to the full
  /// CNF (no fallback counted).
  bool enabled() const { return slicer_ != nullptr && slicer_->valid(); }

  /// The certain (`certain` = true) or possible verdict over the
  /// minimum-repair space. decided=false means a budget/cancel tripped
  /// mid-solve.
  CqaVerdict Decide(const ConeSlicer::ReducedAnswer& red, bool certain,
                    ExecContext* ctx);

  struct CexOutcome {
    enum class Kind {
      kNone,      // no counterexample exists / none found in budget
      kFound,     // deleted_vars is a stabilizing killer
      kFallback,  // soundness gate: rerun on the full CNF
    };
    Kind kind = Kind::kNone;
    /// Global deletion variables of the killer, unsorted (kFound).
    std::vector<uint32_t> deleted_vars;
    /// Whether the killer is provably the smallest overall.
    bool minimal = false;
  };
  CexOutcome Counterexample(const ConeSlicer::ReducedAnswer& red,
                            ExecContext* ctx);

  /// Solve-side counters of this judge (sliced_solve_calls,
  /// slice_fallbacks); the owner folds them post-join.
  const SliceStats& slice_stats() const { return slice_stats_; }
  /// Solver work of this judge: its counterexample searches plus the
  /// cumulative counters of every per-slice solver it loaded. Read once,
  /// when the owner is done with the judge.
  RepairStats repair_stats() const;

 private:
  /// The slice's long-lived solver, loaded on first use with the slice
  /// CNF and its cardinality caps (models = the cone's minimum
  /// component repairs).
  CdclSolver* SolverFor(const ConeSlicer::Slice& slice);
  /// Monomials mapped into the slice's local variable space.
  static std::vector<std::vector<uint32_t>> LocalMonomials(
      const ConeSlicer::ReducedAnswer& red, const ConeSlicer::Slice& slice);

  ConeSlicer* slicer_;
  MinOnesOptions min_ones_;
  std::unordered_map<const ConeSlicer::Slice*, std::unique_ptr<CdclSolver>>
      solvers_;
  SliceStats slice_stats_;
  RepairStats repair_stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_ENTAILMENT_H_
