// Per-semantics repair spaces for consistent query answering.
//
// Each delta-rule semantics of the paper picks out a *space* of
// stabilizing deletion sets — the sets it could output once its
// tie-breaking nondeterminism is made explicit:
//
//  * end / stage (Defs. 3.10 / 3.7): deterministic — a singleton;
//  * step (Def. 3.5): every minimum-size outcome of a maximal
//    activation sequence (the definition's argmin, not Algorithm 2's
//    greedy pick);
//  * independent (Def. 3.3): every minimum-size stabilizing set.
//
// A RepairSpace answers, for one query answer's why-provenance DNF,
// whether the answer survives every repair (certain) or some repair
// (possible), and can produce a minimal counterexample deletion set.
// Two representations exist:
//
//  * EnumeratedRepairSpace — an explicit list of repairs (end/stage
//    singletons; step via memoized DFS over activation sequences);
//  * SymbolicRepairSpace — the independent space as a CNF, built cold
//    per request or served from the warm engine's state: the negated
//    provenance formula of Algorithm 1 (models = stabilizing sets)
//    conjoined with totalizer cardinality caps at the Min-Ones optimum.
//    Certain/possible verdicts are incremental
//    CdclSolver::Solve(assumptions) calls — per answer, a retired
//    selector variable activates the clauses of ¬φ (certain: UNSAT ⇔
//    the answer survives every minimum repair) or of a Tseitin-encoded
//    φ (possible: SAT ⇔ some minimum repair keeps it), on the answer's
//    cone (cqa/entailment.h) or the full CNF; counterexamples re-run the
//    Min-Ones machinery over stability ∧ ¬φ.
//
// Spaces whose construction was truncated by a budget or cancellation
// are *inexact*: every verdict degrades to undecided with the
// conservative bounds (certain=false, possible=true).
//
// CqaRegistry maps semantics registry names (aliases resolve through
// SemanticsRegistry) to space builders, mirroring the pluggable
// semantics dispatch: a future fifth semantics registers a builder
// without touching the evaluator or the CLI.
#ifndef DELTAREPAIR_CQA_REPAIR_SPACE_H_
#define DELTAREPAIR_CQA_REPAIR_SPACE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cqa/query.h"
#include "provenance/bool_formula.h"
#include "provenance/cone.h"
#include "provenance/incremental_cnf.h"
#include "repair/repair_options.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {

/// Truth value of one certain/possible check. When `decided` is false
/// the space could not prove either way (inexact space, or a budget /
/// cancellation tripped mid-solve) and `holds` carries the conservative
/// bound: false for certain, true for possible.
struct CqaVerdict {
  bool holds = false;
  bool decided = false;
};

/// A minimal deletion set refuting one answer (annotated mode).
struct CqaCounterexample {
  std::vector<TupleId> deleted;  // sorted
  /// True when `deleted` is provably a minimum-cardinality killing
  /// member of the repair space. For the symbolic independent space
  /// this coincides with the smallest stabilizing set that kills the
  /// answer (Min-Ones proved its bound); false there means an anytime
  /// incumbent whose minimality was not proven.
  bool minimal = false;
};

/// Per-worker entailment handle of one RepairSpace. Parallel per-answer
/// evaluation gives each worker thread its own judge (thread-confined
/// scratch state; judges of one space are safe to use concurrently with
/// each other). Judges flush their work counters into the space on
/// destruction — destroy every judge before reading the space's stats.
class AnswerJudge {
 public:
  virtual ~AnswerJudge() = default;
  virtual CqaVerdict Certain(const AnswerProvenance& prov,
                             ExecContext* ctx) = 0;
  virtual CqaVerdict Possible(const AnswerProvenance& prov,
                              ExecContext* ctx) = 0;
  virtual std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) = 0;
};

class RepairSpace {
 public:
  virtual ~RepairSpace() = default;

  /// True when the space is exactly the semantics' repair set; false
  /// when construction was budget-truncated or cancelled.
  bool exact() const { return exact_; }
  /// Cardinality of every repair in the space (uniform by definition).
  /// Meaningful only when exact().
  uint32_t repair_size() const { return repair_size_; }
  /// Number of explicitly enumerated repairs (0 for symbolic spaces).
  virtual uint64_t NumEnumerated() const { return 0; }

  /// Does the answer survive every repair of the space?
  virtual CqaVerdict Certain(const AnswerProvenance& prov,
                             ExecContext* ctx) = 0;
  /// Does the answer survive at least one repair of the space?
  virtual CqaVerdict Possible(const AnswerProvenance& prov,
                              ExecContext* ctx) = 0;
  /// A smallest repair of the space under which no monomial of `prov`
  /// survives, or nullopt when none exists / none was found in budget.
  /// The symbolic space answers via Min-Ones over stability ∧ ¬φ, whose
  /// optimum is also the smallest stabilizing killer overall.
  virtual std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) = 0;

  /// Called once by the evaluator with the grounded answer count before
  /// any judge is created or any verdict is asked. Lets a space size its
  /// shared machinery to the request — e.g. the warm space only builds
  /// its cone decomposition when enough answers will amortize it.
  virtual void PrepareJudges(size_t num_answers) { (void)num_answers; }

  /// Per-worker judge for parallel evaluation, or nullptr when the
  /// space only supports direct (sequential) calls on its own methods.
  virtual std::unique_ptr<AnswerJudge> NewJudge() { return nullptr; }

  /// Folds construction + entailment work counters into `stats`
  /// (satisfies the CLI contract that sat_solve_calls etc. cover CQA
  /// entailment calls, not just Min-Ones).
  virtual void AddStats(RepairStats* stats) const { stats->Add(stats_); }
  /// Folds the slicing layer's counters into `stats` (no-op for spaces
  /// without one).
  virtual void AddSliceStats(SliceStats* stats) const { (void)stats; }

 protected:
  bool exact_ = true;
  uint32_t repair_size_ = 0;
  RepairStats stats_;
};

/// Explicit repairs (end/stage singletons, step argmin outcomes).
/// Repair spaces are never empty (every semantics outputs at least one
/// repair); an empty `repairs` list is treated as truncated
/// construction and forces the space inexact regardless of `exact`.
class EnumeratedRepairSpace : public RepairSpace {
 public:
  EnumeratedRepairSpace(std::vector<std::vector<TupleId>> repairs,
                        bool exact, RepairStats stats);

  uint64_t NumEnumerated() const override { return repairs_.size(); }
  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

  const std::vector<std::vector<TupleId>>& repairs() const {
    return repairs_;
  }

 private:
  /// True when some monomial of `prov` is disjoint from repair `i`.
  bool Survives(const AnswerProvenance& prov, size_t i) const;

  std::vector<std::vector<TupleId>> repairs_;        // each sorted
  std::vector<std::unordered_set<uint64_t>> packed_;  // per repair
};

/// The independent space's dense variable space: the stability CNF over
/// deletion variables 0..n-1 with each variable's tuple (`dense`), and
/// the minimum-repair cone decomposition over it (`slicer`; null when
/// slicing is off). A cold space builds its own; the warm engine keeps
/// one per CNF epoch and lends it to the requests that slice.
struct SliceState {
  DeletionCnfBuilder dense;
  std::unique_ptr<ConeSlicer> slicer;
  /// Warm only: the IncrementalDeletionCnf::epoch() this state reflects,
  /// and the dense extraction's time (the cone build is timed by the
  /// slicer's own stats).
  uint64_t epoch = UINT64_MAX;
  double extract_seconds = 0;
};

/// Returns the warm engine's slice state, current for the CNF's epoch
/// (rebuilding it if stale). Must stay valid for the space's lifetime.
using SliceStateProvider = std::function<SliceState*()>;

/// Requests grounding fewer answers than this leave the warm slice state
/// alone: below it the long-lived solver's direct assumption solves are
/// cheaper than refreshing the cone decomposition.
inline constexpr size_t kWarmMinAnswers = 16;

/// The independent space (Def. 3.3), symbolically, cold or warm. Per-
/// answer verdicts run through SlicedJudge on the answer's memoized cone
/// slice, one long-lived solver per slice and judge; the full-CNF path
/// stays as the soundness fallback and the differential-test oracle
/// (SliceOptions::enable = false). Cold and warm differ only in data:
///
///  * cold — built per request: grounds the stability CNF, pins its
///    cardinality with Min-Ones and decomposes it into cones; full-CNF
///    verdicts run on an owned solver with per-component totalizer caps,
///    loaded lazily on first use;
///  * warm — borrows the engine's long-lived IncrementalDeletionCnf,
///    which has run SolveMinOnes at its current epoch; full-CNF verdicts
///    run on its solver under entail_assumptions(), and requests of at
///    least kWarmMinAnswers answers slice on the engine's SliceState.
///    Exactly one warm space may be live at a time, and its owner must
///    hold the engine lock for the space's whole lifetime
///    (IncrementalEngine does).
///
/// Verdicts are the same at any thread count; solver-effort counters may
/// vary when threads > 1. Full-CNF certain/possible checks serialize on
/// one solver; counterexample fallbacks run Min-Ones over private copies
/// of the dense CNF and run concurrently.
class SymbolicRepairSpace : public RepairSpace {
 public:
  /// Cold: builds the space over the view's current state. Reads ctx
  /// for budget/cancel; on truncation the space is inexact.
  SymbolicRepairSpace(InstanceView* view, const Program& program,
                      const RepairOptions& options, ExecContext* ctx);
  /// Warm: `optimum` is `cnf`'s SolveMinOnes result at its current
  /// epoch; `slice_provider` (nullable: never slice) is invoked at most
  /// once, from PrepareJudges. Inexact when the optimum is unsatisfiable
  /// or unproven.
  SymbolicRepairSpace(IncrementalDeletionCnf* cnf,
                      const WarmMinOnesResult& optimum,
                      const RepairOptions& options,
                      SliceStateProvider slice_provider);

  /// Warm: fetches the engine's slice state when this request is big
  /// enough to amortize it (see kWarmMinAnswers).
  void PrepareJudges(size_t num_answers) override;

  /// Direct calls delegate to a temporary judge.
  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

  std::unique_ptr<AnswerJudge> NewJudge() override;

  /// Construction and entailment work. The borrowed warm solver's
  /// counters are cumulative across the engine's lifetime and are left
  /// out (the engine reports them once through its own stats).
  void AddStats(RepairStats* stats) const override;
  /// This request's judge work, plus the slice state's build-side
  /// counters and (warm) the solver-scrub gauges — cumulative over the
  /// engine lifetime, since the cone decomposition and compactions are
  /// amortized across requests.
  void AddSliceStats(SliceStats* stats) const override;

 private:
  friend class SymbolicJudge;

  /// Full-CNF certain/possible check: the answer's clauses under a
  /// retired selector on the fallback solver (cold: the owned capped
  /// solver, loaded on first use; warm: the borrowed one under
  /// entail_assumptions()). Serializes on fallback_mu_.
  CqaVerdict FallbackDecide(const AnswerProvenance& prov, bool certain,
                            ExecContext* ctx);
  /// Full-CNF counterexample: Min-Ones over a private copy of the dense
  /// stability CNF ∧ ¬φ — no shared solver, runs concurrently.
  std::optional<CqaCounterexample> FallbackCounterexample(
      const AnswerProvenance& prov, ExecContext* ctx);
  /// Loads the owned cold solver with the dense CNF plus per-component
  /// totalizer caps at the optimum (once). Requires fallback_mu_.
  void LoadColdSolverLocked();
  /// The dense CNF: the slice state's, or (warm, unsliced) a snapshot
  /// extracted once on first use.
  const DeletionCnfBuilder& Dense();

  MinOnesOptions min_ones_options_;
  bool slice_enable_ = true;
  IncrementalDeletionCnf* warm_cnf_ = nullptr;  // warm only: borrowed
  SliceStateProvider slice_provider_;
  /// Cold: the space's own state. Warm: the dense snapshot for
  /// counterexample fallbacks of requests that do not slice.
  SliceState owned_;
  std::once_flag owned_once_;
  /// The state judges read; set before any judge exists (cold:
  /// &owned_; warm: the provider's, when the request slices).
  SliceState* slice_ = nullptr;
  /// Cold: the proven-minimum model of the stability CNF.
  std::vector<bool> min_model_;

  std::mutex fallback_mu_;  // serializes the fallback solver
  bool cold_solver_loaded_ = false;
  CdclSolver cold_solver_;

  std::mutex stats_mu_;  // judges flush counters concurrently
  SliceStats slice_stats_;
};

/// Builds the repair space of one semantics over the view's current
/// state. The builder may scratch-mutate the view; the caller owns
/// snapshot/restore (CQA evaluation restores after building).
using RepairSpaceBuilder =
    std::function<std::unique_ptr<RepairSpace>(
        InstanceView* view, const Program& program,
        const RepairOptions& options, ExecContext* ctx)>;

/// Semantics name -> repair-space builder. Built-ins for the paper's
/// four semantics are registered on first use; additional semantics
/// register alongside their Semantics entry (thread-safe).
class CqaRegistry {
 public:
  static CqaRegistry& Global();

  /// `semantics_name` must be a primary SemanticsRegistry name.
  Status Register(std::string semantics_name, RepairSpaceBuilder builder);

  /// Lookup by semantics name or alias (aliases resolve through
  /// SemanticsRegistry); kNotFound when the semantics exists but has no
  /// CQA space provider, or does not exist at all.
  StatusOr<const RepairSpaceBuilder*> Get(const std::string& name) const;

 private:
  CqaRegistry();

  mutable std::mutex mu_;
  std::unordered_map<std::string, RepairSpaceBuilder> by_name_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_REPAIR_SPACE_H_
