// The unified repair-request surface: one options struct shared by every
// semantics, a cooperative cancellation token, a request/outcome pair the
// RepairEngine executes, and the ExecContext that threads wall-clock
// budgets and cancellation into the inner loops of all four algorithms.
//
// All four semantics share the paper's problem statement (find a
// stabilizing set, Def. 3.14) but differ wildly in cost — end/stage are
// PTIME, step/independent are NP-hard (Prop. 4.2) — so a serving system
// must be able to bound any of them uniformly. The anytime contract is:
// when the budget expires the runner still returns a *stabilizing* set
// (not necessarily small); when cancelled it returns whatever partial
// progress it had, as fast as it can.
#ifndef DELTAREPAIR_REPAIR_REPAIR_OPTIONS_H_
#define DELTAREPAIR_REPAIR_REPAIR_OPTIONS_H_

#include <atomic>
#include <limits>
#include <optional>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "repair/semantics.h"
#include "sat/min_ones.h"

namespace deltarepair {

class ProvenanceGraph;

/// Greedy ordering used within each layer of Algorithm 2 (ablation knob;
/// the paper uses max benefit).
enum class StepOrdering {
  kMaxBenefit,  // argmax b_t per pick (Algorithm 2 line 7)
  kArbitrary,   // arbitrary order (ablation baseline; shuffled when
                // RepairOptions.seed != 0)
};

/// Knobs of the step runner (Algorithm 2).
struct StepOptions {
  StepOrdering ordering = StepOrdering::kMaxBenefit;
};

/// Knobs of the independent runner (Algorithm 1).
struct IndependentOptions {
  MinOnesOptions min_ones;
};

/// Knobs of the CQA cone-of-influence slicing layer (query-scoped
/// pruning of the stability CNF; see provenance/cone.h).
struct SliceOptions {
  /// Decide per-answer entailment on the sliced CNF when sound,
  /// falling back to the full formula otherwise. Disabling forces every
  /// verdict through the full-CNF path (the differential test oracle).
  bool enable = true;
};

/// Cooperative cancellation. Cancel() may be called from any thread; the
/// running semantics observes it at its next periodic check and unwinds
/// with TerminationReason::kCancelled.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Raw flag for layers that must not depend on this header (the SAT
  /// solver takes the atomic directly).
  const std::atomic<bool>* flag() const { return &cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Machine-readable reason a repair run stopped.
enum class TerminationReason {
  kComplete,         // ran to its natural fixpoint / proven optimum
  kBudgetExhausted,  // wall-clock budget expired; result is a stabilizing
                     // set but not the semantics' full answer
  kCancelled,        // CancelToken fired; result is best-effort partial
  kInvalidProgram,   // the request itself could not be executed
};

const char* TerminationReasonName(TerminationReason r);

/// Per-run knobs shared by every semantics. Solver options that used to
/// live in ad-hoc per-semantics structs are folded in here so one request
/// shape covers all four runners (and future registry entries).
struct RepairOptions {
  /// Wall-clock budget in seconds for the whole run; <= 0 means unlimited.
  double budget_seconds = 0;
  /// Optional cooperative cancellation; must outlive the run.
  const CancelToken* cancel = nullptr;
  /// RNG seed for randomized strategies (0 = deterministic defaults; the
  /// step runner's kArbitrary ordering shuffles under a nonzero seed).
  uint64_t seed = 0;
  /// Re-check the returned deletion set with IsStabilizingSet and record
  /// the answer in RepairOutcome::verified.
  bool verify_after_run = false;
  /// Worker threads for RepairEngine::RunBatch (the per-request value is
  /// ignored by Execute; a batch runs with the maximum requested across
  /// its requests, falling back to the engine's default options).
  /// <= 1 means sequential. For unbudgeted, uncancelled requests the
  /// results are deterministic and identical to the sequential path
  /// regardless of this value; a wall-clock budget or cancel token can
  /// trip at a different point under contention, as it can between any
  /// two timed runs.
  int threads = 0;
  /// Min-Ones SAT knobs (independent semantics, Algorithm 1).
  IndependentOptions independent;
  /// CQA query-scoped CNF slicing knobs (certain/possible entailment).
  SliceOptions cqa_slice;
  /// Greedy-traversal knobs (step semantics, Algorithm 2).
  StepOptions step;
  /// When non-null, end semantics records every derivation here (the
  /// provenance-graph input of Algorithm 2 / Figure 5).
  ProvenanceGraph* record_provenance = nullptr;
};

/// One unit of serving traffic: which semantics to run, under which
/// options, and whether to leave the database repaired afterwards.
struct RepairRequest {
  RepairRequest() = default;
  explicit RepairRequest(std::string semantics_name)
      : semantics(std::move(semantics_name)) {}
  RepairRequest(std::string semantics_name, RepairOptions request_options)
      : semantics(std::move(semantics_name)),
        options(std::move(request_options)) {}

  /// Registry name: "end", "stage", "step", "independent" (or an alias).
  std::string semantics = "end";
  RepairOptions options;
  /// Leave the deletions applied to the database (RunBatch ignores this —
  /// batches are read-only sweeps over one initial state).
  bool apply = false;
  /// Observability correlation id (0 = none). Carried through the frame
  /// protocol, installed as the serving thread's TraceIdScope, and
  /// echoed in the response report when nonzero.
  uint64_t trace_id = 0;
};

/// Status-or-result shape of one executed request. `result` is meaningful
/// only when `status` is OK; `termination` says how the run ended.
struct RepairOutcome {
  Status status;
  TerminationReason termination = TerminationReason::kComplete;
  RepairResult result;
  /// Set iff options.verify_after_run: whether `result.deleted` is a
  /// stabilizing set of the engine's initial state (Def. 3.14).
  std::optional<bool> verified;

  bool ok() const { return status.ok(); }
};

/// Threads budget and cancellation into a runner's inner loops. One
/// context lives for one run; the first observed stop reason sticks.
/// Tick() is cheap enough for per-assignment call sites (it only reads
/// the clock every kTickStride calls); ShouldStop() is the unthrottled
/// variant for round/phase boundaries.
class ExecContext {
 public:
  /// Unlimited, uncancellable context (the legacy entry points).
  ExecContext() = default;
  explicit ExecContext(const RepairOptions& options)
      : cancel_(options.cancel),
        budget_seconds_(options.budget_seconds) {}

  /// Full check: consults the token and the clock. Sticky.
  bool ShouldStop() {
    if (reason_ != TerminationReason::kComplete) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      reason_ = TerminationReason::kCancelled;
      return true;
    }
    if (budget_seconds_ > 0 &&
        timer_.ElapsedSeconds() >= budget_seconds_) {
      reason_ = TerminationReason::kBudgetExhausted;
      return true;
    }
    return false;
  }

  /// Throttled check for hot loops (every kTickStride-th call is real).
  bool Tick() {
    if (reason_ != TerminationReason::kComplete) return true;
    if ((++ticks_ & (kTickStride - 1)) != 0) return false;
    return ShouldStop();
  }

  /// Latches kBudgetExhausted for a run that an internal cap (not the
  /// request's own budget) left unfinished. No-op once a reason stuck.
  void MarkTruncated() {
    if (reason_ == TerminationReason::kComplete) {
      reason_ = TerminationReason::kBudgetExhausted;
    }
  }

  /// True once a stop reason has been latched.
  bool stopped() const { return reason_ != TerminationReason::kComplete; }
  TerminationReason reason() const { return reason_; }

  /// Seconds left in the budget (+inf when unlimited); used to bound the
  /// SAT solver's own deadline.
  double RemainingSeconds() const {
    if (budget_seconds_ <= 0) {
      return std::numeric_limits<double>::infinity();
    }
    double left = budget_seconds_ - timer_.ElapsedSeconds();
    return left > 0 ? left : 0;
  }

  const CancelToken* cancel_token() const { return cancel_; }

  static constexpr uint64_t kTickStride = 256;

 private:
  WallTimer timer_;
  const CancelToken* cancel_ = nullptr;
  double budget_seconds_ = 0;
  uint64_t ticks_ = 0;
  TerminationReason reason_ = TerminationReason::kComplete;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_REPAIR_REPAIR_OPTIONS_H_
