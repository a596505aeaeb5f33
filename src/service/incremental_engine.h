// IncrementalEngine: warm delta-aware execution state for repair and CQA
// serving. Where RepairEngine re-grounds, re-encodes and re-solves every
// request from scratch, this engine keeps one warm copy of every layer's
// state across instance versions and advances it by realized deltas
// (Database::DeltaSince):
//
//   relation layer   a warm InstanceView carried forward by ApplyDelta;
//   grounder layer   a GroundProgramCache advanced per delta into a
//                    ground-program patch (added/retracted rule ids);
//   solver layer     an IncrementalDeletionCnf applying that patch to a
//                    long-lived CDCL solver (learned clauses survive)
//                    with warm component-cached Min-Ones;
//   repair layer     a FixpointCache replaying the end-semantics
//                    fixpoint by delete-rederive, plus per-semantics
//                    result reuse while the ground program is unchanged;
//   CQA layer        the independent SymbolicRepairSpace over the
//                    long-lived solver and a per-epoch SliceState,
//                    plus a per-answer verdict cache keyed by the
//                    answer's provenance cone (component content keys) —
//                    only answers whose cone intersects the delta are
//                    re-validated.
//
// Soundness anchor: the hypothetical ground program is a non-recursive
// join over the live set, so the cache maintains it exactly; every
// semantics' rule firings bind only live rows, so an *empty* patch
// certifies that all repair outcomes and CQA verdicts are unchanged.
//
// Cold fallbacks (correctness first): the warm state is rebuilt from
// scratch when the delta fraction exceeds
// IncrementalEngineOptions::cold_fallback_fraction, when the warm
// version has aged out of the database's bounded delta history, or when
// any maintenance step was interrupted. Budget-truncated warm work never
// poisons a cache — truncated caches are invalidated, and truncated
// requests are re-served by the cold engine.
//
// Thread model: every public entry serializes on one internal mutex (the
// warm state is a single shared artifact — that is the point). Callers
// must still prevent concurrent *database* mutation, e.g. by holding the
// store's reader lock across a call (lock order: store, then engine).
#ifndef DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
#define DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cqa/cqa.h"
#include "cqa/repair_space.h"
#include "datalog/ground_cache.h"
#include "provenance/incremental_cnf.h"
#include "repair/fixpoint.h"
#include "repair/repair_engine.h"

namespace deltarepair {

struct IncrementalEngineOptions {
  /// Realized-delta fraction (delta tuples / live tuples) above which a
  /// sync abandons incremental maintenance and cold-rebuilds: past this
  /// point re-grounding is cheaper than patching. <= 0 disables the
  /// fallback (always incremental).
  double cold_fallback_fraction = 0.25;
  /// Scrub (compact in place) the long-lived solver once this many
  /// selectors have been retired: the unit-retired selector clauses are
  /// physically dropped and the retired selector / stale totalizer
  /// variables reclaimed, while the component cache, saved phases and
  /// the solved epoch survive (only learned clauses are given up).
  size_t selector_gc_threshold = 4096;
  /// Per-answer CQA verdict cache entries kept before a full clear.
  size_t max_verdict_cache_entries = 1 << 20;
};

class IncrementalEngine {
 public:
  /// Resolves `program` against `db` (the cold engine's contract) and
  /// builds the initial warm state eagerly, so the first request is
  /// already served warm. `db` must outlive the engine.
  static StatusOr<std::unique_ptr<IncrementalEngine>> Create(
      Database* db, Program program, IncrementalEngineOptions options = {});

  /// Executes one repair request against the current instance version,
  /// syncing the warm state first. Equivalent to the cold engine's
  /// read-only path (`apply` is ignored — route applying requests to the
  /// cold engine under an exclusive lock).
  RepairOutcome ExecuteRepair(const RepairRequest& request);

  /// Executes one CQA request against the current instance version,
  /// syncing the warm state first.
  CqaResult ExecuteCqa(const CqaRequest& request);

  struct Stats {
    uint64_t syncs = 0;
    uint64_t noop_syncs = 0;         // warm state already current
    uint64_t incremental_syncs = 0;  // advanced by delta maintenance
    uint64_t cold_rebuilds = 0;      // full re-ground fallbacks
    uint64_t empty_patches = 0;      // deltas that left the ground
                                     // program untouched
    uint64_t incremental_repairs = 0;   // served from warm state
    uint64_t reused_repair_results = 0; // unchanged-epoch result reuse
    uint64_t cold_repairs = 0;          // delegated to the cold engine
    uint64_t warm_cqa = 0;
    uint64_t cold_cqa = 0;
    uint64_t verdict_cache_hits = 0;
    uint64_t verdict_cache_misses = 0;
    uint64_t minones_components_reused = 0;
    uint64_t minones_components_solved = 0;
    /// Long-lived-solver compaction gauges (cumulative, mirrored from
    /// the CNF layer at read time).
    uint64_t scrub_runs = 0;
    uint64_t clauses_reclaimed = 0;
    uint64_t vars_reclaimed = 0;
  };
  Stats stats() const;

  /// Instance version the warm state currently reflects.
  uint64_t warm_version() const;

  const Program& program() const { return cold_->program(); }

  /// The cold (from-scratch) engine, for applying repairs and as the
  /// correctness fallback.
  RepairEngine* cold_engine() { return cold_.get(); }

 private:
  IncrementalEngine(Database* db, IncrementalEngineOptions options)
      : db_(db), options_(options) {}

  /// Brings the warm state to db_->version(). All *Locked members
  /// require mu_ held.
  void SyncLocked();
  void ColdRebuildLocked();
  /// Runs/reuses the warm Min-Ones pass; after a successful return
  /// cnf_.SolvedAtCurrentEpoch() holds and last_minones_ is current.
  void EnsureWarmSolveLocked(const MinOnesOptions& base, ExecContext* ctx);
  /// Rebuilds warm_slice_ (dense snapshot + cone decomposition) when the
  /// CNF epoch moved. Requires a valid warm optimum (minones_valid_).
  void EnsureWarmSliceLocked();
  /// End semantics from warm state: cached fixpoint replay, or a full
  /// fixpoint run (on the warm view) that seeds the cache.
  RepairOutcome EndRepairLocked(const RepairRequest& request);
  /// Stage/step: epoch-cached result reuse, else a cold run on the warm
  /// view that fills the cache.
  RepairOutcome DeterministicRepairLocked(const RepairRequest& request,
                                          SemanticsKind kind);
  RepairOutcome IndependentRepairLocked(const RepairRequest& request);

  /// 128-bit signature of one answer's provenance cone. Cone-grained
  /// when the warm slice state is current: monomial tuple ids
  /// interleaved with each deletion variable's forced state and — for
  /// open variables — the content key of its *residual* component,
  /// which is far smaller than a raw CNF component on join-heavy
  /// programs, so fewer deltas invalidate cached verdicts. Falls back
  /// to raw component content keys when no slice state is current.
  /// Equal signatures across versions imply equal certain/possible
  /// verdicts.
  std::pair<uint64_t, uint64_t> AnswerSignatureLocked(
      const AnswerProvenance& prov) const;

  Database* db_ = nullptr;
  IncrementalEngineOptions options_;
  std::unique_ptr<RepairEngine> cold_;

  mutable std::mutex mu_;
  // Warm state (all guarded by mu_). Invariant between calls: view_
  // mirrors version warm_version_ with *empty* delta relations.
  InstanceView view_;
  uint64_t warm_version_ = 0;
  GroundProgramCache ground_cache_;
  IncrementalDeletionCnf cnf_;
  FixpointCache fixpoint_cache_;
  /// Construction-effort counters of the run that seeded
  /// fixpoint_cache_, reported by warm end-semantics CQA so its space
  /// stats match what the cold builder would emit.
  RepairStats fixpoint_stats_;
  /// Bumped on every ground-program change (non-empty patch or rebuild);
  /// per-semantics cached results are valid while it is unchanged.
  uint64_t ground_epoch_ = 0;
  WarmMinOnesResult last_minones_;
  bool minones_valid_ = false;
  /// Dense active-clause snapshot + cone decomposition, rebuilt lazily
  /// per CNF epoch; serves warm CQA slicing and the cone-grained
  /// verdict-cache signatures.
  SliceState warm_slice_;
  RepairResult stage_result_, step_result_;
  uint64_t stage_epoch_ = UINT64_MAX, step_epoch_ = UINT64_MAX;

  struct VerdictEntry {
    uint64_t sig1 = 0, sig2 = 0;
    CqaVerdict certain, possible;
  };
  /// (query text \x1f answer tuple) -> cached verdicts + signature.
  std::unordered_map<std::string, VerdictEntry> verdict_cache_;

  Stats stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
