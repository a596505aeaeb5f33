#include "service/incremental_engine.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relation/database.h"
#include "repair/stability.h"

namespace deltarepair {

namespace {

std::string VerdictCacheKey(const CqaRequest& request, const Tuple& values) {
  std::string key = request.semantics;
  key.push_back('\x1e');
  key.append(request.query);
  key.push_back('\x1f');
  key.append(TupleToString(values));
  return key;
}

/// Stats of a reused result: the effort counters of the run that
/// computed it (so a served report matches the cold one outside the
/// timing block), but this call's own timing. It ran no phase.
RepairStats ReusedStats(RepairStats stats, const WallTimer& elapsed) {
  stats.eval_seconds = 0;
  stats.process_prov_seconds = 0;
  stats.solve_seconds = 0;
  stats.traverse_seconds = 0;
  stats.total_seconds = elapsed.ElapsedSeconds();
  return stats;
}

std::vector<TupleId> SortedCopy(const std::vector<TupleId>& ids) {
  std::vector<TupleId> out = ids;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<IncrementalEngine>> IncrementalEngine::Create(
    Database* db, Program program, IncrementalEngineOptions options) {
  StatusOr<RepairEngine> cold = RepairEngine::Create(db, std::move(program));
  if (!cold.ok()) return cold.status();
  std::unique_ptr<IncrementalEngine> engine(
      new IncrementalEngine(db, options));
  engine->cold_ =
      std::make_unique<RepairEngine>(std::move(cold.value()));
  std::lock_guard<std::mutex> lock(engine->mu_);
  engine->ColdRebuildLocked();
  // The eager build counts as initialization, not a fallback.
  engine->stats_.cold_rebuilds = 0;
  return StatusOr<std::unique_ptr<IncrementalEngine>>(std::move(engine));
}

IncrementalEngine::Stats IncrementalEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.scrub_runs = cnf_.scrub_runs();
  out.clauses_reclaimed = cnf_.clauses_reclaimed();
  out.vars_reclaimed = cnf_.vars_reclaimed();
  return out;
}

uint64_t IncrementalEngine::warm_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_version_;
}

void IncrementalEngine::ColdRebuildLocked() {
  Span span("warm.cold_rebuild");
  static Counter* rebuilds = MetricsRegistry::Global().GetCounter(
      "drepair_warm_cold_rebuilds_total",
      "Warm engine full rebuilds (delta history exhausted or too large)");
  rebuilds->Inc();
  ++stats_.cold_rebuilds;
  view_ = db_->SnapshotView();
  warm_version_ = db_->version();
  ExecContext ctx;  // unbudgeted: a truncated warm build helps nobody
  ground_cache_.Build(&view_, program(), &ctx);
  cnf_.Build(program(), ground_cache_);
  minones_valid_ = false;
  fixpoint_cache_.Clear();
  ++ground_epoch_;
  stage_epoch_ = UINT64_MAX;
  step_epoch_ = UINT64_MAX;
  // The verdict cache survives: its entries are guarded by content
  // signatures, which are stable across rebuilds.
}

void IncrementalEngine::SyncLocked() {
  Span span("warm.sync");
  static Counter* syncs = MetricsRegistry::Global().GetCounter(
      "drepair_warm_syncs_total", "Warm engine delta syncs");
  syncs->Inc();
  ++stats_.syncs;
  const uint64_t current = db_->version();
  if (current == warm_version_) {
    ++stats_.noop_syncs;
    return;
  }
  Delta delta;
  if (!db_->DeltaSince(warm_version_, &delta)) {
    // Aged out of the bounded history (or a version from the future —
    // a different database object); only a rebuild is sound.
    ColdRebuildLocked();
    return;
  }
  if (options_.cold_fallback_fraction > 0) {
    const double live = static_cast<double>(db_->TotalLive());
    if (static_cast<double>(delta.size()) >
        options_.cold_fallback_fraction * live) {
      ColdRebuildLocked();
      return;
    }
  }

  view_.ApplyDelta(delta);
  GroundProgramCache::Patch patch;
  ExecContext ctx;  // unbudgeted maintenance (see ColdRebuildLocked)
  if (!ground_cache_.ApplyDelta(&view_, program(), delta, &patch, &ctx)) {
    ColdRebuildLocked();
    return;
  }
  ++stats_.incremental_syncs;
  warm_version_ = current;

  if (patch.empty()) {
    // The hypothetical ground program is untouched: every semantics'
    // repair outcome — and with it all cached solver/fixpoint/result
    // state — is certified unchanged (CQA verdicts still see the new
    // live set through fresh query grounding).
    ++stats_.empty_patches;
    return;
  }

  cnf_.ApplyPatch(program(), ground_cache_, patch);
  minones_valid_ = false;
  ++ground_epoch_;

  if (fixpoint_cache_.valid) {
    RepairStats fstats;
    ExecContext fctx;
    if (RunSemiNaiveFixpoint(&view_, program(), delta, &fixpoint_cache_,
                             &fstats, &fctx)) {
      // Restore the warm view's empty-delta invariant (the derived
      // tuples are live; UnmarkDeleted just drops their delta bit).
      for (const TupleId& t : fixpoint_cache_.derived) {
        view_.UnmarkDeleted(t);
      }
    }
    // On interruption the callee invalidated the cache; the next end
    // request reseeds it.
  }

  if (cnf_.retired_selectors() > options_.selector_gc_threshold) {
    // Retired-selector garbage has piled up; compact in place. Scrub
    // physically drops the unit-retired selector clauses *and* reclaims
    // their variables, but keeps the component cache, the saved phases
    // and the current epoch — a valid warm optimum stays valid, so
    // (unlike the old full re-encode) no warm state is invalidated.
    cnf_.Scrub();
  }
}

void IncrementalEngine::EnsureWarmSolveLocked(const MinOnesOptions& base,
                                              ExecContext* ctx) {
  if (minones_valid_ && cnf_.SolvedAtCurrentEpoch()) return;
  MinOnesOptions options = base;
  const double remaining = ctx->RemainingSeconds();
  if (!std::isinf(remaining)) {
    options.time_limit_seconds =
        std::min(options.time_limit_seconds, std::max(remaining, 1e-9));
  }
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  last_minones_ = cnf_.SolveMinOnes(options);
  stats_.minones_components_reused += last_minones_.reused_components;
  stats_.minones_components_solved += last_minones_.solved_components;
  // A truncated (non-optimal) pass is never reused: the next request
  // retries with its own budget.
  minones_valid_ = last_minones_.satisfiable && last_minones_.optimal &&
                   cnf_.SolvedAtCurrentEpoch();
}

void IncrementalEngine::EnsureWarmSliceLocked() {
  if (warm_slice_.epoch == cnf_.epoch() && warm_slice_.slicer != nullptr) {
    return;
  }
  WallTimer timer;
  warm_slice_.slicer.reset();
  warm_slice_.dense = cnf_.ExtractActive();
  const DeletionCnfBuilder& dense = warm_slice_.dense;
  // Packed tuple ids double as the renumbering-stable content identity
  // of each dense variable, so residual-component content keys — and
  // the verdict-cache signatures built from them — survive scrubs and
  // rebuilds.
  std::vector<uint64_t> content_ids;
  content_ids.reserve(dense.num_vars());
  for (uint32_t v = 0; v < dense.num_vars(); ++v) {
    content_ids.push_back(dense.TupleOfVar(v).Pack());
  }
  std::vector<bool> min_model(dense.num_vars(), false);
  for (const TupleId& t : last_minones_.deleted) {
    const int64_t v = dense.FindVar(t);
    if (v >= 0) min_model[v] = true;
  }
  warm_slice_.extract_seconds = timer.ElapsedSeconds();
  warm_slice_.slicer = std::make_unique<ConeSlicer>(
      dense.cnf(), min_model, /*optimal=*/true, std::move(content_ids));
  warm_slice_.epoch = cnf_.epoch();
}

RepairOutcome IncrementalEngine::ExecuteRepair(const RepairRequest& request) {
  Span span("warm.repair");
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    RepairOutcome out;
    out.status = semantics.status();
    out.termination = TerminationReason::kInvalidProgram;
    return out;
  }
  RepairOutcome out;
  switch (semantics.value()->kind()) {
    case SemanticsKind::kEnd:
      out = EndRepairLocked(request);
      break;
    case SemanticsKind::kStage:
      out = DeterministicRepairLocked(request, SemanticsKind::kStage);
      break;
    case SemanticsKind::kStep:
      out = DeterministicRepairLocked(request, SemanticsKind::kStep);
      break;
    case SemanticsKind::kIndependent:
      out = IndependentRepairLocked(request);
      break;
  }
  if (out.ok() && request.options.verify_after_run &&
      !out.verified.has_value()) {
    out.verified = IsStabilizingSet(&view_, program(), out.result.deleted);
  }
  return out;
}

RepairOutcome IncrementalEngine::EndRepairLocked(
    const RepairRequest& request) {
  WallTimer total;
  if (fixpoint_cache_.valid) {
    RepairOutcome out;
    out.result.semantics = SemanticsKind::kEnd;
    out.result.deleted = SortedCopy(fixpoint_cache_.derived);
    out.result.stats = ReusedStats(fixpoint_stats_, total);
    ++stats_.incremental_repairs;
    ++stats_.reused_repair_results;
    return out;
  }
  // Seed the cache with a full fixpoint on the warm view.
  ExecContext ctx(request.options);
  RepairStats stats;
  const bool complete = RunSemiNaiveFixpoint(
      &view_, program(), /*delete_between_rounds=*/false,
      request.options.record_provenance, &stats, &ctx, &fixpoint_cache_);
  std::vector<TupleId> derived = view_.DeltaTupleIds();
  for (const TupleId& t : derived) view_.UnmarkDeleted(t);
  if (!complete) {
    // The cold path owns the anytime contract (trivial stabilizing
    // completion under budget exhaustion).
    ++stats_.cold_repairs;
    return cold_->ExecuteOnSnapshot(request);
  }
  fixpoint_stats_ = stats;
  RepairOutcome out;
  out.result.semantics = SemanticsKind::kEnd;
  out.result.deleted = std::move(derived);
  std::sort(out.result.deleted.begin(), out.result.deleted.end());
  out.result.stats = stats;
  out.result.stats.total_seconds = total.ElapsedSeconds();
  ++stats_.incremental_repairs;
  return out;
}

RepairOutcome IncrementalEngine::DeterministicRepairLocked(
    const RepairRequest& request, SemanticsKind kind) {
  WallTimer total;
  RepairResult& cached =
      kind == SemanticsKind::kStage ? stage_result_ : step_result_;
  uint64_t& cached_epoch =
      kind == SemanticsKind::kStage ? stage_epoch_ : step_epoch_;
  // Seeded runs may shuffle (the step runner's kArbitrary order), so
  // only the deterministic default participates in result reuse.
  const bool cacheable = request.options.seed == 0;
  if (cacheable && cached_epoch == ground_epoch_) {
    RepairOutcome out;
    out.result = cached;
    out.result.stats = ReusedStats(cached.stats, total);
    ++stats_.incremental_repairs;
    ++stats_.reused_repair_results;
    return out;
  }
  InstanceView::State snapshot = view_.SaveState();
  ExecContext ctx(request.options);
  RepairOutcome out;
  out.result = SemanticsRegistry::Global().GetKind(kind).Run(
      &view_, program(), request.options, &ctx);
  view_.RestoreState(snapshot);
  out.termination = ctx.reason();
  if (cacheable && !ctx.stopped() && out.result.stats.optimal) {
    cached = out.result;
    cached_epoch = ground_epoch_;
  }
  ++stats_.cold_repairs;
  return out;
}

RepairOutcome IncrementalEngine::IndependentRepairLocked(
    const RepairRequest& request) {
  WallTimer total;
  ExecContext ctx(request.options);
  EnsureWarmSolveLocked(request.options.independent.min_ones, &ctx);
  if (!minones_valid_) {
    ++stats_.cold_repairs;
    return cold_->ExecuteOnSnapshot(request);
  }
  RepairOutcome out;
  out.result.semantics = SemanticsKind::kIndependent;
  out.result.deleted = SortedCopy(last_minones_.deleted);
  out.result.stats.optimal = true;
  out.result.stats.total_seconds = total.ElapsedSeconds();
  ++stats_.incremental_repairs;
  return out;
}

std::pair<uint64_t, uint64_t> IncrementalEngine::AnswerSignatureLocked(
    const AnswerProvenance& prov) const {
  // Two lanes; a reused verdict requires both to match, so a single
  // 64-bit collision cannot produce a stale verdict.
  ContentHasher h;
  const bool cone_grained = warm_slice_.epoch == cnf_.epoch() &&
                            warm_slice_.slicer != nullptr &&
                            warm_slice_.slicer->valid();
  for (const std::vector<TupleId>& m : prov.monomials) {
    h.Feed(m.size());
    for (const TupleId& t : m) {
      h.Feed(t.Pack() + 1);
      if (cone_grained) {
        // Cone-grained: the tuple's forced state under the minimum-
        // repair propagation fixpoint pins its contribution outright;
        // only *open* variables key in their residual component — a far
        // smaller unit than a raw CNF component, so an unrelated delta
        // inside the same giant component no longer invalidates this
        // answer's cached verdict.
        const int64_t dv = warm_slice_.dense.FindVar(t);
        if (dv < 0) {
          h.Feed(0);  // no deletion variable: never deletable
          continue;
        }
        const ConeSlicer& slicer = *warm_slice_.slicer;
        switch (slicer.state(static_cast<uint32_t>(dv))) {
          case ConeSlicer::VarState::kForcedKept:
            h.Feed(1);
            break;
          case ConeSlicer::VarState::kForcedDeleted:
            h.Feed(2);
            break;
          case ConeSlicer::VarState::kOpen: {
            h.Feed(3);
            const ComponentKey key = slicer.component_content(
                slicer.component_of(static_cast<uint32_t>(dv)));
            h.Feed(key.first);
            h.Feed(key.second);
            break;
          }
        }
        continue;
      }
      const int64_t var = cnf_.FindVar(t);
      if (var >= 0) {
        // The component content key pins the entire restricted
        // entailment problem this tuple's variable participates in; a
        // tuple with no variable (or an unconstrained one) behaves as
        // never-deletable and keys as (0,0) either way.
        const ComponentKey key =
            cnf_.ComponentKeyOf(static_cast<uint32_t>(var));
        h.Feed(key.first);
        h.Feed(key.second);
      } else {
        h.Feed(0);
        h.Feed(0);
      }
    }
  }
  return h.key();
}

CqaResult IncrementalEngine::ExecuteCqa(const CqaRequest& request) {
  Span span("warm.cqa");
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    // Let the cold path produce the canonical error result.
    ++stats_.cold_cqa;
    return AnswerQueryOnSnapshot(cold_.get(), request);
  }

  switch (semantics.value()->kind()) {
    case SemanticsKind::kEnd: {
      if (!fixpoint_cache_.valid) {
        ExecContext ctx(request.options);
        RepairStats stats;
        const bool complete = RunSemiNaiveFixpoint(
            &view_, program(), /*delete_between_rounds=*/false,
            /*prov=*/nullptr, &stats, &ctx, &fixpoint_cache_);
        for (const TupleId& t : view_.DeltaTupleIds()) {
          view_.UnmarkDeleted(t);
        }
        if (!complete) break;  // cold fallback
        fixpoint_stats_ = stats;
      }
      // The end repair is deterministic: the space is the singleton
      // {derived}, same shape — and the same construction-effort
      // counters — the cold builder produces.
      EnumeratedRepairSpace space({SortedCopy(fixpoint_cache_.derived)},
                                  /*exact=*/true, fixpoint_stats_);
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space, nullptr);
    }

    case SemanticsKind::kStage: {
      if (stage_epoch_ != ground_epoch_) {
        InstanceView::State snapshot = view_.SaveState();
        ExecContext ctx(request.options);
        RepairResult result =
            SemanticsRegistry::Global()
                .GetKind(SemanticsKind::kStage)
                .Run(&view_, program(), request.options, &ctx);
        view_.RestoreState(snapshot);
        if (ctx.stopped() || !result.stats.optimal) break;  // cold fallback
        stage_result_ = std::move(result);
        stage_epoch_ = ground_epoch_;
      }
      EnumeratedRepairSpace space({stage_result_.deleted}, /*exact=*/true,
                                  stage_result_.stats);
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space, nullptr);
    }

    case SemanticsKind::kStep:
      // The step repair *space* is the set of all minimal activation
      // outcomes, not the engine's one cached greedy result — nothing
      // warm describes it, so step CQA always runs cold.
      break;

    case SemanticsKind::kIndependent: {
      ExecContext ctx(request.options);
      EnsureWarmSolveLocked(request.options.independent.min_ones, &ctx);
      if (!minones_valid_) break;  // cold fallback
      // The cone decomposition is rebuilt lazily: only when this request
      // grounds enough answers to amortize it (PrepareJudges gates on
      // kWarmMinAnswers). mu_ is already held here, so the Locked
      // refresh is safe from the provider.
      SymbolicRepairSpace space(&cnf_, last_minones_, request.options,
                                [this]() {
                                  EnsureWarmSliceLocked();
                                  return &warm_slice_;
                                });
      CqaAnswerHooks hooks;
      hooks.lookup = [this, &request](const Tuple& values,
                                      const AnswerProvenance& prov,
                                      CqaVerdict* certain,
                                      CqaVerdict* possible) {
        auto it = verdict_cache_.find(VerdictCacheKey(request, values));
        if (it == verdict_cache_.end()) {
          ++stats_.verdict_cache_misses;
          return false;
        }
        const std::pair<uint64_t, uint64_t> sig = AnswerSignatureLocked(prov);
        if (sig.first != it->second.sig1 || sig.second != it->second.sig2 ||
            (request.certain && !it->second.certain.decided) ||
            (request.possible && !it->second.possible.decided)) {
          // The answer's provenance cone intersected the delta (or the
          // cached entry decided less than this request needs).
          ++stats_.verdict_cache_misses;
          return false;
        }
        *certain = it->second.certain;
        *possible = it->second.possible;
        ++stats_.verdict_cache_hits;
        return true;
      };
      hooks.store = [this, &request](const Tuple& values,
                                     const AnswerProvenance& prov,
                                     const CqaVerdict& certain,
                                     const CqaVerdict& possible) {
        if (!certain.decided && !possible.decided) return;
        if (verdict_cache_.size() >= options_.max_verdict_cache_entries) {
          verdict_cache_.clear();
        }
        const std::pair<uint64_t, uint64_t> sig = AnswerSignatureLocked(prov);
        VerdictEntry entry;
        entry.sig1 = sig.first;
        entry.sig2 = sig.second;
        entry.certain = certain;
        entry.possible = possible;
        verdict_cache_[VerdictCacheKey(request, values)] = entry;
      };
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space, &hooks);
    }
  }

  ++stats_.cold_cqa;
  return AnswerQueryOnSnapshot(cold_.get(), request);
}

}  // namespace deltarepair
