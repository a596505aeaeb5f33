#include "cqa/entailment.h"

#include <algorithm>
#include <cmath>

#include "sat/totalizer.h"

namespace deltarepair {

CqaVerdict DecideOnSolver(CdclSolver* solver, bool certain,
                          const std::vector<std::vector<uint32_t>>& monomials,
                          std::vector<Lit> assumptions, ExecContext* ctx) {
  const CqaVerdict undecided{!certain, false};
  if (ctx->ShouldStop()) return undecided;
  const Lit selector = PosLit(solver->NewVar());
  if (certain) {
    // ¬φ: every surviving monomial loses a variable.
    for (const std::vector<uint32_t>& mono : monomials) {
      std::vector<Lit> clause{-selector};
      for (uint32_t v : mono) clause.push_back(PosLit(v));
      solver->AddClause(std::move(clause));
    }
  } else {
    // φ: some monomial keeps all its variables (Tseitin monomial vars).
    std::vector<Lit> some_monomial{-selector};
    for (const std::vector<uint32_t>& mono : monomials) {
      const Lit mv = PosLit(solver->NewVar());
      some_monomial.push_back(mv);
      for (uint32_t v : mono) solver->AddClause({-mv, NegLit(v)});
    }
    solver->AddClause(std::move(some_monomial));
  }
  SolverOptions* opts = solver->mutable_options();
  const double remaining = ctx->RemainingSeconds();
  opts->time_limit_seconds =
      std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
  opts->cancel =
      ctx->cancel_token() != nullptr ? ctx->cancel_token()->flag() : nullptr;
  assumptions.push_back(selector);
  const SolveStatus status = solver->Solve(assumptions);
  solver->AddClause({-selector});  // retire
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();  // latch the budget/cancel reason
    return undecided;
  }
  // Certain: UNSAT under ¬φ (the answer survives every minimum repair).
  // Possible: SAT under φ (some minimum repair keeps it).
  return {(status == SolveStatus::kSat) != certain, true};
}

SlicedJudge::SlicedJudge(ConeSlicer* slicer, const MinOnesOptions& min_ones)
    : slicer_(slicer), min_ones_(min_ones) {}

CdclSolver* SlicedJudge::SolverFor(const ConeSlicer::Slice& slice) {
  std::unique_ptr<CdclSolver>& solver = solvers_[&slice];
  if (solver != nullptr) return solver.get();
  solver = std::make_unique<CdclSolver>();
  SolverOptions* opts = solver->mutable_options();
  opts->learning = min_ones_.enable_learning;
  opts->restarts = min_ones_.enable_restarts;
  solver->AddCnf(slice.cnf);
  for (const ConeSlicer::Slice::Cap& cap : slice.caps) {
    AddAtMost(solver.get(), cap.inputs, cap.bound);
  }
  return solver.get();
}

std::vector<std::vector<uint32_t>> SlicedJudge::LocalMonomials(
    const ConeSlicer::ReducedAnswer& red, const ConeSlicer::Slice& slice) {
  std::vector<std::vector<uint32_t>> local;
  local.reserve(red.monomials.size());
  for (const std::vector<uint32_t>& mono : red.monomials) {
    std::vector<uint32_t> vars;
    vars.reserve(mono.size());
    for (uint32_t v : mono) vars.push_back(slice.local_of_global.at(v));
    local.push_back(std::move(vars));
  }
  return local;
}

CqaVerdict SlicedJudge::Decide(const ConeSlicer::ReducedAnswer& red,
                               bool certain, ExecContext* ctx) {
  // Constant-propagated outcomes: no solver, no slice. Pinned tuples are
  // already accounted: forced-kept survive every minimum repair, dead
  // monomials are gone.
  if (red.untouched || red.alive) return {true, true};
  if (red.no_survivor) return {false, true};
  if (ctx->ShouldStop()) return {!certain, false};
  const ConeSlicer::Slice* slice = slicer_->GetSlice(red.seeds);
  ++slice_stats_.sliced_solve_calls;
  return DecideOnSolver(SolverFor(*slice), certain,
                        LocalMonomials(red, *slice), {}, ctx);
}

SlicedJudge::CexOutcome SlicedJudge::Counterexample(
    const ConeSlicer::ReducedAnswer& red, ExecContext* ctx) {
  CexOutcome out;
  auto fallback = [this, &out]() {
    ++slice_stats_.slice_fallbacks;
    out.kind = CexOutcome::Kind::kFallback;
    return out;
  };
  if (red.untouched) return out;  // unkillable by any repair
  // Survives every minimum repair; the smallest killer (if any) deletes
  // pinned tuples the slice fixed — full-CNF territory.
  if (red.alive) return fallback();
  if (red.no_survivor) {
    // Every minimum repair kills the answer; the global optimum itself
    // (empty-cone composition) is a smallest killer.
    out.kind = CexOutcome::Kind::kFound;
    out.deleted_vars = slicer_->ComposeKiller(
        ConeSlicer::Slice{}, std::vector<bool>{});
    out.minimal = true;
    return out;
  }
  const ConeSlicer::Slice* slice = slicer_->GetSlice(red.seeds);

  // Min-Ones over the cone's residual clauses ∧ ¬φ — deliberately
  // without the cardinality caps: the smallest killer may exceed the
  // cone's share of the optimum.
  Cnf cnf = slice->cnf;
  for (std::vector<uint32_t>& mono : LocalMonomials(red, *slice)) {
    std::vector<Lit> clause;
    clause.reserve(mono.size());
    for (uint32_t lv : mono) clause.push_back(PosLit(lv));
    cnf.AddClause(std::move(clause));
  }
  MinOnesOptions options = min_ones_;
  options.time_limit_seconds =
      std::min(options.time_limit_seconds, ctx->RemainingSeconds());
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  ++slice_stats_.sliced_solve_calls;
  MinOnesResult solved = MinOnesSat(cnf, options);
  repair_stats_.AddSolver(solved.solver);
  if (!solved.satisfiable) {
    if (!solved.optimal) {
      // Budget tripped before any model; nothing to report.
      ctx->ShouldStop();
      return out;
    }
    // Proven: no killer stays within the cone's residual space. One may
    // still exist deleting pinned tuples — the full CNF must decide.
    return fallback();
  }
  // The composed killer would exceed the global optimum k; a smaller
  // killer deleting pinned tuples may exist, so a "minimal" claim here
  // would be unsound.
  if (solved.optimal && solved.num_true > slice->cone_cost) return fallback();
  out.kind = CexOutcome::Kind::kFound;
  out.deleted_vars = slicer_->ComposeKiller(*slice, solved.model);
  // Local optimum matching the cone's share of k composes into a
  // global minimum repair — provably the smallest killer overall.
  out.minimal = solved.optimal && solved.num_true == slice->cone_cost;
  return out;
}

RepairStats SlicedJudge::repair_stats() const {
  RepairStats total = repair_stats_;
  for (const auto& entry : solvers_) total.AddSolver(entry.second->stats());
  return total;
}

}  // namespace deltarepair
