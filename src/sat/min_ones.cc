#include "sat/min_ones.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "sat/cnf_split.h"
#include "sat/totalizer.h"

namespace deltarepair {

namespace {

/// Seeds the solver with a greedy set cover of the all-positive clauses:
/// those are the clauses an all-false assignment leaves unsatisfied, so
/// phase-hinting a cheap cover to true steers the first model close to
/// the optimum (the old branch-and-bound's set-cover branching, recast
/// as polarity/priority hints). Clauses with a negative literal are
/// satisfied by the all-false default and need no hint.
template <typename ClauseRange>
void SeedGreedyCover(CdclSolver* solver, const ClauseRange& clauses,
                     uint32_t num_vars) {
  std::vector<uint32_t> pos_occ(num_vars, 0);
  std::vector<const std::vector<Lit>*> positive_clauses;
  for (const auto& clause_ref : clauses) {
    const std::vector<Lit>& clause = clause_ref;
    if (clause.empty()) continue;
    bool all_positive = true;
    for (Lit l : clause) {
      if (!LitSign(l)) {
        all_positive = false;
        break;
      }
    }
    if (!all_positive) continue;
    positive_clauses.push_back(&clause);
    for (Lit l : clause) ++pos_occ[LitVar(l)];
  }
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (pos_occ[v] > 0) solver->SeedActivity(v, pos_occ[v]);
  }
  // Greedy pass: cover each still-open clause with its busiest variable.
  std::vector<int8_t> in_cover(num_vars, 0);
  for (const auto* clause : positive_clauses) {
    uint32_t best_var = UINT32_MAX;
    bool covered = false;
    for (Lit l : *clause) {
      uint32_t v = LitVar(l);
      if (in_cover[v]) {
        covered = true;
        break;
      }
      if (best_var == UINT32_MAX || pos_occ[v] > pos_occ[best_var]) {
        best_var = v;
      }
    }
    if (covered || best_var == UINT32_MAX) continue;
    in_cover[best_var] = 1;
    solver->SetPhase(best_var, true);
  }
}

/// Lower bound from variable-disjoint all-positive clauses: each needs
/// its own true variable (negative literals elsewhere cannot pay for
/// them). Greedy single pass over `clauses`; `used` is caller-provided
/// scratch (entries touched are recorded in `touched` for cheap reset).
template <typename ClausePtrRange>
uint32_t DisjointPositiveClauseBound(const ClausePtrRange& clauses,
                                     std::vector<char>* used,
                                     std::vector<uint32_t>* touched) {
  uint32_t bound = 0;
  for (const auto* clause : clauses) {
    bool eligible = true;
    for (Lit l : *clause) {
      if (!LitSign(l) || (*used)[LitVar(l)]) {
        eligible = false;
        break;
      }
    }
    if (!eligible) continue;
    ++bound;
    for (Lit l : *clause) {
      (*used)[LitVar(l)] = 1;
      touched->push_back(LitVar(l));
    }
  }
  return bound;
}

struct ComponentOutcome {
  enum class State {
    kUnsat,             // proven unsatisfiable
    kOptimal,           // model proven minimum
    kAnytime,           // model valid, bound not proven
    kExhaustedNoModel,  // budget ran out before any model
  };
  State state = State::kExhaustedNoModel;
  std::vector<bool> model;  // over the component's variables
};

/// The bounded-search loop over one component: establish an incumbent
/// (warm-started from the global pass when available), then bisect the
/// objective between the proven lower bound (disjoint all-positive
/// clauses, top-level forced literals) and the incumbent, tightening via
/// totalizer assumptions — all on one incremental solver, so learned
/// clauses carry across bounds. Components too large for a totalizer
/// fall back to blocking-clause descent with a non-improvement cap.
ComponentOutcome SolveComponent(const Cnf& sub,
                                const std::vector<bool>* warm_model,
                                const MinOnesOptions& options,
                                const WallTimer* timer, double deadline,
                                uint64_t work_budget,
                                SolverStats* stats_out) {
  Span span("sat.min_ones.component");
  span.SetArg("vars", sub.num_vars());
  span.SetArg("clauses", sub.clauses().size());
  SolverOptions solver_options;
  solver_options.learning = options.enable_learning;
  solver_options.restarts = options.enable_restarts;
  solver_options.cancel = options.cancel;
  solver_options.max_work = std::max<uint64_t>(1, work_budget);
  CdclSolver solver(solver_options);
  solver.AddCnf(sub);
  SeedGreedyCover(&solver, sub.clauses(), sub.num_vars());

  const uint32_t n = sub.num_vars();
  ComponentOutcome out;
  std::vector<Lit> outputs;  // totalizer outputs, emitted lazily
  std::vector<Lit> assumptions;
  // Bound invariant: every model has >= lb true variables; `ub` is the
  // incumbent's count (UINT32_MAX before the first model).
  uint32_t forced_lb = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (solver.FixedValue(v) == 1) ++forced_lb;
  }
  std::vector<char> lb_used(n, 0);
  std::vector<uint32_t> lb_touched;
  std::vector<const std::vector<Lit>*> clause_ptrs;
  clause_ptrs.reserve(sub.clauses().size());
  for (const auto& c : sub.clauses()) clause_ptrs.push_back(&c);
  uint32_t lb = std::max(
      forced_lb, DisjointPositiveClauseBound(clause_ptrs, &lb_used,
                                             &lb_touched));
  uint32_t ub = UINT32_MAX;
  std::vector<bool> latest;  // last model seen (the one blocking blocks)
  if (warm_model != nullptr) {
    latest = *warm_model;
    ub = 0;
    for (uint32_t v = 0; v < n; ++v) ub += latest[v] ? 1 : 0;
    out.model = latest;
    out.state = ComponentOutcome::State::kAnytime;
    for (uint32_t v = 0; v < n; ++v) solver.SetPhase(v, latest[v]);
  }
  // Above the totalizer area (~vars x incumbent output width) exact
  // bound probing is counterproductive — propagation drags through the
  // counter and UNSAT probes stall; blocking-clause descent stays
  // anytime and can still prove optimality when the space collapses.
  constexpr int kMaxFruitlessBlocks = 8;
  bool blocking_mode = false;
  int fruitless_blocks = 0;
  // Bound being probed by the in-flight Solve call (totalizer mode).
  uint32_t probe = 0;

  for (;;) {
    // Decide the next query when an incumbent exists.
    if (ub != UINT32_MAX) {
      if (lb >= ub) {
        out.state = ComponentOutcome::State::kOptimal;
        break;
      }
      if (blocking_mode ||
          (outputs.empty() && static_cast<uint64_t>(n) * (ub + 1) >
                                  options.max_totalizer_area)) {
        blocking_mode = true;
        if (fruitless_blocks >= kMaxFruitlessBlocks) break;  // anytime
        // Require the next model to differ from the latest one on at
        // least one of its true variables.
        std::vector<Lit> block;
        for (uint32_t v = 0; v < n; ++v) {
          if (latest[v]) block.push_back(NegLit(v));
        }
        if (!solver.AddClause(std::move(block))) {
          out.state = ComponentOutcome::State::kOptimal;
          break;
        }
        assumptions.clear();
      } else {
        probe = lb + (ub - 1 - lb) / 2;  // bisect [lb, ub-1]
        if (probe == 0) {
          // "No true variables" needs no counter: assume all false.
          assumptions.clear();
          for (uint32_t v = 0; v < n; ++v) {
            assumptions.push_back(NegLit(v));
          }
        } else {
          if (outputs.empty()) {
            // First bounded probe: emit the counter, capped at the
            // incumbent (no bound beyond it is ever queried).
            std::vector<Lit> inputs;
            inputs.reserve(n);
            for (uint32_t v = 0; v < n; ++v) inputs.push_back(PosLit(v));
            outputs = BuildTotalizer(&solver, inputs, ub);
          }
          assumptions.assign(1, -outputs[probe]);  // require sum <= probe
        }
      }
    }
    double remaining = deadline - timer->ElapsedSeconds();
    if (remaining <= 0) break;  // anytime exit with whatever we have
    solver.mutable_options()->time_limit_seconds = remaining;
    SolveStatus status = solver.Solve(assumptions);
    if (status == SolveStatus::kUnknown) break;
    if (status == SolveStatus::kUnsat) {
      if (ub == UINT32_MAX) {
        out.state = ComponentOutcome::State::kUnsat;
        break;
      }
      if (blocking_mode) {
        // Every model extends some blocked incumbent, so none beats the
        // best one: optimal.
        out.state = ComponentOutcome::State::kOptimal;
        break;
      }
      lb = probe + 1;  // no model with <= probe trues
      if (lb < ub && probe < outputs.size()) {
        // Every model sets >= probe+1 inputs true, which forces the
        // totalizer output for that count; assert it permanently.
        solver.AddClause({outputs[probe]});
      }
      continue;
    }
    // SAT: harvest the model.
    uint32_t count = 0;
    for (uint32_t v = 0; v < n; ++v) count += solver.model()[v] ? 1 : 0;
    latest.assign(solver.model().begin(), solver.model().begin() + n);
    DR_CHECK(blocking_mode || count < ub);
    if (count < ub) {
      ub = count;
      out.model = latest;
      out.state = ComponentOutcome::State::kAnytime;
      fruitless_blocks = 0;
      if (!blocking_mode && ub > lb && outputs.size() > ub) {
        // "sum <= ub" is witnessed by the incumbent: sound as a clause.
        solver.AddClause({-outputs[ub]});
      }
    } else {
      ++fruitless_blocks;
    }
  }
  stats_out->Add(solver.stats());
  return out;
}

}  // namespace

MinOnesResult MinOnesSat(const Cnf& cnf, const MinOnesOptions& options) {
  Span span("sat.min_ones");
  span.SetArg("vars", cnf.num_vars());
  span.SetArg("clauses", cnf.clauses().size());
  MinOnesResult result;
  result.optimal = true;
  WallTimer timer;

  Cnf work = cnf;
  result.normalize = work.Normalize();
  const uint32_t n = work.num_vars();

  // Objective-aware preprocessing: unit propagation + pure-negative
  // cascade. On the deletion CNFs this typically decides most variables
  // outright and shatters the residual into small components.
  const ReducedCnf reduced = ReduceForMinimumModels(work.clauses(), n);
  if (reduced.refuted) {
    result.satisfiable = false;
    result.optimal = true;
    return result;
  }
  const std::vector<int8_t>& fixed = reduced.fixed;
  const std::vector<std::vector<Lit>>& residual = reduced.clauses;

  // Component decomposition of the residual over shared variables (or
  // one component when the ablation knob disables it).
  std::vector<CnfComponents::Component> comps =
      SplitComponents(residual, n).components;
  if (!options.decompose_components && comps.size() > 1) {
    CnfComponents::Component all;
    for (const CnfComponents::Component& comp : comps) {
      all.vars.insert(all.vars.end(), comp.vars.begin(), comp.vars.end());
    }
    std::sort(all.vars.begin(), all.vars.end());
    all.clauses.resize(residual.size());
    std::iota(all.clauses.begin(), all.clauses.end(), 0u);
    comps.assign(1, std::move(all));
  }
  result.num_components = static_cast<uint32_t>(comps.size());

  // Decided variables enter the model directly; free ones default false.
  std::vector<bool> model(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    if (fixed[v] == 1) model[v] = true;
  }
  uint64_t budget_left = options.max_assignments;

  // Global warm pass: one greedy-seeded solve over the whole residual
  // gives every component its first incumbent at once. Components whose
  // incumbent already matches their disjoint lower bound finish here
  // without a solver of their own (the common case).
  std::vector<bool> global_model;
  bool have_global = false;
  if (!comps.empty()) {
    SolverOptions global_options;
    global_options.learning = options.enable_learning;
    global_options.restarts = options.enable_restarts;
    global_options.cancel = options.cancel;
    global_options.max_work = std::max<uint64_t>(1, budget_left);
    global_options.time_limit_seconds = std::max(
        0.05, options.time_limit_seconds - timer.ElapsedSeconds());
    CdclSolver global(global_options);
    global.EnsureVars(n);
    bool consistent = true;
    for (const auto& clause : residual) {
      if (!global.AddClause(clause)) consistent = false;
    }
    if (consistent) SeedGreedyCover(&global, residual, n);
    SolveStatus status = consistent ? global.Solve() : SolveStatus::kUnsat;
    result.solver.Add(global.stats());
    uint64_t work_done = global.stats().work();
    result.engine_assignments += work_done;
    budget_left = budget_left > work_done ? budget_left - work_done : 0;
    if (status == SolveStatus::kUnsat) {
      result.satisfiable = false;
      result.optimal = true;
      return result;
    }
    if (status == SolveStatus::kSat) {
      have_global = true;
      global_model = global.model();
    }
  }

  std::vector<char> lb_used(n, 0);
  std::vector<uint32_t> lb_touched;
  std::vector<const std::vector<Lit>*> comp;
  for (const CnfComponents::Component& component : comps) {
    comp.clear();
    for (uint32_t c : component.clauses) comp.push_back(&residual[c]);
    if (have_global) {
      uint32_t count = 0;
      for (uint32_t v : component.vars) count += global_model[v] ? 1 : 0;
      lb_touched.clear();
      uint32_t lb = DisjointPositiveClauseBound(comp, &lb_used, &lb_touched);
      for (uint32_t v : lb_touched) lb_used[v] = 0;
      if (count <= lb) {
        // The warm incumbent is provably minimum: no solver needed.
        for (uint32_t v : component.vars) model[v] = global_model[v];
        continue;
      }
    }
    // Remap variables into a dense sub-instance.
    std::vector<uint32_t> local_of(n, UINT32_MAX);
    std::vector<uint32_t> global_of;
    Cnf sub;
    for (const auto* clause : comp) {
      std::vector<Lit> lits;
      lits.reserve(clause->size());
      for (Lit l : *clause) {
        uint32_t g = LitVar(l);
        if (local_of[g] == UINT32_MAX) {
          local_of[g] = static_cast<uint32_t>(global_of.size());
          global_of.push_back(g);
        }
        lits.push_back(LitSign(l) ? PosLit(local_of[g]) : NegLit(local_of[g]));
      }
      sub.AddClause(std::move(lits));
    }
    std::vector<bool> warm;
    if (have_global) {
      warm.resize(global_of.size());
      for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
        warm[lv] = global_model[global_of[lv]];
      }
      if (options.time_limit_seconds <= timer.ElapsedSeconds() ||
          (options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed))) {
        // Out of time: the warm incumbent is already a model of this
        // component, so take it as-is instead of opening a solver.
        result.optimal = false;
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = warm[lv];
        }
        continue;
      }
    }
    // Deadline: global limit, but guarantee every component a minimum
    // slice so a hard early component cannot starve the rest (without a
    // warm model its first solve is the only incumbent source).
    double slice_deadline =
        timer.ElapsedSeconds() +
        std::max(0.05, options.time_limit_seconds - timer.ElapsedSeconds());
    SolverStats comp_stats;
    ComponentOutcome outcome =
        SolveComponent(sub, have_global ? &warm : nullptr, options, &timer,
                       slice_deadline, budget_left, &comp_stats);
    result.solver.Add(comp_stats);
    uint64_t work_done = comp_stats.work();
    result.engine_assignments += work_done;
    budget_left = budget_left > work_done ? budget_left - work_done : 0;

    switch (outcome.state) {
      case ComponentOutcome::State::kUnsat:
        result.satisfiable = false;
        result.optimal = true;  // a refuted component is a proof
        return result;
      case ComponentOutcome::State::kOptimal:
      case ComponentOutcome::State::kAnytime: {
        if (outcome.state == ComponentOutcome::State::kAnytime) {
          result.optimal = false;
        }
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = outcome.model[lv];
        }
        break;
      }
      case ComponentOutcome::State::kExhaustedNoModel: {
        result.optimal = false;
        // Budget ran out before the first incumbent. The repair encodings
        // always admit the all-true model (every clause keeps its
        // self-atom positive literal) — use it when it applies, else fall
        // back to a plain solve for *a* model (anytime contract: any
        // satisfying assignment is still a stabilizing set). The
        // fallback ignores the work budget and deadline — delivering a
        // model late beats delivering none — but still honors
        // cancellation; a cancelled fallback reports satisfiable=false
        // with optimal=false ("unknown"), never a proof.
        std::vector<bool> all_true(sub.num_vars(), true);
        if (sub.IsSatisfiedBy(all_true)) {
          for (uint32_t g : global_of) model[g] = true;
          break;
        }
        SolverOptions fallback_options;
        fallback_options.cancel = options.cancel;
        CdclSolver fallback(fallback_options);
        fallback.AddCnf(sub);
        SolveStatus status = fallback.Solve();
        result.solver.Add(fallback.stats());
        result.engine_assignments += fallback.stats().work();
        if (status != SolveStatus::kSat) {
          result.satisfiable = false;
          result.optimal = status == SolveStatus::kUnsat;  // else unknown
          return result;
        }
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = fallback.model()[lv];
        }
        break;
      }
    }
  }

  result.satisfiable = true;
  result.model = std::move(model);
  result.num_true = 0;
  for (bool b : result.model) result.num_true += b ? 1 : 0;
  DR_CHECK(cnf.IsSatisfiedBy(result.model));
  return result;
}

}  // namespace deltarepair
