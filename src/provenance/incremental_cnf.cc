#include "provenance/incremental_cnf.h"

#include <algorithm>

#include "common/status.h"
#include "sat/cnf_split.h"
#include "sat/totalizer.h"

namespace deltarepair {

IncrementalDeletionCnf::IncrementalDeletionCnf()
    : solver_(new CdclSolver()) {}

uint32_t IncrementalDeletionCnf::VarOf(TupleId t) {
  auto [it, added] = var_of_.emplace(t.Pack(), 0);
  if (added) {
    uint32_t v = solver_->NewVar();
    it->second = v;
    if (tuple_of_.size() <= v) tuple_of_.resize(v + 1);
    tuple_of_[v] = t;
    deletion_vars_.push_back(v);
  }
  return it->second;
}

int64_t IncrementalDeletionCnf::FindVar(TupleId t) const {
  auto it = var_of_.find(t.Pack());
  return it == var_of_.end() ? -1 : static_cast<int64_t>(it->second);
}

void IncrementalDeletionCnf::Encode(const Program& program,
                                    const GroundProgramCache& cache,
                                    uint32_t id) {
  if (clauses_.size() <= id) clauses_.resize(id + 1);
  RuleClause& rc = clauses_[id];
  if (rc.active) return;
  const GroundProgramCache::GroundRule& gr = cache.rule(id);
  if (rc.lits.empty() && !rc.tautology) {
    // First encoding of this ground rule: base body tuples contribute
    // positive deletion literals, delta body tuples negative ones
    // (mirrors DeletionCnfBuilder::AddAssignment).
    const Rule& rule = program.rules()[gr.rule_index];
    std::vector<Lit> lits;
    lits.reserve(gr.body.size());
    for (size_t i = 0; i < gr.body.size(); ++i) {
      uint32_t v = VarOf(gr.body[i]);
      Lit l = rule.body[i].is_delta ? NegLit(v) : PosLit(v);
      bool dup = false;
      for (Lit have : lits) {
        if (have == l) dup = true;
        if (have == -l) rc.tautology = true;
      }
      if (!dup) lits.push_back(l);
    }
    if (!rc.tautology) {
      rc.lits = std::move(lits);
      // Hash tuple content, not the solver var id: component keys then
      // survive the dense renumbering of Scrub.
      std::vector<uint64_t> codes;
      codes.reserve(rc.lits.size());
      for (Lit l : rc.lits) {
        codes.push_back((tuple_of_[LitVar(l)].Pack() << 1) |
                        (LitSign(l) ? 1u : 0u));
      }
      rc.key = ClauseContentKey(std::move(codes));
    }
  }
  rc.active = true;
  ++active_rules_;
  if (rc.tautology) return;  // always satisfied: no clause, no selector
  rc.sel = solver_->NewVar();
  std::vector<Lit> guarded = rc.lits;
  guarded.push_back(NegLit(rc.sel));
  solver_->AddClause(std::move(guarded));
}

void IncrementalDeletionCnf::Retire(uint32_t id) {
  if (id >= clauses_.size()) return;
  RuleClause& rc = clauses_[id];
  if (!rc.active) return;
  rc.active = false;
  --active_rules_;
  if (rc.sel != UINT32_MAX) {
    solver_->AddClause({NegLit(rc.sel)});
    rc.sel = UINT32_MAX;
    ++retired_selectors_;
  }
}

void IncrementalDeletionCnf::Build(const Program& program,
                                   const GroundProgramCache& cache) {
  solver_.reset(new CdclSolver());
  var_of_.clear();
  tuple_of_.clear();
  deletion_vars_.clear();
  clauses_.clear();
  active_rules_ = 0;
  retired_selectors_ = 0;
  component_cache_.clear();
  totalizer_cache_.clear();
  comp_key_of_var_.clear();
  live_components_.clear();
  solved_epoch_ = UINT64_MAX;
  assumptions_epoch_ = UINT64_MAX;
  phase_by_slot_.clear();
  // scrub_runs_/clauses_reclaimed_/vars_reclaimed_ are lifetime gauges
  // and deliberately survive rebuilds.
  for (uint32_t id = 0; id < cache.num_rules(); ++id) {
    if (cache.active(id)) Encode(program, cache, id);
  }
  ++epoch_;
}

void IncrementalDeletionCnf::Scrub() {
  const uint64_t old_vars = solver_->num_vars();
  const uint64_t old_clauses = solver_->num_problem_clauses();

  // Deletion var -> dense slot. deletion_vars_ only ever appends, so
  // slot order equals creation order and every dense extraction taken
  // before the scrub maps onto the same tuples afterwards.
  const uint32_t num_deletion = static_cast<uint32_t>(deletion_vars_.size());
  std::unordered_map<uint32_t, uint32_t> remap;
  remap.reserve(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) remap[deletion_vars_[i]] = i;

  solver_.reset(new CdclSolver());
  solver_->EnsureVars(num_deletion);

  // Remap every encoded rule clause — retired ones included, so a later
  // revival re-adds them with the new numbering — and re-emit only the
  // active ones under fresh selectors. The unit-retired selector
  // clauses (and the retired selectors themselves) simply never reach
  // the new solver; that is the reclamation.
  retired_selectors_ = 0;
  for (RuleClause& rc : clauses_) {
    if (rc.lits.empty()) {
      rc.sel = UINT32_MAX;
      continue;
    }
    for (Lit& l : rc.lits) {
      const uint32_t nv = remap.at(LitVar(l));
      l = LitSign(l) ? PosLit(nv) : NegLit(nv);
    }
    if (rc.active && !rc.tautology) {
      rc.sel = solver_->NewVar();
      std::vector<Lit> guarded = rc.lits;
      guarded.push_back(NegLit(rc.sel));
      solver_->AddClause(std::move(guarded));
    } else {
      rc.sel = UINT32_MAX;
    }
  }

  // Variable tables follow the renumbering.
  std::vector<TupleId> new_tuple_of(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) {
    new_tuple_of[i] = tuple_of_[deletion_vars_[i]];
  }
  tuple_of_ = std::move(new_tuple_of);
  var_of_.clear();
  var_of_.reserve(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) {
    var_of_[tuple_of_[i].Pack()] = i;
    deletion_vars_[i] = i;
  }

  // Warm Min-Ones artifacts: keys are content-stable, models are var
  // lists — remap them instead of throwing the work away.
  for (auto& [key, cc] : component_cache_) {
    (void)key;
    for (uint32_t& v : cc.true_vars) v = remap.at(v);
  }
  for (LiveComponent& lc : live_components_) {
    for (uint32_t& v : lc.vars) v = remap.at(v);
  }
  std::unordered_map<uint32_t, ComponentKey> new_comp_key;
  new_comp_key.reserve(comp_key_of_var_.size());
  for (const auto& [v, key] : comp_key_of_var_) new_comp_key[remap.at(v)] = key;
  comp_key_of_var_ = std::move(new_comp_key);

  // Totalizer outputs lived on the old solver; entail_assumptions()
  // re-lays them lazily from live_components_.
  totalizer_cache_.clear();
  assumptions_epoch_ = UINT64_MAX;

  // Re-seed the saved optimum's phases (slot i is var i now).
  for (uint32_t i = 0;
       i < phase_by_slot_.size() && i < num_deletion; ++i) {
    solver_->SetPhase(i, phase_by_slot_[i]);
  }

  // The epoch is untouched: the active clause *set* is unchanged, so a
  // solved-at-current-epoch state (and every layer keyed on it) stays
  // valid.
  ++scrub_runs_;
  const uint64_t new_vars = solver_->num_vars();
  const uint64_t new_clauses = solver_->num_problem_clauses();
  if (old_vars > new_vars) vars_reclaimed_ += old_vars - new_vars;
  if (old_clauses > new_clauses) clauses_reclaimed_ += old_clauses - new_clauses;
}

void IncrementalDeletionCnf::ApplyPatch(
    const Program& program, const GroundProgramCache& cache,
    const GroundProgramCache::Patch& patch) {
  if (patch.empty()) return;
  for (uint32_t id : patch.retracted) Retire(id);
  for (uint32_t id : patch.added) Encode(program, cache, id);
  ++epoch_;
}

WarmMinOnesResult IncrementalDeletionCnf::SolveMinOnes(
    const MinOnesOptions& options) {
  WarmMinOnesResult out;

  // Split the active clause set into connected components, ordered by
  // smallest var so solving order — and thus budget distribution — is
  // deterministic.
  std::vector<uint32_t> active_ids;
  std::vector<const std::vector<Lit>*> active;
  active_ids.reserve(active_rules_);
  active.reserve(active_rules_);
  for (uint32_t id = 0; id < clauses_.size(); ++id) {
    const RuleClause& rc = clauses_[id];
    if (!rc.active || rc.tautology) continue;
    active_ids.push_back(id);
    active.push_back(&rc.lits);
  }
  // Unconstrained vars stay outside every component.
  const std::vector<CnfComponents::Component> comps =
      SplitComponents(active, static_cast<uint32_t>(tuple_of_.size()))
          .components;

  comp_key_of_var_.clear();
  live_components_.clear();
  out.satisfiable = true;
  out.optimal = true;

  std::vector<bool> global_true(tuple_of_.size(), false);
  for (const CnfComponents::Component& comp : comps) {
    // Content key over stable var ids: per-clause keys (fixed at encode
    // time) summed across clauses, so no canonical clause order — and no
    // per-solve re-hash of the CNF — is needed. A colliding key only
    // costs a cache miss (the reuse path re-verifies the model below).
    std::vector<const std::vector<Lit>*> cls;
    cls.reserve(comp.clauses.size());
    ComponentKey key{0, 0};
    for (uint32_t ci : comp.clauses) {
      cls.push_back(active[ci]);
      AddKey(&key, clauses_[active_ids[ci]].key);
    }

    LiveComponent live;
    live.key = key;
    live.vars = comp.vars;

    auto cached = component_cache_.find(key);
    bool reused = false;
    if (cached != component_cache_.end()) {
      // Re-verify the cached optimum against the actual clauses — a key
      // collision then costs a cache miss, never a wrong answer.
      std::vector<bool> model(tuple_of_.size(), false);
      bool in_comp = true;
      for (uint32_t v : cached->second.true_vars) {
        if (!std::binary_search(comp.vars.begin(), comp.vars.end(), v)) {
          in_comp = false;
          break;
        }
        model[v] = true;
      }
      bool sat = in_comp;
      if (sat) {
        for (const auto* c : cls) {
          bool ok = false;
          for (Lit l : *c) {
            if (LitSign(l) ? model[LitVar(l)] : !model[LitVar(l)]) {
              ok = true;
              break;
            }
          }
          if (!ok) {
            sat = false;
            break;
          }
        }
      }
      if (sat) {
        reused = true;
        ++out.reused_components;
        live.num_true = cached->second.num_true;
        for (uint32_t v : cached->second.true_vars) global_true[v] = true;
      }
    }

    if (!reused) {
      // Dense sub-CNF over this component's vars, solved cold.
      std::unordered_map<uint32_t, uint32_t> dense;
      dense.reserve(comp.vars.size());
      for (uint32_t i = 0; i < comp.vars.size(); ++i)
        dense[comp.vars[i]] = i;
      Cnf cnf(static_cast<uint32_t>(comp.vars.size()));
      for (const auto* c : cls) {
        std::vector<Lit> mapped;
        mapped.reserve(c->size());
        for (Lit l : *c) {
          uint32_t dv = dense[LitVar(l)];
          mapped.push_back(LitSign(l) ? PosLit(dv) : NegLit(dv));
        }
        cnf.AddClause(std::move(mapped));
      }
      MinOnesResult res = MinOnesSat(cnf, options);
      ++out.solved_components;
      if (!res.satisfiable) {
        out.satisfiable = false;
        out.optimal = false;
        break;
      }
      out.optimal &= res.optimal;
      CachedComponent cc;
      cc.num_true = res.num_true;
      for (uint32_t i = 0; i < comp.vars.size(); ++i) {
        if (i < res.model.size() && res.model[i]) {
          cc.true_vars.push_back(comp.vars[i]);
          global_true[comp.vars[i]] = true;
        }
      }
      live.num_true = cc.num_true;
      if (res.optimal) component_cache_[key] = std::move(cc);
    }

    out.num_true += live.num_true;
    for (uint32_t v : comp.vars) comp_key_of_var_[v] = key;
    live_components_.push_back(std::move(live));
  }

  if (out.satisfiable) {
    phase_by_slot_.assign(deletion_vars_.size(), false);
    for (size_t i = 0; i < deletion_vars_.size(); ++i) {
      const uint32_t v = deletion_vars_[i];
      if (global_true[v]) out.deleted.push_back(tuple_of_[v]);
      // Phase saving: seed the long-lived solver's polarity with the
      // latest optimum so entailment solves start near a model. Saved
      // by slot so Scrub can re-seed its fresh solver.
      phase_by_slot_[i] = global_true[v];
      solver_->SetPhase(v, global_true[v]);
    }
    solved_epoch_ = epoch_;
    assumptions_epoch_ = UINT64_MAX;  // rebuilt lazily
  }
  out.num_components = comps.size();
  return out;
}

const std::vector<Lit>& IncrementalDeletionCnf::entail_assumptions() {
  DR_CHECK_MSG(solved_epoch_ == epoch_,
               "entail_assumptions needs SolveMinOnes at the current epoch");
  if (assumptions_epoch_ == epoch_) return entail_assumptions_;
  entail_assumptions_.clear();
  for (const RuleClause& rc : clauses_) {
    if (rc.active && rc.sel != UINT32_MAX)
      entail_assumptions_.push_back(PosLit(rc.sel));
  }
  for (const LiveComponent& comp : live_components_) {
    if (comp.num_true == 0) {
      // Zero-cost component: no tuple of it is deleted in any minimum
      // repair. Pinned by assumption (not a hard unit) so the component
      // can grow a positive minimum later.
      for (uint32_t v : comp.vars)
        entail_assumptions_.push_back(NegLit(v));
    } else if (comp.num_true < comp.vars.size()) {
      auto it = totalizer_cache_.find(comp.key);
      if (it == totalizer_cache_.end()) {
        std::vector<Lit> inputs;
        inputs.reserve(comp.vars.size());
        for (uint32_t v : comp.vars) inputs.push_back(PosLit(v));
        std::vector<Lit> outputs = BuildTotalizer(
            solver_.get(), inputs,
            static_cast<uint32_t>(comp.num_true) + 1);
        it = totalizer_cache_.emplace(comp.key, std::move(outputs)).first;
      }
      if (it->second.size() > comp.num_true)
        entail_assumptions_.push_back(-it->second[comp.num_true]);
    }
  }
  // Deletion vars outside every component can never be deleted by a
  // minimum repair.
  for (uint32_t v : deletion_vars_) {
    if (!comp_key_of_var_.count(v))
      entail_assumptions_.push_back(NegLit(v));
  }
  assumptions_epoch_ = epoch_;
  return entail_assumptions_;
}

DeletionCnfBuilder IncrementalDeletionCnf::ExtractActive() const {
  DeletionCnfBuilder dense;
  for (uint32_t v : deletion_vars_) dense.VarOf(tuple_of_[v]);
  for (const RuleClause& rc : clauses_) {
    if (!rc.active || rc.tautology) continue;
    std::vector<Lit> mapped;
    mapped.reserve(rc.lits.size());
    for (Lit l : rc.lits) {
      const uint32_t dv = static_cast<uint32_t>(
          dense.FindVar(tuple_of_[LitVar(l)]));
      mapped.push_back(LitSign(l) ? PosLit(dv) : NegLit(dv));
    }
    dense.mutable_cnf().AddClause(std::move(mapped));
  }
  return dense;
}

ComponentKey IncrementalDeletionCnf::ComponentKeyOf(uint32_t var) const {
  auto it = comp_key_of_var_.find(var);
  return it == comp_key_of_var_.end() ? ComponentKey{0, 0} : it->second;
}

}  // namespace deltarepair
