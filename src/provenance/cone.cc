#include "provenance/cone.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "obs/trace.h"

namespace deltarepair {

void SliceStats::Add(const SliceStats& o) {
  cone_seconds += o.cone_seconds;
  slice_seconds += o.slice_seconds;
  cone_vars += o.cone_vars;
  cone_clauses += o.cone_clauses;
  sliced_solve_calls += o.sliced_solve_calls;
  slice_fallbacks += o.slice_fallbacks;
  scrub_runs += o.scrub_runs;
  clauses_reclaimed += o.clauses_reclaimed;
}

ConeSlicer::ConeSlicer(const Cnf& cnf, const std::vector<bool>& min_model,
                       bool optimal, std::vector<uint64_t> content_ids) {
  Span span("cone.decompose");
  span.SetArg("vars", cnf.num_vars());
  ScopedTimer timer(&build_stats_.cone_seconds);
  num_vars_ = cnf.num_vars();
  // Pure-negative elimination pins variables to the value they take in
  // *minimum* models; without a proven optimum that reading is unsound.
  if (!optimal) return;
  if (!content_ids.empty() && content_ids.size() != num_vars_) return;
  ReducedCnf reduced = ReduceForMinimumModels(cnf.clauses(), num_vars_);
  if (reduced.refuted) return;  // inconsistent input
  // The supplied minimum model must agree with every pinned variable —
  // a mismatch means it was not a model or not minimal, and slicing on
  // top of it would be unsound.
  state_.assign(num_vars_, VarState::kOpen);
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (reduced.fixed[v] < 0) continue;
    const bool model_true = v < min_model.size() && min_model[v];
    if (model_true != (reduced.fixed[v] == 1)) return;
    if (model_true) {
      state_[v] = VarState::kForcedDeleted;
      forced_deleted_.push_back(v);
    } else {
      state_[v] = VarState::kForcedKept;
    }
  }
  residual_ = std::move(reduced.clauses);
  if (content_ids.empty()) {
    content_ids.resize(num_vars_);
    std::iota(content_ids.begin(), content_ids.end(), uint64_t{0});
  }

  CnfComponents split = SplitComponents(residual_, num_vars_);
  comp_of_ = std::move(split.comp_of);
  comps_.resize(split.components.size());
  for (size_t c = 0; c < comps_.size(); ++c) {
    Component& comp = comps_[c];
    comp.vars = std::move(split.components[c].vars);
    comp.clauses = std::move(split.components[c].clauses);
    // The global optimum restricted to a component is that component's
    // optimum: k_i and a witness come for free from the model.
    for (uint32_t v : comp.vars) {
      if (v < min_model.size() && min_model[v]) comp.true_vars.push_back(v);
    }
    comp.cost = static_cast<uint32_t>(comp.true_vars.size());
    // Content: each clause keyed over (content_id, sign) codes, summed
    // so clause order never matters.
    for (uint32_t ci : comp.clauses) {
      std::vector<uint64_t> codes;
      codes.reserve(residual_[ci].size());
      for (Lit l : residual_[ci]) {
        codes.push_back((content_ids[LitVar(l)] << 1) |
                        (LitSign(l) ? 1u : 0u));
      }
      AddKey(&comp.content, ClauseContentKey(std::move(codes)));
    }
  }
  valid_ = true;
}

ConeSlicer::ReducedAnswer ConeSlicer::Reduce(
    const std::vector<std::vector<TupleId>>& monomials,
    const std::function<int64_t(TupleId)>& var_of) const {
  ReducedAnswer out;
  for (const auto& mono : monomials) {
    bool has_var = false;
    bool dead = false;
    std::vector<uint32_t> open;
    for (TupleId tid : mono) {
      int64_t v = var_of(tid);
      if (v < 0) continue;  // tuple outside the deletion space
      has_var = true;
      VarState s = state_[static_cast<uint32_t>(v)];
      if (s == VarState::kForcedDeleted) {
        dead = true;
        break;
      }
      if (s == VarState::kOpen) open.push_back(static_cast<uint32_t>(v));
    }
    if (dead) continue;  // this derivation dies in every minimum repair
    if (!has_var) {
      // No repair of any size can delete a tuple of this derivation.
      return ReducedAnswer{true, false, false, {}, {}};
    }
    if (open.empty()) {
      out.alive = true;  // survives every minimum repair as-is
      continue;
    }
    std::sort(open.begin(), open.end());
    open.erase(std::unique(open.begin(), open.end()), open.end());
    out.monomials.push_back(std::move(open));
  }
  if (out.alive) {
    out.monomials.clear();
    return out;
  }
  if (out.monomials.empty()) {
    out.no_survivor = true;
    return out;
  }
  for (const auto& mono : out.monomials) {
    out.seeds.insert(out.seeds.end(), mono.begin(), mono.end());
  }
  std::sort(out.seeds.begin(), out.seeds.end());
  out.seeds.erase(std::unique(out.seeds.begin(), out.seeds.end()),
                  out.seeds.end());
  return out;
}

const ConeSlicer::Slice* ConeSlicer::GetSlice(
    const std::vector<uint32_t>& seed_open_vars) {
  std::vector<uint32_t> comps;
  comps.reserve(seed_open_vars.size());
  for (uint32_t v : seed_open_vars) comps.push_back(comp_of_[v]);
  std::sort(comps.begin(), comps.end());
  comps.erase(std::unique(comps.begin(), comps.end()), comps.end());

  std::lock_guard<std::mutex> lock(mu_);
  auto it = slices_.find(comps);
  if (it != slices_.end()) return it->second.get();

  size_t total_vars = 0;
  for (uint32_t c : comps) total_vars += comps_[c].vars.size();
  Span span("cone.slice");
  span.SetArg("vars", total_vars);
  span.SetArg("components", comps.size());
  ScopedTimer timer(&build_stats_.slice_seconds);
  auto slice = std::make_unique<Slice>();
  slice->comps = comps;
  slice->global_of_local.reserve(total_vars);
  for (uint32_t c : comps) {
    for (uint32_t v : comps_[c].vars) {
      slice->local_of_global.emplace(
          v, static_cast<uint32_t>(slice->global_of_local.size()));
      slice->global_of_local.push_back(v);
    }
  }
  slice->cnf.set_num_vars(static_cast<uint32_t>(total_vars));
  for (uint32_t c : comps) {
    const Component& comp = comps_[c];
    slice->cone_cost += comp.cost;
    for (uint32_t ci : comp.clauses) {
      std::vector<Lit> local;
      local.reserve(residual_[ci].size());
      for (Lit l : residual_[ci]) {
        uint32_t lv = slice->local_of_global.at(LitVar(l));
        local.push_back(LitSign(l) ? PosLit(lv) : NegLit(lv));
      }
      slice->cnf.AddClause(std::move(local));
    }
    // Cap this component's local deletions at its share of the global
    // optimum (vacuous when every variable is deleted — skip).
    if (comp.cost < comp.vars.size()) {
      Slice::Cap cap;
      cap.bound = comp.cost;
      cap.inputs.reserve(comp.vars.size());
      for (uint32_t v : comp.vars) {
        cap.inputs.push_back(PosLit(slice->local_of_global.at(v)));
      }
      slice->caps.push_back(std::move(cap));
    }
  }
  build_stats_.cone_vars += total_vars;
  build_stats_.cone_clauses += slice->cnf.num_clauses();
  const Slice* result = slice.get();
  slices_.emplace(std::move(comps), std::move(slice));
  return result;
}

std::vector<uint32_t> ConeSlicer::ComposeKiller(
    const Slice& slice, const std::vector<bool>& local_model) const {
  std::vector<uint32_t> out = forced_deleted_;
  std::vector<bool> in_cone(comps_.size(), false);
  for (uint32_t c : slice.comps) in_cone[c] = true;
  for (uint32_t c = 0; c < comps_.size(); ++c) {
    if (in_cone[c]) continue;
    out.insert(out.end(), comps_[c].true_vars.begin(),
               comps_[c].true_vars.end());
  }
  for (uint32_t lv = 0; lv < slice.global_of_local.size(); ++lv) {
    if (lv < local_model.size() && local_model[lv]) {
      out.push_back(slice.global_of_local[lv]);
    }
  }
  return out;
}

SliceStats ConeSlicer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_stats_;
}

}  // namespace deltarepair
