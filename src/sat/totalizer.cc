#include "sat/totalizer.h"

#include <algorithm>

#include "sat/solver.h"

namespace deltarepair {

namespace {

/// Emits the totalizer subtree over inputs[lo, hi) and returns its
/// output literals, capped at `cap`.
std::vector<Lit> BuildSubtree(CdclSolver* solver,
                              const std::vector<Lit>& inputs, size_t lo,
                              size_t hi, uint32_t cap) {
  if (hi - lo == 1) return {inputs[lo]};
  size_t mid = lo + (hi - lo) / 2;
  std::vector<Lit> left = BuildSubtree(solver, inputs, lo, mid, cap);
  std::vector<Lit> right = BuildSubtree(solver, inputs, mid, hi, cap);
  size_t m = std::min<size_t>(cap, hi - lo);
  std::vector<Lit> outs;
  outs.reserve(m);
  for (size_t i = 0; i < m; ++i) outs.push_back(PosLit(solver->NewVar()));
  for (size_t i = 0; i <= left.size(); ++i) {
    for (size_t j = 0; j <= right.size(); ++j) {
      size_t k = i + j;
      if (k == 0 || k > m) continue;
      std::vector<Lit> clause;
      clause.reserve(3);
      if (i > 0) clause.push_back(-left[i - 1]);
      if (j > 0) clause.push_back(-right[j - 1]);
      clause.push_back(outs[k - 1]);
      solver->AddClause(std::move(clause));
    }
  }
  return outs;
}

}  // namespace

std::vector<Lit> BuildTotalizer(CdclSolver* solver,
                                const std::vector<Lit>& inputs,
                                uint32_t cap) {
  if (inputs.empty() || cap == 0) return {};
  return BuildSubtree(solver, inputs, 0, inputs.size(), cap);
}

void AddAtMost(CdclSolver* solver, const std::vector<Lit>& inputs,
               uint32_t k) {
  if (k == 0) {
    for (Lit l : inputs) solver->AddClause({-l});
    return;
  }
  if (k >= inputs.size()) return;  // vacuous
  std::vector<Lit> outputs = BuildTotalizer(solver, inputs, k + 1);
  solver->AddClause({-outputs[k]});
}

}  // namespace deltarepair
