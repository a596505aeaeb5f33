// Totalizer cardinality counter (Bailleux & Boudet) over an incremental
// CDCL solver, shared by the Min-Ones bounded search and the CQA
// symbolic repair space. Only the at-most direction is emitted: the
// output literals count how many inputs are true, and assuming (or
// asserting) ¬outputs[t] enforces "at most t inputs true".
#ifndef DELTAREPAIR_SAT_TOTALIZER_H_
#define DELTAREPAIR_SAT_TOTALIZER_H_

#include <vector>

#include "sat/cnf.h"

namespace deltarepair {

class CdclSolver;

/// Emits a totalizer over `inputs` into `solver` and returns its output
/// literals, capped at `cap`: outputs[i] is forced true whenever at
/// least i+1 of the inputs are true (the only direction an at-most
/// bound needs). Assuming ¬outputs[t] then enforces sum <= t for any
/// t < cap. Returns at most min(cap, inputs.size()) outputs; an empty
/// input list yields no outputs.
std::vector<Lit> BuildTotalizer(CdclSolver* solver,
                                const std::vector<Lit>& inputs,
                                uint32_t cap);

/// Asserts "at most `k` of `inputs` are true" permanently: unit
/// negations when k is 0, else a totalizer capped at k+1 whose output
/// k is asserted false (nothing when k >= inputs.size()).
void AddAtMost(CdclSolver* solver, const std::vector<Lit>& inputs,
               uint32_t k);

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_TOTALIZER_H_
