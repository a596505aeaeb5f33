// The one reduction and the one component split of Algorithm 1's
// deletion CNF, shared by every layer that reads its minimum-repair
// space: Min-Ones (min_ones.h), the cone slicer (provenance/cone.h), the
// cold full-CNF entailment caps (cqa/repair_space.cc) and the warm
// component cache (provenance/incremental_cnf.h).
//
//  - ReduceForMinimumModels: unit propagation plus the pure-negative
//    cascade, to fixpoint. A unit-forced literal holds in every model; a
//    variable with no positive occurrence among the clauses still open
//    can be flipped false in any model without falsifying anything, so
//    every *minimum* model keeps it false.
//  - SplitComponents: connected components over shared variables (one
//    union-find), numbered by smallest variable.
//  - ContentHasher: the two-lane 128-bit content key behind component
//    keys and warm answer signatures.
#ifndef DELTAREPAIR_SAT_CNF_SPLIT_H_
#define DELTAREPAIR_SAT_CNF_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sat/cnf.h"

namespace deltarepair {

struct ReducedCnf {
  /// The clauses are unsatisfiable (propagation reached an empty
  /// clause). `fixed` and `clauses` are then meaningless.
  bool refuted = false;
  /// Per variable: -1 open, 0 false in every minimum model, 1 true in
  /// every model.
  std::vector<int8_t> fixed;
  /// The clauses no fixed variable satisfies, in input order, cut down
  /// to their open literals (input literal order kept). Each holds at
  /// least two literals, and every open variable occurs in one.
  std::vector<std::vector<Lit>> clauses;
};

/// Reduces `clauses` (over variables 0..num_vars-1, no variable twice in
/// one clause, as Cnf::AddClause guarantees) for minimum-model search.
/// Reads the input in place; only the residual is allocated. The minimum
/// models of the input are exactly the fixed assignment extended by the
/// minimum models of the residual.
ReducedCnf ReduceForMinimumModels(
    const std::vector<std::vector<Lit>>& clauses, uint32_t num_vars);

struct CnfComponents {
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Component {
    std::vector<uint32_t> vars;     // sorted
    std::vector<uint32_t> clauses;  // ascending indices into the input
  };
  /// Ordered by smallest variable.
  std::vector<Component> components;
  /// Component of each variable; kNone for a variable in no clause.
  std::vector<uint32_t> comp_of;
};

/// Splits the clauses into connected components over shared variables.
/// Empty clauses belong to no component.
CnfComponents SplitComponents(
    const std::vector<const std::vector<Lit>*>& clauses, uint32_t num_vars);
CnfComponents SplitComponents(const std::vector<std::vector<Lit>>& clauses,
                              uint32_t num_vars);

/// 128-bit content key: two independent 64-bit lanes, so a reused
/// verdict or component needs both to collide.
using ComponentKey = std::pair<uint64_t, uint64_t>;

struct ComponentKeyHash {
  size_t operator()(const ComponentKey& k) const {
    return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
  }
};

/// Order-sensitive two-lane hasher over a stream of 64-bit words.
class ContentHasher {
 public:
  void Feed(uint64_t v) {
    a_ = (a_ ^ v) * 0x00000100000001b3ULL;
    a_ ^= a_ >> 32;
    b_ = (b_ + v) * 0x9e3779b97f4a7c15ULL;
    b_ ^= b_ >> 29;
  }
  ComponentKey key() const { return {a_, b_}; }

 private:
  uint64_t a_ = 0x243f6a8885a308d3ULL;
  uint64_t b_ = 0x13198a2e03707344ULL;
};

/// Content key of one clause from its literal codes (a renumbering-
/// stable id per variable, shifted left one, plus the sign bit): size-
/// prefixed and sorted, so literal order never matters. A component's
/// key sums its clauses' keys lane by lane (AddKey), so clause order
/// never matters either.
ComponentKey ClauseContentKey(std::vector<uint64_t> codes);

inline void AddKey(ComponentKey* sum, const ComponentKey& part) {
  sum->first += part.first;
  sum->second += part.second;
}

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_CNF_SPLIT_H_
