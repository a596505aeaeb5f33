#include "sat/cnf_split.h"

#include <algorithm>
#include <numeric>

namespace deltarepair {

namespace {

// Occurrence-list index of a literal: 2v positive, 2v+1 negative.
inline size_t OccIndex(Lit l) { return LitVar(l) * 2 + (LitSign(l) ? 0 : 1); }

// The union-find behind every component split. Unions hang the larger
// root under the smaller, so a root is the smallest variable of its set.
template <typename ClauseAt>
CnfComponents Split(size_t num_clauses, const ClauseAt& clause_at,
                    uint32_t num_vars) {
  std::vector<uint32_t> parent(num_vars);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&parent](uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::vector<char> occurs(num_vars, 0);
  for (size_t c = 0; c < num_clauses; ++c) {
    const std::vector<Lit>& clause = clause_at(c);
    if (clause.empty()) continue;
    uint32_t root = find(LitVar(clause[0]));
    occurs[LitVar(clause[0])] = 1;
    for (size_t i = 1; i < clause.size(); ++i) {
      occurs[LitVar(clause[i])] = 1;
      const uint32_t other = find(LitVar(clause[i]));
      if (other == root) continue;
      parent[std::max(root, other)] = std::min(root, other);
      root = std::min(root, other);
    }
  }
  CnfComponents out;
  out.comp_of.assign(num_vars, CnfComponents::kNone);
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (!occurs[v]) continue;
    const uint32_t root = find(v);
    if (root == v) {  // the set's smallest variable: a new component
      out.comp_of[v] = static_cast<uint32_t>(out.components.size());
      out.components.emplace_back();
    } else {
      out.comp_of[v] = out.comp_of[root];
    }
    out.components[out.comp_of[v]].vars.push_back(v);
  }
  for (size_t c = 0; c < num_clauses; ++c) {
    const std::vector<Lit>& clause = clause_at(c);
    if (clause.empty()) continue;
    out.components[out.comp_of[LitVar(clause[0])]].clauses.push_back(
        static_cast<uint32_t>(c));
  }
  return out;
}

}  // namespace

ReducedCnf ReduceForMinimumModels(
    const std::vector<std::vector<Lit>>& clauses, uint32_t num_vars) {
  ReducedCnf out;
  out.fixed.assign(num_vars, -1);
  std::vector<int8_t>& fixed = out.fixed;
  const size_t m = clauses.size();
  // Occurrence lists by literal in one flat CSR block; per clause the
  // count of literals not yet falsified, per variable the count of live
  // positive occurrences. Clauses are never mutated: a dead clause is
  // flagged, a falsified literal only decrements its clause's count.
  std::vector<uint32_t> occ_start(static_cast<size_t>(num_vars) * 2 + 1, 0);
  std::vector<uint32_t> pos_count(num_vars, 0);
  std::vector<uint32_t> open(m);
  std::vector<char> dead(m, 0);
  std::vector<Lit> units;
  size_t total_lits = 0;
  for (size_t c = 0; c < m; ++c) {
    const std::vector<Lit>& clause = clauses[c];
    if (clause.empty()) {
      out.refuted = true;
      return out;
    }
    if (clause.size() == 1) units.push_back(clause[0]);
    open[c] = static_cast<uint32_t>(clause.size());
    total_lits += clause.size();
    for (Lit l : clause) {
      ++occ_start[OccIndex(l) + 1];
      if (LitSign(l)) ++pos_count[LitVar(l)];
    }
  }
  for (size_t i = 1; i < occ_start.size(); ++i) occ_start[i] += occ_start[i - 1];
  std::vector<uint32_t> occ_flat(total_lits);
  {
    std::vector<uint32_t> cursor(occ_start.begin(), occ_start.end() - 1);
    for (size_t c = 0; c < m; ++c) {
      for (Lit l : clauses[c]) {
        occ_flat[cursor[OccIndex(l)]++] = static_cast<uint32_t>(c);
      }
    }
  }
  auto occ = [&](size_t lit_index) {
    return std::pair<const uint32_t*, const uint32_t*>(
        occ_flat.data() + occ_start[lit_index],
        occ_flat.data() + occ_start[lit_index + 1]);
  };
  std::vector<uint32_t> pure_candidates;
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (pos_count[v] == 0) pure_candidates.push_back(v);
  }

  // Clause `c` is satisfied: its open positive literals lose an
  // occurrence, possibly turning their variables pure-negative.
  auto kill_clause = [&](uint32_t c) {
    if (dead[c]) return;
    dead[c] = 1;
    for (Lit l : clauses[c]) {
      const uint32_t v = LitVar(l);
      if (LitSign(l) && fixed[v] < 0 && --pos_count[v] == 0) {
        pure_candidates.push_back(v);
      }
    }
  };
  // One literal of clause `c` is falsified. Only the variable being
  // fixed has unprocessed occurrences, so once one literal is left it is
  // the clause's only open one: a unit.
  auto strip_literal = [&](uint32_t c) -> bool {
    if (dead[c]) return true;
    if (--open[c] == 0) return false;  // refuted
    if (open[c] == 1) {
      for (Lit l : clauses[c]) {
        if (fixed[LitVar(l)] < 0) {
          units.push_back(l);
          break;
        }
      }
    }
    return true;
  };

  while (!units.empty() || !pure_candidates.empty()) {
    if (!units.empty()) {
      const Lit l = units.back();
      units.pop_back();
      const uint32_t v = LitVar(l);
      const int8_t want = LitSign(l) ? 1 : 0;
      if (fixed[v] == want) continue;
      if (fixed[v] >= 0) {  // contradicting units
        out.refuted = true;
        return out;
      }
      fixed[v] = want;
      auto [sat_begin, sat_end] = occ(OccIndex(l));
      for (const uint32_t* c = sat_begin; c != sat_end; ++c) kill_clause(*c);
      auto [unsat_begin, unsat_end] = occ(OccIndex(-l));
      for (const uint32_t* c = unsat_begin; c != unsat_end; ++c) {
        if (!strip_literal(*c)) {
          out.refuted = true;
          return out;
        }
      }
      continue;
    }
    const uint32_t v = pure_candidates.back();
    pure_candidates.pop_back();
    if (fixed[v] >= 0) continue;  // a unit already fixed it
    fixed[v] = 0;  // no positive occurrence left: false costs nothing
    auto [neg_begin, neg_end] = occ(OccIndex(NegLit(v)));
    for (const uint32_t* c = neg_begin; c != neg_end; ++c) kill_clause(*c);
  }

  for (size_t c = 0; c < m; ++c) {
    if (dead[c]) continue;
    std::vector<Lit> reduced;
    reduced.reserve(open[c]);
    for (Lit l : clauses[c]) {
      if (fixed[LitVar(l)] < 0) reduced.push_back(l);
    }
    out.clauses.push_back(std::move(reduced));
  }
  return out;
}

CnfComponents SplitComponents(
    const std::vector<const std::vector<Lit>*>& clauses, uint32_t num_vars) {
  return Split(
      clauses.size(),
      [&clauses](size_t c) -> const std::vector<Lit>& { return *clauses[c]; },
      num_vars);
}

CnfComponents SplitComponents(const std::vector<std::vector<Lit>>& clauses,
                              uint32_t num_vars) {
  return Split(
      clauses.size(),
      [&clauses](size_t c) -> const std::vector<Lit>& { return clauses[c]; },
      num_vars);
}

ComponentKey ClauseContentKey(std::vector<uint64_t> codes) {
  std::sort(codes.begin(), codes.end());
  ContentHasher h;
  h.Feed(codes.size());
  for (uint64_t code : codes) h.Feed(code);
  return h.key();
}

}  // namespace deltarepair
