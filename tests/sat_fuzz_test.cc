// Randomized differential certification of the CDCL engine and the
// Min-Ones optimizer: ~1k seeded random CNFs are checked against
// brute-force enumeration — satisfiability, model validity, the exact
// Min-Ones optimum, and the proved-optimal flag — cycling through the
// ablation configurations (learning/restarts on and off). A second suite
// certifies incremental solving under assumptions against brute force
// with the assumptions added as unit clauses, on one long-lived solver
// per formula.
//
// A third suite certifies the shared deletion-CNF reduction and
// component split (sat/cnf_split.h) against enumeration.
//
// DR_FUZZ_ITERS multiplies every instance count (the nightly CI job
// runs at 10x); unset or 1 is the tier-1 default.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/random.h"
#include "sat/cnf_split.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {
namespace {

/// Scales a base iteration count by the DR_FUZZ_ITERS multiplier.
int ScaledIters(int base) {
  const char* env = std::getenv("DR_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return base;
  int mult = std::atoi(env);
  return mult > 1 ? base * mult : base;
}

struct BruteForce {
  bool satisfiable = false;
  int min_ones = -1;  // minimum true count over all models
};

BruteForce Enumerate(const Cnf& cnf) {
  BruteForce out;
  const uint32_t n = cnf.num_vars();
  std::vector<bool> model(n);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    int ones = 0;
    for (uint32_t v = 0; v < n; ++v) {
      model[v] = (mask >> v) & 1;
      ones += model[v] ? 1 : 0;
    }
    if (!cnf.IsSatisfiedBy(model)) continue;
    out.satisfiable = true;
    if (out.min_ones < 0 || ones < out.min_ones) out.min_ones = ones;
  }
  return out;
}

Cnf RandomCnf(Rng* rng, uint32_t max_vars) {
  const uint32_t num_vars = 2 + static_cast<uint32_t>(rng->NextBounded(
                                    max_vars - 1));
  const int num_clauses = 1 + static_cast<int>(rng->NextBounded(28));
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    int width = 1 + static_cast<int>(rng->NextBounded(3));
    for (int l = 0; l < width; ++l) {
      uint32_t v = static_cast<uint32_t>(rng->NextBounded(num_vars));
      lits.push_back(rng->NextBool(0.55) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(lits);
  }
  return cnf;
}

/// Ablation configurations cycled across instances.
MinOnesOptions ConfigFor(int instance) {
  MinOnesOptions options;
  options.enable_learning = (instance % 4) < 2;
  options.enable_restarts = (instance % 2) == 0;
  options.decompose_components = (instance % 8) < 6;
  return options;
}

TEST(SatFuzzTest, CdclAndMinOnesMatchBruteForceOn1kInstances) {
  const int kInstances = ScaledIters(1000);
  int sat_count = 0;
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0x5eed0000 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());

    // Plain satisfiability through the one-shot wrapper.
    SatResult sat = SolveSat(cnf);
    ASSERT_EQ(sat.satisfiable, expected.satisfiable);
    if (sat.satisfiable) {
      ASSERT_TRUE(cnf.IsSatisfiedBy(sat.model));
      ++sat_count;
    }

    // Satisfiability through a configured engine (ablation knobs).
    SolverOptions solver_options;
    solver_options.learning = (i % 4) < 2;
    solver_options.restarts = (i % 2) == 0;
    CdclSolver solver(solver_options);
    solver.AddCnf(cnf);
    ASSERT_EQ(solver.Solve() == SolveStatus::kSat, expected.satisfiable);

    // Min-Ones optimum.
    MinOnesResult min_ones = MinOnesSat(cnf, ConfigFor(i));
    ASSERT_EQ(min_ones.satisfiable, expected.satisfiable);
    if (expected.satisfiable) {
      ASSERT_TRUE(min_ones.optimal);
      ASSERT_EQ(static_cast<int>(min_ones.num_true), expected.min_ones);
      ASSERT_TRUE(cnf.IsSatisfiedBy(min_ones.model));
    }
  }
  // The generator must exercise both outcomes, not degenerate cases.
  EXPECT_GT(sat_count, kInstances / 4);
  EXPECT_LT(sat_count, kInstances - kInstances / 20);
}

/// Checks SplitComponents on `clauses`: both overloads agree; the
/// components partition exactly the variables that occur, each is
/// connected, no clause spans two, and they are ordered by smallest
/// variable.
void CheckSplit(const std::vector<std::vector<Lit>>& clauses, uint32_t n) {
  const CnfComponents split = SplitComponents(clauses, n);
  std::vector<const std::vector<Lit>*> refs;
  for (const auto& clause : clauses) refs.push_back(&clause);
  const CnfComponents by_ref = SplitComponents(refs, n);
  ASSERT_EQ(split.comp_of, by_ref.comp_of);
  ASSERT_EQ(split.components.size(), by_ref.components.size());
  ASSERT_EQ(split.comp_of.size(), n);

  std::vector<char> occurs(n, 0);
  for (const auto& clause : clauses) {
    for (Lit l : clause) occurs[LitVar(l)] = 1;
  }
  std::vector<int> var_seen(n, 0);
  std::vector<int> clause_seen(clauses.size(), 0);
  for (uint32_t c = 0; c < split.components.size(); ++c) {
    const CnfComponents::Component& comp = split.components[c];
    ASSERT_EQ(comp.vars, by_ref.components[c].vars);
    ASSERT_EQ(comp.clauses, by_ref.components[c].clauses);
    ASSERT_FALSE(comp.vars.empty());
    ASSERT_FALSE(comp.clauses.empty());
    if (c > 0) {
      ASSERT_LT(split.components[c - 1].vars.front(), comp.vars.front());
    }
    for (size_t i = 0; i < comp.vars.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(comp.vars[i - 1], comp.vars[i]);
      }
      ASSERT_EQ(split.comp_of[comp.vars[i]], c);
      ++var_seen[comp.vars[i]];
    }
    for (size_t i = 0; i < comp.clauses.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(comp.clauses[i - 1], comp.clauses[i]);
      }
      ++clause_seen[comp.clauses[i]];
      for (Lit l : clauses[comp.clauses[i]]) {
        ASSERT_EQ(split.comp_of[LitVar(l)], c);
      }
    }
    // Connected: the component's clauses reach every one of its vars
    // from its smallest.
    std::vector<char> reached(n, 0);
    reached[comp.vars.front()] = 1;
    for (bool grew = true; grew;) {
      grew = false;
      for (uint32_t ci : comp.clauses) {
        bool touches = false;
        for (Lit l : clauses[ci]) touches |= reached[LitVar(l)] != 0;
        if (!touches) continue;
        for (Lit l : clauses[ci]) {
          if (!reached[LitVar(l)]) reached[LitVar(l)] = grew = true;
        }
      }
    }
    for (uint32_t v : comp.vars) ASSERT_TRUE(reached[v]) << "var " << v;
  }
  for (uint32_t v = 0; v < n; ++v) {
    ASSERT_EQ(var_seen[v], occurs[v] ? 1 : 0) << "var " << v;
    if (!occurs[v]) {
      ASSERT_EQ(split.comp_of[v], CnfComponents::kNone);
    }
  }
  for (size_t ci = 0; ci < clauses.size(); ++ci) {
    ASSERT_EQ(clause_seen[ci], clauses[ci].empty() ? 0 : 1) << "clause " << ci;
  }
}

TEST(SatFuzzTest, ReductionAndSplitMatchBruteForce) {
  // A refutation proves unsatisfiability, but not every unsatisfiable
  // CNF is refuted: a unit-free core (all four 2-clauses over two
  // variables) survives both rules. So an unrefuted CNF is checked to
  // keep its satisfiability and its Min-Ones optimum in the residual.
  const int kInstances = ScaledIters(2000);
  int refuted = 0;
  int residual_nonempty = 0;
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0x5b117000 + static_cast<uint64_t>(i));
    const Cnf cnf = RandomCnf(&rng, 8);
    const uint32_t n = cnf.num_vars();
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    ASSERT_NO_FATAL_FAILURE(CheckSplit(cnf.clauses(), n));
    const ReducedCnf reduced = ReduceForMinimumModels(cnf.clauses(), n);
    const BruteForce expected = Enumerate(cnf);
    if (reduced.refuted) {
      ASSERT_FALSE(expected.satisfiable);
      ++refuted;
      continue;
    }
    ASSERT_EQ(reduced.fixed.size(), n);

    // Fixed values: 1 holds in every model, 0 in every minimum model.
    std::vector<bool> model(n);
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      int ones = 0;
      for (uint32_t v = 0; v < n; ++v) {
        model[v] = (mask >> v) & 1;
        ones += model[v] ? 1 : 0;
      }
      if (!cnf.IsSatisfiedBy(model)) continue;
      for (uint32_t v = 0; v < n; ++v) {
        if (reduced.fixed[v] == 1) {
          ASSERT_TRUE(model[v]) << "var " << v;
        }
        if (reduced.fixed[v] == 0 && ones == expected.min_ones) {
          ASSERT_FALSE(model[v]) << "var " << v;
        }
      }
    }

    // The residual holds only open literals, at least two per clause,
    // and keeps the satisfiability and the optimum.
    Cnf residual(n);
    int fixed_true = 0;
    for (uint32_t v = 0; v < n; ++v) fixed_true += reduced.fixed[v] == 1;
    for (const std::vector<Lit>& clause : reduced.clauses) {
      ASSERT_GE(clause.size(), 2u);
      for (Lit l : clause) ASSERT_LT(reduced.fixed[LitVar(l)], 0);
      residual.AddClause(clause);
    }
    residual_nonempty += reduced.clauses.empty() ? 0 : 1;
    const BruteForce rest = Enumerate(residual);
    ASSERT_EQ(rest.satisfiable, expected.satisfiable);
    if (expected.satisfiable) {
      ASSERT_EQ(fixed_true + rest.min_ones, expected.min_ones);
    }

    // The components of the residual partition the open variables.
    ASSERT_NO_FATAL_FAILURE(CheckSplit(reduced.clauses, n));
    std::vector<char> occurs(n, 0);
    for (const auto& clause : reduced.clauses) {
      for (Lit l : clause) occurs[LitVar(l)] = 1;
    }
    for (uint32_t v = 0; v < n; ++v) {
      ASSERT_EQ(occurs[v] != 0, reduced.fixed[v] < 0) << "var " << v;
    }
  }
  // Both outcomes, and non-trivial residuals, must be exercised.
  EXPECT_GT(refuted, kInstances / 20);
  EXPECT_GT(residual_nonempty, kInstances / 20);
}

TEST(SatFuzzTest, IncrementalAssumptionsMatchBruteForce) {
  const int kFormulas = ScaledIters(150);
  constexpr int kQueriesPerFormula = 8;
  for (int i = 0; i < kFormulas; ++i) {
    Rng rng(0xa55e5 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 9);
    CdclSolver solver;  // one solver serves every query on this formula
    solver.AddCnf(cnf);
    uint64_t conflicts_before = 0;
    for (int q = 0; q < kQueriesPerFormula; ++q) {
      std::vector<Lit> assumptions;
      int num_assumptions = static_cast<int>(rng.NextBounded(4));
      for (int a = 0; a < num_assumptions; ++a) {
        uint32_t v =
            static_cast<uint32_t>(rng.NextBounded(cnf.num_vars()));
        assumptions.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      Cnf augmented = cnf;
      for (Lit a : assumptions) augmented.AddClause({a});
      BruteForce expected = Enumerate(augmented);
      SCOPED_TRACE(testing::Message()
                   << "formula " << i << " query " << q << "\n"
                   << augmented.ToString());
      SolveStatus status = solver.Solve(assumptions);
      ASSERT_NE(status, SolveStatus::kUnknown);
      ASSERT_EQ(status == SolveStatus::kSat, expected.satisfiable);
      if (status == SolveStatus::kSat) {
        ASSERT_TRUE(cnf.IsSatisfiedBy(solver.model()));
        for (Lit a : assumptions) {
          ASSERT_EQ(solver.model()[LitVar(a)], LitSign(a));
        }
      }
      // Work counters are cumulative: learned clauses persist across
      // queries instead of being rediscovered.
      ASSERT_GE(solver.stats().conflicts, conflicts_before);
      conflicts_before = solver.stats().conflicts;
    }
    ASSERT_EQ(solver.stats().solve_calls,
              static_cast<uint64_t>(kQueriesPerFormula));
  }
}

TEST(SatFuzzTest, IncrementalClauseAdditionMatchesFromScratch) {
  // Interleave AddClause with Solve on one solver; a fresh solver over
  // the accumulated clauses must agree at every step.
  const int kFormulas = ScaledIters(100);
  for (int i = 0; i < kFormulas; ++i) {
    Rng rng(0xc1a05e + static_cast<uint64_t>(i));
    const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.NextBounded(7));
    Cnf accumulated(num_vars);
    CdclSolver incremental;
    incremental.EnsureVars(num_vars);
    bool unsat_seen = false;
    for (int step = 0; step < 12; ++step) {
      std::vector<Lit> lits;
      int width = 1 + static_cast<int>(rng.NextBounded(3));
      for (int l = 0; l < width; ++l) {
        uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vars));
        lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      accumulated.AddClause(lits);
      incremental.AddClause(lits);
      BruteForce expected = Enumerate(accumulated);
      SCOPED_TRACE(testing::Message() << "formula " << i << " step " << step
                                      << "\n" << accumulated.ToString());
      ASSERT_EQ(incremental.Solve() == SolveStatus::kSat,
                expected.satisfiable);
      unsat_seen |= !expected.satisfiable;
      if (!expected.satisfiable) break;  // solver is finished, next formula
    }
    (void)unsat_seen;
  }
}

TEST(SatFuzzTest, BlockingDescentModeMatchesBruteForce) {
  // Forcing max_totalizer_area = 0 routes every component through the
  // blocking-clause descent used for components too large to count —
  // its optimality claims must still be exact.
  const int kInstances = ScaledIters(400);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0xb10c + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 9);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    options.max_totalizer_area = 0;
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    ASSERT_EQ(r.satisfiable, expected.satisfiable);
    if (!expected.satisfiable) continue;
    ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
    ASSERT_GE(static_cast<int>(r.num_true), expected.min_ones);
    if (r.optimal) {
      ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
    }
  }
}

TEST(SatFuzzTest, MinOnesAnytimeContractUnderTinyBudget) {
  // With a starved work budget the result must still be a model (or a
  // correct unsat claim); optimality may be forfeited but never lied
  // about.
  const int kInstances = ScaledIters(200);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0xb4d9e7 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    options.max_assignments = 1 + (static_cast<uint64_t>(i) % 40);
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    if (r.satisfiable) {
      ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
      if (r.optimal) {
        ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
      }
    } else {
      ASSERT_FALSE(expected.satisfiable);
    }
  }
}

}  // namespace
}  // namespace deltarepair
