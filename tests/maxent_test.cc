// Tests for src/maxent: the dual function (against finite differences),
// presolve, every solver on analytically solvable problems, the
// consistency theorem (Theorem 5), solver agreement, decomposition
// (Section 5.5), and the inequality extension.

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/prng.h"
#include "common/vec_math.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solver.h"
#include "tests/test_util.h"

namespace pme::maxent {
namespace {

using constraints::ConstraintSystem;
using constraints::LinearConstraint;
using constraints::TermIndex;
using knowledge::Relation;
using pme::testing::kQ1;
using pme::testing::kQ2;
using pme::testing::kQ3;
using pme::testing::kS1;
using pme::testing::kS2;
using pme::testing::kS3;

LinearConstraint Eq(std::vector<uint32_t> vars, double rhs) {
  LinearConstraint c;
  c.vars = std::move(vars);
  c.coefs.assign(c.vars.size(), 1.0);
  c.rhs = rhs;
  return c;
}

MaxEntProblem SimplexProblem(size_t n) {
  ConstraintSystem system(n);
  std::vector<uint32_t> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  system.Add(Eq(all, 1.0));
  return BuildProblem(system).ValueOrDie();
}

// ------------------------------------------------------------------ Dual

TEST(DualFunctionTest, GradientMatchesFiniteDifferences) {
  Prng prng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 2 + prng.NextBounded(4);
    const size_t cols = 3 + prng.NextBounded(6);
    std::vector<std::vector<double>> dense(rows,
                                           std::vector<double>(cols, 0.0));
    for (auto& row : dense) {
      for (auto& v : row) {
        if (prng.NextDouble() < 0.6) v = prng.NextDouble(0.0, 1.5);
      }
    }
    auto a = linalg::SparseMatrix::FromDense(dense);
    std::vector<double> b(rows);
    for (auto& v : b) v = prng.NextDouble(0.05, 0.5);
    DualFunction dual(&a, b);

    std::vector<double> lambda(rows);
    for (auto& v : lambda) v = prng.NextDouble(-1.0, 1.0);
    std::vector<double> grad;
    dual.Evaluate(lambda, &grad, nullptr);

    const double eps = 1e-6;
    for (size_t j = 0; j < rows; ++j) {
      auto plus = lambda, minus = lambda;
      plus[j] += eps;
      minus[j] -= eps;
      const double fd = (dual.Evaluate(plus, nullptr, nullptr) -
                         dual.Evaluate(minus, nullptr, nullptr)) /
                        (2 * eps);
      EXPECT_NEAR(grad[j], fd, 1e-5);
    }
  }
}

TEST(DualFunctionTest, EvaluateIntoMatchesEvaluate) {
  Prng prng(7);
  auto a = linalg::SparseMatrix::FromDense(
      {{1.0, 0.0, 2.0, 0.5}, {0.0, 1.0, 1.0, 0.0}, {0.3, 0.0, 0.0, 1.0}});
  std::vector<double> b = {0.4, 0.3, 0.3};
  DualFunction dual(&a, b);
  DualWorkspace ws;
  std::vector<double> grad_fused, grad, p;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> lambda(3);
    for (auto& v : lambda) v = prng.NextDouble(-1.0, 1.0);
    const double fused = dual.EvaluateInto(lambda, &grad_fused, &ws);
    const double legacy = dual.Evaluate(lambda, &grad, &p);
    EXPECT_DOUBLE_EQ(fused, legacy);
    ASSERT_EQ(ws.p.size(), p.size());
    for (size_t i = 0; i < p.size(); ++i) EXPECT_DOUBLE_EQ(ws.p[i], p[i]);
    for (size_t j = 0; j < grad.size(); ++j) {
      EXPECT_DOUBLE_EQ(grad_fused[j], grad[j]);
    }
  }
}

TEST(DualFunctionTest, EvaluateIntoNeverResizesAfterWarmup) {
  // The allocation-free contract of the solver hot path: after the first
  // call the workspace and gradient buffers are final — every subsequent
  // evaluation (e.g. line-search probes) reuses them in place.
  Prng prng(13);
  auto a = linalg::SparseMatrix::FromDense(
      {{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}});
  std::vector<double> b = {0.5, 0.5};
  DualFunction dual(&a, b);
  DualWorkspace ws;
  std::vector<double> grad;
  std::vector<double> lambda = {0.1, -0.2};
  dual.EvaluateInto(lambda, &grad, &ws);
  const double* p_data = ws.p.data();
  const double* grad_data = grad.data();
  const size_t p_cap = ws.p.capacity();
  const size_t grad_cap = grad.capacity();
  for (int trial = 0; trial < 100; ++trial) {
    for (auto& v : lambda) v = prng.NextDouble(-2.0, 2.0);
    dual.EvaluateInto(lambda, &grad, &ws);
    ASSERT_EQ(ws.p.data(), p_data);
    ASSERT_EQ(grad.data(), grad_data);
    ASSERT_EQ(ws.p.capacity(), p_cap);
    ASSERT_EQ(grad.capacity(), grad_cap);
  }
}

TEST(DualFunctionTest, HessianDiagonalIsFusedIntoTheGradientSweep) {
  // Rows from empty to 40 nonzeros cover the unrolled body, its
  // remainder and the prefetch window of the CSR row kernel.
  Prng prng(17);
  const size_t rows = 24, cols = 60;
  std::vector<std::vector<double>> dense(rows, std::vector<double>(cols, 0.0));
  for (size_t r = 1; r < rows; ++r) {
    const double density = static_cast<double>(r) / rows * 0.7;
    for (auto& v : dense[r]) {
      if (prng.NextDouble() < density) v = prng.NextDouble(0.1, 2.0);
    }
  }
  auto a = linalg::SparseMatrix::FromDense(dense);
  std::vector<double> b(rows);
  for (auto& v : b) v = prng.NextDouble(0.0, 0.5);
  DualFunction dual(&a, b);
  DualWorkspace plain, with_diag;
  with_diag.want_hessian_diag = true;
  std::vector<double> grad_plain, grad_fused, reference(rows);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> lambda(rows);
    for (auto& v : lambda) v = prng.NextDouble(-1.0, 1.0);
    const double v_plain = dual.EvaluateInto(lambda, &grad_plain, &plain);
    const double v_fused = dual.EvaluateInto(lambda, &grad_fused, &with_diag);
    EXPECT_EQ(v_fused, v_plain);
    EXPECT_TRUE(plain.hessian_diag.empty());
    a.MultiplyMinusInto(with_diag.p, b, reference);
    ASSERT_EQ(with_diag.hessian_diag.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(grad_fused[r], reference[r]) << "row " << r;
      EXPECT_EQ(grad_fused[r], grad_plain[r]) << "row " << r;
      double naive = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        naive += dense[r][c] * dense[r][c] * with_diag.p[c];
      }
      EXPECT_NEAR(with_diag.hessian_diag[r], naive, 1e-14 * naive)
          << "row " << r;
    }
  }
  EXPECT_EQ(with_diag.hessian_diag[0], 0.0);  // the empty row
}

TEST(DualFunctionTest, PrimalIsExpOfDualCombination) {
  auto a = linalg::SparseMatrix::FromDense({{1.0, 1.0}});
  std::vector<double> b = {1.0};
  DualFunction dual(&a, b);
  auto p = dual.Primal({2.0});
  EXPECT_NEAR(p[0], std::exp(1.0), 1e-12);
  EXPECT_NEAR(p[1], std::exp(1.0), 1e-12);
}

// ---------------------------------------------------------- BuildProblem

// The CSR arrays a row list should assemble to, built densely: each row
// accumulated into a dense vector in row order (kGe rows negated), then
// read back left to right keeping the nonzeros.
struct DenseReference {
  std::vector<size_t> offsets{0};
  std::vector<uint32_t> cols;
  std::vector<double> values;
  std::vector<double> rhs;

  void AddRow(const LinearConstraint& c, size_t num_vars) {
    const double sign = c.rel == Relation::kGe ? -1.0 : 1.0;
    std::vector<double> dense(num_vars, 0.0);
    for (size_t i = 0; i < c.vars.size(); ++i) {
      dense[c.vars[i]] += sign * c.coefs[i];
    }
    for (uint32_t v = 0; v < num_vars; ++v) {
      if (dense[v] == 0.0) continue;
      cols.push_back(v);
      values.push_back(dense[v]);
    }
    offsets.push_back(cols.size());
    rhs.push_back(sign * c.rhs);
  }

  void Expect(const linalg::SparseMatrix& m,
              const std::vector<double>& got_rhs) const {
    EXPECT_EQ(m.rows(), rhs.size());
    EXPECT_EQ(m.row_offsets(), offsets);
    EXPECT_EQ(m.col_indices(), cols);
    EXPECT_EQ(m.values(), values);
    EXPECT_EQ(got_rhs, rhs);
  }
};

// Random systems of every relation whose rows repeat variables two and
// three times, carry explicit zero coefficients, sum to zero, or are
// empty. Coefficients are multiples of 1/8, so every sum is exact in any
// order and the reference needs no tolerance.
TEST(BuildProblemTest, MatchesADenseReferenceOnRandomSystems) {
  const Relation kRelations[] = {Relation::kEq, Relation::kLe, Relation::kGe};
  size_t repeats = 0, zeros = 0, empties = 0, negated = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Prng prng(seed);
    const size_t num_vars = 1 + prng.NextBounded(12);
    ConstraintSystem system(num_vars);
    DenseReference eq, ineq;
    const size_t num_rows = prng.NextBounded(10);
    for (size_t r = 0; r < num_rows; ++r) {
      LinearConstraint c;
      c.rel = kRelations[prng.NextBounded(3)];
      c.rhs = static_cast<double>(prng.NextBounded(17)) / 8.0 - 1.0;
      const size_t len = prng.NextBounded(7);
      for (size_t i = 0; i < len; ++i) {
        const uint32_t var = static_cast<uint32_t>(prng.NextBounded(num_vars));
        // One draw in four repeats the variable once or twice more.
        const size_t copies = prng.NextBounded(4) == 0 ? 2 + prng.NextBounded(2)
                                                       : 1;
        for (size_t k = 0; k < copies; ++k) {
          const double coef =
              static_cast<double>(prng.NextBounded(17)) / 8.0 - 1.0;
          c.vars.push_back(var);
          c.coefs.push_back(coef);
          zeros += coef == 0.0;
        }
        repeats += copies > 1;
      }
      empties += len == 0;
      negated += c.rel == Relation::kGe;
      (c.rel == Relation::kEq ? eq : ineq).AddRow(c, num_vars);
      system.Add(std::move(c));
    }
    const auto problem = BuildProblem(system).ValueOrDie();
    EXPECT_EQ(problem.num_vars, num_vars);
    EXPECT_EQ(problem.eq.cols(), num_vars);
    EXPECT_EQ(problem.ineq.cols(), num_vars);
    eq.Expect(problem.eq, problem.eq_rhs);
    ineq.Expect(problem.ineq, problem.ineq_rhs);
  }
  // The seeds reach every case the test is about.
  EXPECT_GT(repeats, 20u);
  EXPECT_GT(zeros, 5u);
  EXPECT_GT(empties, 5u);
  EXPECT_GT(negated, 20u);
}

TEST(BuildProblemTest, RejectsOutOfRangeVariablesAndRaggedRows) {
  ConstraintSystem out_of_range(3);
  LinearConstraint c = Eq({0, 3}, 1.0);
  out_of_range.Add(c);
  EXPECT_EQ(BuildProblem(out_of_range).status().code(),
            StatusCode::kInvalidArgument);

  ConstraintSystem ragged(3);
  c = Eq({0, 1}, 1.0);
  c.coefs.pop_back();
  ragged.Add(c);
  EXPECT_EQ(BuildProblem(ragged).status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- Presolve

TEST(PresolveTest, ZeroForcingEliminatesVariables) {
  ConstraintSystem system(3);
  system.Add(Eq({0, 1}, 0.0));  // forces p0 = p1 = 0
  system.Add(Eq({0, 1, 2}, 0.4));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 3u);  // cascade pins p2 = 0.4 too
  EXPECT_EQ(pre.reduced.num_vars, 0u);
  auto full = pre.Restore({});
  EXPECT_DOUBLE_EQ(full[0], 0.0);
  EXPECT_DOUBLE_EQ(full[1], 0.0);
  EXPECT_DOUBLE_EQ(full[2], 0.4);
}

TEST(PresolveTest, SingletonSubstitution) {
  ConstraintSystem system(3);
  system.Add(Eq({0}, 0.3));
  system.Add(Eq({0, 1, 2}, 1.0));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 1u);
  EXPECT_EQ(pre.reduced.num_vars, 2u);
  ASSERT_EQ(pre.reduced.eq_rhs.size(), 1u);
  EXPECT_NEAR(pre.reduced.eq_rhs[0], 0.7, 1e-12);  // 1.0 - 0.3
}

TEST(PresolveTest, DetectsInfeasibleConstant) {
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 0.0));  // all zero
  system.Add(Eq({0, 1}, 0.5));  // contradiction
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem);
  ASSERT_FALSE(pre.ok());
  EXPECT_EQ(pre.status().code(), StatusCode::kInfeasible);
}

TEST(PresolveTest, DetectsNegativePin) {
  ConstraintSystem system(1);
  system.Add(Eq({0}, -0.5));
  auto problem = BuildProblem(system).ValueOrDie();
  EXPECT_EQ(Presolve(problem).status().code(), StatusCode::kInfeasible);
}

TEST(PresolveTest, InequalityZeroBoundForces) {
  ConstraintSystem system(2);
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.0;  // p0 <= 0 with p0 >= 0 pins p0 = 0
  system.Add(le);
  system.Add(Eq({0, 1}, 0.5));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 2u);
  auto full = pre.Restore({});
  EXPECT_DOUBLE_EQ(full[1], 0.5);
}

// --------------------------------------------------- Analytic solutions

TEST(SolverTest, UniformOnSimplex) {
  // max H s.t. Σ p = 1 -> uniform; entropy = ln n.
  for (size_t n : {2, 5, 16}) {
    auto result = Solve(SimplexProblem(n)).ValueOrDie();
    EXPECT_TRUE(result.converged);
    for (double v : result.p) EXPECT_NEAR(v, 1.0 / n, 1e-7);
    EXPECT_NEAR(result.entropy, std::log(double(n)), 1e-6);
    EXPECT_LT(result.max_violation, 1e-8);
  }
}

TEST(SolverTest, TwoBlockMarginals) {
  // Variables arranged 2x2 with row sums {0.6, 0.4} and col sums
  // {0.7, 0.3}: maxent -> product distribution.
  ConstraintSystem system(4);
  system.Add(Eq({0, 1}, 0.6));
  system.Add(Eq({2, 3}, 0.4));
  system.Add(Eq({0, 2}, 0.7));
  system.Add(Eq({1, 3}, 0.3));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.42, 1e-7);
  EXPECT_NEAR(result.p[1], 0.18, 1e-7);
  EXPECT_NEAR(result.p[2], 0.28, 1e-7);
  EXPECT_NEAR(result.p[3], 0.12, 1e-7);
}

TEST(SolverTest, InequalityBindsWhenActive) {
  // max H s.t. p0 + p1 = 1, p0 <= 0.2  -> p = (0.2, 0.8).
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.2;
  system.Add(le);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.2, 1e-6);
  EXPECT_NEAR(result.p[1], 0.8, 1e-6);
}

TEST(SolverTest, InequalitySlackWhenInactive) {
  // p0 <= 0.9 does not bind: solution stays uniform.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.9;
  system.Add(le);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.5, 1e-6);
  EXPECT_NEAR(result.p[1], 0.5, 1e-6);
}

TEST(SolverTest, GreaterEqualBindsFromBelow) {
  // p0 >= 0.8 forces mass onto p0.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint ge;
  ge.vars = {0};
  ge.coefs = {1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.8;
  system.Add(ge);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.8, 1e-6);
  EXPECT_NEAR(result.p[1], 0.2, 1e-6);
}

TEST(SolverTest, VagueKnowledgeBand) {
  // Section 4.5: 0.3-eps <= P <= 0.3+eps around an unconstrained optimum
  // of 0.5 clamps to the upper edge 0.35.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.35;
  system.Add(le);
  LinearConstraint ge;
  ge.vars = {0};
  ge.coefs = {1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.25;
  system.Add(ge);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.35, 1e-6);
}

// -------------------------------------------------- All-solver agreement

class AllSolversTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(AllSolversTest, UniformOnSimplex) {
  auto result = Solve(SimplexProblem(6), GetParam()).ValueOrDie();
  for (double v : result.p) EXPECT_NEAR(v, 1.0 / 6, 1e-6);
}

TEST_P(AllSolversTest, Figure1WithKnowledgeAgreesWithLbfgs) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled =
      constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = BuildProblem(system).ValueOrDie();

  SolverOptions options;
  options.max_iterations = 5000;
  auto reference = Solve(problem, SolverKind::kLbfgs, options).ValueOrDie();
  auto result = Solve(problem, GetParam(), options).ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-6);
  for (size_t i = 0; i < reference.p.size(); ++i) {
    EXPECT_NEAR(result.p[i], reference.p[i], Tolerance::kCrossSolver)
        << "var " << i << " solver " << SolverKindToString(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, AllSolversTest,
    ::testing::Values(SolverKind::kLbfgs, SolverKind::kProjected),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return SolverKindToString(info.param);
    });

// ------------------------------------------------------- Enum spellings

TEST(EnumNamesTest, EveryNameRoundTripsAndUnknownNamesAreRejected) {
  for (const SolverKind kind : {SolverKind::kLbfgs, SolverKind::kProjected}) {
    auto parsed = ParseSolverKind(SolverKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << SolverKindToString(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  for (const CacheMode mode :
       {CacheMode::kOff, CacheMode::kExact, CacheMode::kWarm}) {
    auto parsed = ParseCacheMode(CacheModeToString(mode));
    ASSERT_TRUE(parsed.ok()) << CacheModeToString(mode);
    EXPECT_EQ(parsed.value(), mode);
  }
  // Unknown names, including the solver kinds this library once had.
  for (const char* name :
       {"bfgs", "unknown", "gis", "iis", "steepest", "newton"}) {
    EXPECT_EQ(ParseSolverKind(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(ParseCacheMode("on").status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- Consistency (Thm. 5)

TEST(ConsistencyTest, NoKnowledgeMatchesClosedForm) {
  // Theorem 5: with no background knowledge the MaxEnt solution equals
  // P(q,b)·P(s,b)/P(b) — the uniform-portion rule of the prior work.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  auto closed = ClosedFormNoKnowledge(t, index);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(result.p[i], closed[i], 1e-7) << index.TermName(i, t);
  }
}

TEST(ConsistencyTest, ClosedFormSatisfiesAllInvariants) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto closed = ClosedFormNoKnowledge(t, index);
  auto invariants = constraints::GenerateInvariants(t, index);
  EXPECT_LT(constraints::MaxInvariantViolation(invariants, closed), 1e-12);
}

TEST(ConsistencyTest, ClosedFormMatchesPortionRule) {
  // Eq. (9): P(S | Q, b) = (# of S in b) / N_b.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto closed = ClosedFormNoKnowledge(t, index);
  // P(s2 | q1, b1) = 2/4; joint = P(q1,b1) * 1/2 = 0.2 * 0.5 = 0.1.
  const uint32_t var = index.VariableId(kQ1, kS2, 0).ValueOrDie();
  EXPECT_NEAR(closed[var], 0.1, 1e-12);
  // P(s1 | q1, b1) = 1/4; joint = 0.2 * 0.25 = 0.05.
  const uint32_t var2 = index.VariableId(kQ1, kS1, 0).ValueOrDie();
  EXPECT_NEAR(closed[var2], 0.05, 1e-12);
}

// ------------------------------------------ Section 3.1 forced deduction

TEST(DeductionTest, PaperSection31Example) {
  // "if adversaries know that P(s1|q2) = 0 and P(s1 or s2|q3) = 0, we
  // immediately know that in the first bucket q3 can only be mapped to
  // s3, q2 can only be mapped to s2, and one of the q1 maps to s1 and the
  // other maps to s2."
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ2, {kS1}, 0.0));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS1, kS2}, 0.0));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  const auto& p = result.p;

  auto at = [&](uint32_t q, uint32_t s, uint32_t b) {
    return p[index.VariableId(q, s, b).ValueOrDie()];
  };
  // q3 -> s3 with its entire bucket-1 mass (0.1).
  EXPECT_NEAR(at(kQ3, kS3, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ3, kS1, 0), 0.0, 1e-9);
  EXPECT_NEAR(at(kQ3, kS2, 0), 0.0, 1e-9);
  // q2 -> s2 (s3 is exhausted by q3).
  EXPECT_NEAR(at(kQ2, kS2, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ2, kS1, 0), 0.0, 1e-9);
  EXPECT_NEAR(at(kQ2, kS3, 0), 0.0, 1e-7);
  // The two q1 occurrences split between s1 (all of it) and s2.
  EXPECT_NEAR(at(kQ1, kS1, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ1, kS2, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ1, kS3, 0), 0.0, 1e-7);
}

// --------------------------------------------------------- Decomposition

TEST(DecomposedTest, MatchesFullSolve) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));

  auto problem = BuildProblem(system).ValueOrDie();
  auto full = Solve(problem).ValueOrDie();
  auto decomposed = SolveDecomposed(t, index, system).ValueOrDie();
  for (size_t i = 0; i < full.p.size(); ++i) {
    EXPECT_NEAR(decomposed.p[i], full.p[i], 1e-6) << index.TermName(i, t);
  }
  EXPECT_LT(decomposed.max_violation, 1e-7);

  auto stats = AnalyzeDecomposition(index, system);
  EXPECT_EQ(stats.relevant_buckets, 2u);
  EXPECT_EQ(stats.irrelevant_buckets, 1u);
  EXPECT_EQ(stats.relevant_variables, 18u);
}

TEST(DecomposedTest, NoKnowledgeIsPureClosedForm) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  auto result = SolveDecomposed(t, index, system).ValueOrDie();
  EXPECT_EQ(result.iterations, 0u);  // nothing iterative to solve
  auto closed = ClosedFormNoKnowledge(t, index);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(result.p[i], closed[i], 1e-12);
  }
}

// -------------------------------------------------- Solver edge cases

TEST(SolverTest, EmptyProblemIsTriviallySolved) {
  ConstraintSystem system(0);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.p.empty());
}

TEST(SolverTest, ReportsIterationsAndTime) {
  auto result = Solve(SimplexProblem(8)).ValueOrDie();
  EXPECT_GT(result.iterations, 0u);
  EXPECT_GE(result.seconds, 0.0);
  EXPECT_EQ(result.kind, SolverKind::kLbfgs);
}

TEST(SolverTest, PresolveOffStillSolvesSmoothProblems) {
  SolverOptions options;
  options.presolve = false;
  auto result = Solve(SimplexProblem(4), SolverKind::kLbfgs, options)
                    .ValueOrDie();
  for (double v : result.p) EXPECT_NEAR(v, 0.25, 1e-7);
  EXPECT_EQ(result.presolve_fixed, 0u);
}

TEST(SolverTest, TightToleranceEndsConvergedNotStalled) {
  // At ‖∇D‖∞ ≤ 1e-12 the last steps change the dual value by less than
  // its rounding, so Armijo's test alone accepts noise and rejects real
  // progress alike, and the stall detector ends the solve unconverged.
  // The line search decides such steps on the directional derivative
  // instead; the solve must reach the tolerance in both kernel modes.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ1, {kS3},
                                        t.TrueConditional(kQ1, kS3)));
  kb.Add(knowledge::AbstractConditional(kQ2, {kS1, kS2}, 0.5));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = BuildProblem(system).ValueOrDie();
  SolverOptions options;
  options.tolerance = 1e-12;
  const auto saved = kernels::GetSimdMode();
  for (const auto mode : {kernels::SimdMode::kOff, kernels::SimdMode::kAuto}) {
    kernels::SetSimdMode(mode);
    auto result = Solve(problem, SolverKind::kLbfgs, options).ValueOrDie();
    EXPECT_TRUE(result.converged) << kernels::SimdModeName();
    EXPECT_LE(result.max_violation, 1e-12) << kernels::SimdModeName();
  }
  kernels::SetSimdMode(saved);
}

TEST(SolverTest, RandomFeasibleSystemsConverge) {
  // Random marginal-style systems built from a random ground truth are
  // always feasible; LBFGS must drive the violation below tolerance.
  Prng prng(99);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t rows = 3, cols = 4;
    // Ground-truth joint over a rows x cols grid.
    std::vector<double> joint(rows * cols);
    double total = 0.0;
    for (auto& v : joint) {
      v = prng.NextDouble(0.01, 1.0);
      total += v;
    }
    for (auto& v : joint) v /= total;
    ConstraintSystem system(rows * cols);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<uint32_t> vars;
      double rhs = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        vars.push_back(static_cast<uint32_t>(r * cols + c));
        rhs += joint[r * cols + c];
      }
      system.Add(Eq(vars, rhs));
    }
    for (size_t c = 0; c < cols; ++c) {
      std::vector<uint32_t> vars;
      double rhs = 0.0;
      for (size_t r = 0; r < rows; ++r) {
        vars.push_back(static_cast<uint32_t>(r * cols + c));
        rhs += joint[r * cols + c];
      }
      system.Add(Eq(vars, rhs));
    }
    auto problem = BuildProblem(system).ValueOrDie();
    auto result = Solve(problem).ValueOrDie();
    EXPECT_LT(result.max_violation, 1e-7);
    // MaxEnt with marginal constraints = independent product.
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        double row_sum = 0.0, col_sum = 0.0;
        for (size_t cc = 0; cc < cols; ++cc) row_sum += joint[r * cols + cc];
        for (size_t rr = 0; rr < rows; ++rr) col_sum += joint[rr * cols + c];
        EXPECT_NEAR(result.p[r * cols + c], row_sum * col_sum, 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace pme::maxent
