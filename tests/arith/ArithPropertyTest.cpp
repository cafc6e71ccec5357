//===- ArithPropertyTest.cpp - Randomized simplifier properties -----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the interned ArithExpr simplifier: random
// expression trees are built both as a plain, unsimplified shadow tree
// and through the simplifying/interning factories, then compared under
// random variable assignments. Seeded RandomSource keeps every run
// reproducible.
//
//===----------------------------------------------------------------------===//

#include "arith/ArithExpr.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

using namespace lift;

namespace {

//===----------------------------------------------------------------------===//
// Shadow trees: the unsimplified reference semantics
//===----------------------------------------------------------------------===//

/// A plain expression tree mirroring the factory calls, evaluated
/// directly so simplification bugs cannot cancel out.
struct Shadow {
  enum Op { Cst, Var, Add, Sub, Mul, Div, Mod, Min, Max };
  Op K;
  std::int64_t C = 0;        // Cst payload
  std::size_t VarIdx = 0;    // Var payload: index into the variable pool
  std::unique_ptr<Shadow> L, R;
};

std::int64_t evalShadow(const Shadow &S, const std::vector<std::int64_t> &Vals) {
  switch (S.K) {
  case Shadow::Cst:
    return S.C;
  case Shadow::Var:
    return Vals[S.VarIdx];
  case Shadow::Add:
    return evalShadow(*S.L, Vals) + evalShadow(*S.R, Vals);
  case Shadow::Sub:
    return evalShadow(*S.L, Vals) - evalShadow(*S.R, Vals);
  case Shadow::Mul:
    return evalShadow(*S.L, Vals) * evalShadow(*S.R, Vals);
  case Shadow::Div:
    return floorDivInt(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Mod:
    return floorModInt(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Min:
    return std::min(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Max:
    return std::max(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  }
  unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Random generation
//===----------------------------------------------------------------------===//

/// A pool of variables shared by every generated tree so random trees
/// can have common subexpressions (exercising the intern table).
struct VarPool {
  std::vector<AExpr> Vars;

  explicit VarPool(std::size_t N) {
    // Strictly positive ranges so any variable may appear in a divisor.
    for (std::size_t I = 0; I != N; ++I)
      Vars.push_back(var("v" + std::to_string(I), Range(1, 6)));
  }

  std::vector<std::int64_t> randomAssignment(RandomSource &Rng) const {
    std::vector<std::int64_t> Vals;
    for (const AExpr &V : Vars)
      Vals.push_back(Rng.nextInt(*V->getVarRange().Min, *V->getVarRange().Max));
    return Vals;
  }
};

/// Result of one random build: the shadow tree and the factory-built,
/// simplified and interned equivalent.
struct BuiltExpr {
  std::unique_ptr<Shadow> Ref;
  AExpr E;
};

/// Trees whose nodes may exceed this magnitude are regenerated, so no
/// evaluation overflows int64 while a large constant times a few
/// variables still folds and range-analyses near the 2^31 scale.
constexpr std::int64_t MaxNodeMagnitude = std::int64_t(1) << 46;

std::unique_ptr<Shadow> randomLeaf(RandomSource &Rng, const VarPool &Pool,
                                   bool Positive) {
  auto S = std::make_unique<Shadow>();
  if ((!Positive && Rng.nextInt(0, 2) == 0) ||
      (Positive && Rng.nextInt(0, 1) == 0)) {
    S->K = Shadow::Cst;
    // One constant in eight is large, so constant folding and interval
    // arithmetic see magnitudes far beyond the small-index range.
    if (Rng.nextInt(0, 7) == 0)
      S->C = Rng.nextInt(std::int64_t(1) << 20, std::int64_t(1) << 31) *
             (Positive || Rng.nextInt(0, 1) ? 1 : -1);
    else
      S->C = Rng.nextInt(Positive ? 1 : -4, 4);
    return S;
  }
  S->K = Shadow::Var;
  S->VarIdx = std::size_t(Rng.nextInt(0, std::int64_t(Pool.Vars.size()) - 1));
  return S;
}

/// Builds a random shadow tree of the given depth. \p Positive requests
/// a subtree whose value is guaranteed strictly positive (needed for
/// divisors), which restricts it to positive leaves and Add/Mul/Min/Max
/// combinations of positive subtrees.
std::unique_ptr<Shadow> randomShadow(RandomSource &Rng, const VarPool &Pool,
                                     int Depth, bool Positive) {
  if (Depth == 0)
    return randomLeaf(Rng, Pool, Positive);
  auto S = std::make_unique<Shadow>();
  if (Positive) {
    static const Shadow::Op PosOps[] = {Shadow::Add, Shadow::Mul, Shadow::Min,
                                        Shadow::Max};
    S->K = PosOps[Rng.nextInt(0, 3)];
  } else {
    static const Shadow::Op Ops[] = {Shadow::Add, Shadow::Sub, Shadow::Mul,
                                     Shadow::Div, Shadow::Mod, Shadow::Min,
                                     Shadow::Max};
    S->K = Ops[Rng.nextInt(0, 6)];
  }
  bool RightPositive = Positive || S->K == Shadow::Div || S->K == Shadow::Mod;
  S->L = randomShadow(Rng, Pool, Depth - 1, Positive);
  S->R = randomShadow(Rng, Pool, Depth - 1, RightPositive);
  return S;
}

/// A bound on |value| of \p S over every assignment from \p Pool,
/// saturating at INT64_MAX; \p Worst collects the largest bound of any
/// node, since a huge subtree can hide under a small parent (x * 0).
std::int64_t magnitudeBound(const Shadow &S, const VarPool &Pool,
                            std::int64_t &Worst) {
  constexpr std::int64_t Sat = std::numeric_limits<std::int64_t>::max();
  std::int64_t B = 0;
  if (S.K == Shadow::Cst) {
    B = S.C < 0 ? -S.C : S.C;
  } else if (S.K == Shadow::Var) {
    B = *Pool.Vars[S.VarIdx]->getVarRange().Max;
  } else {
    std::int64_t L = magnitudeBound(*S.L, Pool, Worst);
    std::int64_t R = magnitudeBound(*S.R, Pool, Worst);
    switch (S.K) {
    case Shadow::Add:
    case Shadow::Sub:
      B = __builtin_add_overflow(L, R, &B) ? Sat : B;
      break;
    case Shadow::Mul:
      B = __builtin_mul_overflow(L, R, &B) ? Sat : B;
      break;
    case Shadow::Div: // floor division by a divisor >= 1
      B = L;
      break;
    case Shadow::Mod: // floor modulo by a positive divisor lies in [0, R)
      B = R;
      break;
    default: // Min, Max
      B = std::max(L, R);
      break;
    }
  }
  Worst = std::max(Worst, B);
  return B;
}

AExpr buildExpr(const Shadow &S, const VarPool &Pool) {
  switch (S.K) {
  case Shadow::Cst: return cst(S.C);
  case Shadow::Var: return Pool.Vars[S.VarIdx];
  case Shadow::Add: return add(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Sub: return sub(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Mul: return mul(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Div:
    return floorDiv(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Mod:
    return floorMod(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Min: return amin(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  case Shadow::Max: return amax(buildExpr(*S.L, Pool), buildExpr(*S.R, Pool));
  }
  unreachable("covered switch");
}

/// A random tree of the given depth whose every node stays within
/// MaxNodeMagnitude, built both as a shadow and through the factories.
BuiltExpr randomTree(RandomSource &Rng, const VarPool &Pool, int Depth) {
  for (;;) {
    std::unique_ptr<Shadow> Ref = randomShadow(Rng, Pool, Depth, false);
    std::int64_t Worst = 0;
    magnitudeBound(*Ref, Pool, Worst);
    if (Worst > MaxNodeMagnitude)
      continue;
    AExpr E = buildExpr(*Ref, Pool);
    return {std::move(Ref), std::move(E)};
  }
}

std::unordered_map<unsigned, std::int64_t>
makeEnv(const VarPool &Pool, const std::vector<std::int64_t> &Vals) {
  std::unordered_map<unsigned, std::int64_t> Env;
  for (std::size_t I = 0; I != Pool.Vars.size(); ++I)
    Env[Pool.Vars[I]->getVarId()] = Vals[I];
  return Env;
}

//===----------------------------------------------------------------------===//
// Properties
//===----------------------------------------------------------------------===//

TEST(ArithProperty, SimplifiedFormAgreesWithDirectEvaluation) {
  RandomSource Rng(0x5eed0001);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 300; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, Rng.nextInt(1, 4) == 4 ? 4 : 3);
    for (int Assign = 0; Assign != 5; ++Assign) {
      std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
      std::int64_t Want = evalShadow(*B.Ref, Vals);
      std::unordered_map<unsigned, std::int64_t> Env = makeEnv(Pool, Vals);
      std::int64_t Got = B.E->evaluate(Env);
      ASSERT_EQ(Got, Want) << "simplified " << B.E->toString()
                           << " disagrees with the unsimplified tree";
      ASSERT_EQ(B.E->tryEvaluate(Env), Got) << B.E->toString();
    }
  }
}

TEST(ArithProperty, StructuralEqualityCoincidesWithPointerEquality) {
  // Within one arena generation, exprEquals(A, B) must hold exactly
  // when A and B are the same interned node — in both directions.
  RandomSource Rng(0x5eed0002);
  VarPool Pool(2);
  std::vector<AExpr> Exprs;
  for (int Trial = 0; Trial != 120; ++Trial)
    Exprs.push_back(randomTree(Rng, Pool, 3).E);
  for (const AExpr &A : Exprs)
    for (const AExpr &B : Exprs) {
      ASSERT_EQ(exprEquals(A, B), A.get() == B.get())
          << A->toString() << " vs " << B->toString();
      if (A.get() == B.get()) {
        ASSERT_EQ(A->hash(), B->hash());
      }
    }
}

TEST(ArithProperty, CompareExprsConsistentWithInterning) {
  // compareExprs is the total order behind canonicalization; its zero
  // class must be exactly the interned-pointer class.
  RandomSource Rng(0x5eed0003);
  VarPool Pool(2);
  std::vector<AExpr> Exprs;
  for (int Trial = 0; Trial != 60; ++Trial)
    Exprs.push_back(randomTree(Rng, Pool, 2).E);
  for (const AExpr &A : Exprs)
    for (const AExpr &B : Exprs)
      ASSERT_EQ(compareExprs(A, B) == 0, A.get() == B.get());
}

TEST(ArithProperty, SubstitutionAgreesWithEvaluation) {
  // Substituting every variable by a constant must fold the expression
  // to the literal the evaluator produces.
  RandomSource Rng(0x5eed0004);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 150; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, 3);
    std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
    std::unordered_map<unsigned, AExpr> Subst;
    for (std::size_t I = 0; I != Pool.Vars.size(); ++I)
      Subst[Pool.Vars[I]->getVarId()] = cst(Vals[I]);
    AExpr Folded = substitute(B.E, Subst);
    ASSERT_TRUE(Folded->isCst(B.E->evaluate(makeEnv(Pool, Vals))))
        << B.E->toString() << " substituted to " << Folded->toString();
  }
}

TEST(ArithProperty, RangeAnalysisBoundsActualValues) {
  // The memoized interval analysis must be conservative: every concrete
  // evaluation lies inside the computed range.
  RandomSource Rng(0x5eed0005);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 150; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, 3);
    Range R = B.E->getRange();
    for (int Assign = 0; Assign != 4; ++Assign) {
      std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
      std::int64_t V = B.E->evaluate(makeEnv(Pool, Vals));
      if (R.Min) {
        ASSERT_LE(*R.Min, V) << B.E->toString();
      }
      if (R.Max) {
        ASSERT_GE(*R.Max, V) << B.E->toString();
      }
    }
  }
}

} // namespace
