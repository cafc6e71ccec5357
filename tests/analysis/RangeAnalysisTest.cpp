//===- RangeAnalysisTest.cpp - Symbolic range analysis tests --------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"

#include "codegen/CodeGen.h"
#include "ir/TypeInference.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "support/Support.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Soundness property: for randomly generated expressions (the fuzz
// generator vocabulary: constants, ranged variables, +, -, *, floor
// div/mod, min, max) and randomly sampled assignments consistent with
// the facts, the symbolic bounds must bracket the concrete value and
// fact-driven simplification must preserve it exactly.
//===----------------------------------------------------------------------===//

struct RandomWorld {
  // Size-like vars (declared positive) and index-like vars (unbounded
  // declared range, refined only through Facts).
  std::vector<AExpr> SizeVars;
  std::vector<AExpr> IdxVars;
  Facts F;
  // Refinements actually imposed, for consistent sampling:
  // idx var -> (constant lo, symbolic hi). Hi may mention size vars.
  std::vector<std::pair<AExpr, AExpr>> IdxBounds; // parallel to IdxVars
};

RandomWorld makeWorld(RandomSource &R) {
  RandomWorld W;
  for (int I = 0; I != 2; ++I)
    W.SizeVars.push_back(var("n" + std::to_string(I), Range(1, 1 << 30)));
  for (int I = 0; I != 2; ++I) {
    AExpr V = var("i" + std::to_string(I));
    AExpr Lo = cst(R.nextInt(0, 2));
    AExpr Hi;
    if (R.nextBool()) {
      // Symbolic bound: i <= n - k.
      const AExpr &N = W.SizeVars[std::size_t(R.nextInt(0, 1))];
      Hi = sub(N, cst(R.nextInt(0, 2)));
    } else {
      Hi = cst(R.nextInt(3, 9));
    }
    W.F = W.F.withBound(V->getVarId(), Lo, Hi);
    W.IdxVars.push_back(V);
    W.IdxBounds.emplace_back(Lo, Hi);
  }
  return W;
}

AExpr randomExpr(RandomSource &R, const RandomWorld &W, int Depth) {
  if (Depth == 0 || R.nextBool(0.35)) {
    switch (R.nextInt(0, 3)) {
    case 0:
      return cst(R.nextInt(-4, 4));
    case 1:
      return W.SizeVars[std::size_t(R.nextInt(0, 1))];
    default:
      return W.IdxVars[std::size_t(R.nextInt(0, 1))];
    }
  }
  AExpr A = randomExpr(R, W, Depth - 1);
  AExpr B = randomExpr(R, W, Depth - 1);
  switch (R.nextInt(0, 6)) {
  case 0:
    return add(A, B);
  case 1:
    return sub(A, B);
  case 2:
    return mul(A, cst(R.nextInt(-3, 3))); // keep growth bounded
  case 3:
    return floorDiv(A, cst(R.nextInt(1, 4)));
  case 4:
    return floorMod(A, cst(R.nextInt(1, 5)));
  case 5:
    return amin(A, B);
  default:
    return amax(A, B);
  }
}

/// Samples an assignment consistent with the world's facts; nullopt
/// when the sampled refinement interval is empty.
std::optional<std::unordered_map<unsigned, std::int64_t>>
sampleEnv(RandomSource &R, const RandomWorld &W) {
  std::unordered_map<unsigned, std::int64_t> Env;
  for (const AExpr &N : W.SizeVars)
    Env[N->getVarId()] = R.nextInt(1, 8);
  for (std::size_t I = 0; I != W.IdxVars.size(); ++I) {
    auto Lo = W.IdxBounds[I].first->tryEvaluate(Env);
    auto Hi = W.IdxBounds[I].second->tryEvaluate(Env);
    if (!Lo || !Hi || *Lo > *Hi)
      return std::nullopt;
    Env[W.IdxVars[I]->getVarId()] = R.nextInt(*Lo, *Hi);
  }
  return Env;
}

TEST(RangeAnalysis, BoundsAndSimplifyAreSoundOnRandomExprs) {
  RandomSource R(20260808);
  unsigned Checked = 0;
  for (int Iter = 0; Iter != 400; ++Iter) {
    RandomWorld W = makeWorld(R);
    AExpr E = randomExpr(R, W, 4);
    AExpr LB = lowerBound(E, W.F);
    AExpr UB = upperBound(E, W.F);
    AExpr S = simplifyWithFacts(E, W.F);
    for (int Sample = 0; Sample != 20; ++Sample) {
      auto Env = sampleEnv(R, W);
      if (!Env)
        continue;
      auto VE = E->tryEvaluate(*Env);
      auto VL = LB->tryEvaluate(*Env);
      auto VU = UB->tryEvaluate(*Env);
      auto VS = S->tryEvaluate(*Env);
      ASSERT_TRUE(VE && VL && VU && VS) << E->toString();
      EXPECT_LE(*VL, *VE) << "lower bound " << LB->toString()
                          << " exceeds " << E->toString();
      EXPECT_GE(*VU, *VE) << "upper bound " << UB->toString()
                          << " below " << E->toString();
      EXPECT_EQ(*VS, *VE) << "simplification changed " << E->toString()
                          << " into " << S->toString();
      ++Checked;
    }
  }
  // The sampler must not have starved the property.
  EXPECT_GT(Checked, 2000u);
}

//===----------------------------------------------------------------------===//
// Boundary-arithmetic elimination: the exact clamp / mirror / wrap
// formulas the view system emits must collapse under interior facts.
//===----------------------------------------------------------------------===//

struct InteriorFixture {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr V = var("i");          // interior loop var
  AExpr J = var("j");          // window offset
  Facts F;

  InteriorFixture() {
    // i in [1, n-2] (interior for halo 1), j in [0, 2], shifted by -1.
    F = F.withBound(V->getVarId(), cst(1), sub(N, cst(2)))
            .withBound(J->getVarId(), cst(0), cst(2));
  }

  AExpr shifted() const { return sub(add(V, J), cst(1)); } // in [0, n-1]
};

TEST(RangeAnalysis, ClampEliminatedOnInterior) {
  InteriorFixture X;
  AExpr Clamped = clampIndex(X.shifted(), X.N);
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Clamped, X.F), X.shifted()))
      << simplifyWithFacts(Clamped, X.F)->toString();
}

TEST(RangeAnalysis, MirrorEliminatedOnInterior) {
  InteriorFixture X;
  // The view system's mirror: J = I mod 2n; index = min(J, 2n - 1 - J).
  AExpr TwoN = mul(cst(2), X.N);
  AExpr J = floorMod(X.shifted(), TwoN);
  AExpr Mirror = amin(J, sub(sub(TwoN, cst(1)), J));
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Mirror, X.F), X.shifted()))
      << simplifyWithFacts(Mirror, X.F)->toString();
}

TEST(RangeAnalysis, WrapEliminatedOnInterior) {
  InteriorFixture X;
  AExpr Wrap = floorMod(X.shifted(), X.N);
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Wrap, X.F), X.shifted()));
}

TEST(RangeAnalysis, FlatRowMajorIndexProvablyInBounds) {
  // The 2D store/load pattern: i0 * n1 + i1 with i0 < n0, i1 < n1 must
  // be provably within [0, n0 * n1) purely by cancellation — neither
  // size is numerically bounded.
  AExpr N0 = var("n0", Range(1, 1 << 30));
  AExpr N1 = var("n1", Range(1, 1 << 30));
  AExpr I0 = var("i0");
  AExpr I1 = var("i1");
  Facts F = Facts()
                .withLoopVar(I0, N0)
                .withLoopVar(I1, N1);
  AExpr Flat = add(mul(I0, N1), I1);
  EXPECT_TRUE(provablyInBounds(Flat, cst(0), mul(N0, N1), F));
  // And one past the end is not provable.
  EXPECT_FALSE(provablyInBounds(add(Flat, cst(1)), cst(0), mul(N0, N1), F));
}

TEST(RangeAnalysis, CheckFactSolvesForInnermostVar) {
  // Learning 0 <= i + j - 1 < n while j in [0, 2] must bound the
  // *later-created* variable (j here) and make j + i - 1 in bounds.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i");
  AExpr J = var("j");
  AExpr Shifted = sub(add(I, J), cst(1));
  Facts F = Facts().withCheckFact(Shifted, cst(0), N);
  EXPECT_TRUE(provablyInBounds(Shifted, cst(0), N, F));
}

TEST(RangeAnalysis, JoinKeepsOnlyCommonFacts) {
  AExpr I = var("i");
  Facts A = Facts().withBound(I->getVarId(), cst(0), cst(4));
  Facts B = Facts().withBound(I->getVarId(), cst(2), cst(9));
  Facts J = A.join(B);
  // i <= 9 and i >= 0 hold on the join; the tighter per-side bounds
  // must not survive.
  EXPECT_TRUE(provablyLE(I, cst(9), J));
  EXPECT_TRUE(provablyLE(cst(0), I, J));
  EXPECT_FALSE(provablyLE(I, cst(4), J));
  EXPECT_FALSE(provablyLE(cst(2), I, J));
}

TEST(RangeAnalysis, TryEvaluateFloorSemanticsAndUnbound) {
  AExpr V = var("x");
  std::unordered_map<unsigned, std::int64_t> Env{{V->getVarId(), -7}};
  EXPECT_EQ(floorDiv(V, cst(2))->tryEvaluate(Env), -4);
  EXPECT_EQ(floorMod(V, cst(2))->tryEvaluate(Env), 1);
  AExpr Other = var("y");
  EXPECT_FALSE(add(V, Other)->tryEvaluate(Env).has_value());
  // A zero divisor is not an error either, just no value.
  Env[Other->getVarId()] = 0;
  EXPECT_FALSE(floorDiv(V, Other)->tryEvaluate(Env).has_value());
  EXPECT_FALSE(floorMod(V, Other)->tryEvaluate(Env).has_value());
}

//===----------------------------------------------------------------------===//
// Split-divisibility refutation
//===----------------------------------------------------------------------===//

TEST(RangeAnalysis, RefutesSplitOnIndivisibleConcreteSize) {
  AExpr N = var("n", Range(1, 1 << 30));
  ir::ParamPtr A = ir::param("A", ir::arrayT(ir::floatT(), N));
  ir::Program P = ir::makeProgram({A}, ir::join(ir::split(cst(4), A)));
  ASSERT_NE(ir::inferTypes(P), nullptr);

  std::unordered_map<unsigned, std::int64_t> Env{{N->getVarId(), 10}};
  auto Why = refuteSplitDivisibility(P, Env);
  ASSERT_TRUE(Why.has_value());
  EXPECT_NE(Why->find("split(4)"), std::string::npos) << *Why;

  Env[N->getVarId()] = 12;
  EXPECT_FALSE(refuteSplitDivisibility(P, Env).has_value());

  // Unbound size: nothing concrete to refute against.
  EXPECT_FALSE(refuteSplitDivisibility(P, {}).has_value());
}

//===----------------------------------------------------------------------===//
// Static kernel bounds checking
//===----------------------------------------------------------------------===//

TEST(RangeAnalysis, AllBenchmarkKernelsCheckClean) {
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::BenchmarkInstance I = B.Build();
    std::string Why;
    ir::Program Low = rewrite::lowerStencil(I.P, rewrite::LoweringOptions(),
                                            &Why);
    ASSERT_NE(Low, nullptr) << B.Name << ": " << Why;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    auto V = checkKernelBounds(C.K);
    EXPECT_TRUE(V.empty()) << B.Name << ":\n" << describeViolations(V);
  }
}

TEST(RangeAnalysis, CatchesOutOfBoundsStore) {
  // A hand-built kernel storing one past the end must be flagged.
  AExpr N = var("n", Range(1, 1 << 30));
  ocl::Kernel K;
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float,
                       ocl::MemSpace::Global, N, false, true});
  AExpr V = var("i");
  K.Body.push_back(ocl::sLoop(
      ocl::LoopKind::Glb, 0, V, N,
      {ocl::sStore(0, add(V, cst(1)), ocl::kConst(ir::Scalar(1.0f)))}));
  auto Viol = checkKernelBounds(K);
  ASSERT_EQ(Viol.size(), 1u);
  EXPECT_TRUE(Viol[0].IsStore);
  EXPECT_EQ(Viol[0].BufferName, "out");
  EXPECT_FALSE(describeViolations(Viol).empty());

  // The in-bounds version of the same kernel is clean.
  ocl::Kernel OK = K;
  OK.Body.clear();
  OK.Body.push_back(ocl::sLoop(
      ocl::LoopKind::Glb, 0, V, N,
      {ocl::sStore(0, V, ocl::kConst(ir::Scalar(1.0f)))}));
  EXPECT_TRUE(checkKernelBounds(OK).empty());
}

} // namespace
