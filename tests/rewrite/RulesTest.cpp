//===- RulesTest.cpp - Semantic preservation of rewrite rules ------------===//
//
// Part of the liftcpp project.
//
// Every rewrite rule is property-tested: interpret the program before
// and after rewriting on concrete inputs and require identical results
// (the rules are "provably correct" in the paper; here they are
// machine-checked on samples).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/TypeInference.h"
#include "rewrite/Rules.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ir;
using namespace lift::interp;
using namespace lift::rewrite;
using namespace lift::stencil;

namespace {

AExpr sizeVar(const char *Name) { return var(Name, Range(1, 1 << 30)); }

std::vector<float> iota(std::size_t N) {
  std::vector<float> V(N);
  for (std::size_t I = 0; I != N; ++I)
    V[I] = float((I * 7 + 3) % 23);
  return V;
}

/// Asserts that rewriting with \p R preserves the program's semantics
/// on the given input, and that the rule matched at least once.
void expectRulePreserves(const Rule &R, const Program &P,
                         const std::vector<Value> &Inputs,
                         const SizeEnv &Sizes) {
  Program Rewritten = rewriteProgram(R, P);
  ASSERT_NE(Rewritten, nullptr) << "rule " << R.Name << " did not match";

  Value Before = evalProgram(P, Inputs, Sizes);
  Value After = evalProgram(Rewritten, Inputs, Sizes);
  std::vector<float> FlatBefore, FlatAfter;
  flattenValue(Before, FlatBefore);
  flattenValue(After, FlatAfter);
  ASSERT_EQ(FlatBefore.size(), FlatAfter.size());
  for (std::size_t I = 0; I != FlatBefore.size(); ++I)
    EXPECT_FLOAT_EQ(FlatBefore[I], FlatAfter[I]) << R.Name << " at " << I;
}

LambdaPtr sumNbh() {
  return lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduce(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
}

Program jacobi1DProgram(ParamPtr A) {
  return makeProgram(
      {A}, map(sumNbh(), slide(cst(3), cst(1),
                               pad(cst(1), cst(1), Boundary::clamp(), A))));
}

TEST(Rules, MapFusionPreservesSemantics) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr AddOne = lam("x", [](ExprPtr X) {
    return apply(ufAddFloat(), {X, lit(1.0f)});
  });
  LambdaPtr Double = lam("x", [](ExprPtr X) {
    return apply(ufMultFloat(), {X, lit(2.0f)});
  });
  Program P = makeProgram({A}, map(AddOne, map(Double, A)));
  std::vector<float> In = iota(10);
  expectRulePreserves(mapFusionRule(), P, {makeFloatArray(In)},
                      {{N->getVarId(), 10}});
}

TEST(Rules, MapFusionEliminatesInnerMap) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr Id = etaLambda(ufIdFloat());
  Program P = makeProgram({A}, map(Id, map(etaLambda(ufIdFloat()), A)));
  Program Q = rewriteProgram(mapFusionRule(), P);
  ASSERT_NE(Q, nullptr);
  // After fusion there is exactly one map.
  Rule CountMaps{"count", [](const ExprPtr &E) -> ExprPtr {
                   const auto *C = dynCast<CallExpr>(E);
                   return (C && C->getPrim() == Prim::Map) ? E : nullptr;
                 }};
  EXPECT_EQ(applyEach(CountMaps, Q->getBody()).size(), 1u);
}

TEST(Rules, SplitJoinPreservesSemantics) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr AddOne = lam("x", [](ExprPtr X) {
    return apply(ufAddFloat(), {X, lit(1.0f)});
  });
  Program P = makeProgram({A}, map(AddOne, A));
  std::vector<float> In = iota(12);
  expectRulePreserves(splitJoinRule(cst(4)), P, {makeFloatArray(In)},
                      {{N->getVarId(), 12}});
}

TEST(Rules, Tiling1DPreservesSemantics) {
  // The paper's central rule (§4.1), checked on several tile sizes and
  // input lengths.
  AExpr N = sizeVar("n");
  for (std::int64_t TileOut : {2, 4, 8}) {
    for (std::size_t Len : {16u, 32u}) {
      ParamPtr A = param("A", arrayT(floatT(), N));
      Program P = jacobi1DProgram(A);
      std::vector<float> In = iota(Len);
      expectRulePreserves(tiling1DRule(TileOut), P, {makeFloatArray(In)},
                          {{N->getVarId(), std::int64_t(Len)}});
    }
  }
}

TEST(Rules, Tiling1DProducesListing4Shape) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1DProgram(A);
  Program Q = rewriteProgram(tiling1DRule(3), P);
  ASSERT_NE(Q, nullptr);
  std::string S = ir::toString(Q->getBody());
  // join(map(tile => map(f, slide(3,1,tile)), slide(5, 3, pad(...))))
  EXPECT_EQ(S.find("join("), 0u) << S;
  EXPECT_NE(S.find("slide(5, 3"), std::string::npos) << S;
  EXPECT_NE(S.find("slide(3, 1"), std::string::npos) << S;
}

TEST(Rules, TilingConstraintHoldsForAnyWindow) {
  // The rule also covers strided windows: slide(5, 2). Besides the
  // paper's u - v == size - step constraint, validity requires the tile
  // step v to be a multiple of the window step so windows inside tiles
  // line up with the untiled window grid: v = 4, u = 4 + 3 = 7.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = makeProgram(
      {A}, map(sumNbh(), slide(cst(5), cst(2),
                               pad(cst(2), cst(2), Boundary::clamp(), A))));
  // padded length 20: 8 windows; 4 tiles x 2 windows each.
  std::vector<float> In = iota(16);
  expectRulePreserves(tiling1DRule(4), P, {makeFloatArray(In)},
                      {{N->getVarId(), 16}});
}

TEST(Rules, ReduceToSeqPreservesSemantics) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1DProgram(A);
  std::vector<float> In = iota(8);
  expectRulePreserves(reduceToSeqRule(), P, {makeFloatArray(In)},
                      {{N->getVarId(), 8}});
}

TEST(Rules, ReduceUnrollRequiresConstantLength) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  // Over a neighborhood (constant size 3): applies.
  Program P = makeProgram(
      {A}, map(lam("nbh",
                   [](ExprPtr Nbh) {
                     return theOne(reduceSeq(etaLambda(ufAddFloat()),
                                             lit(0.0f), Nbh));
                   }),
               slide(cst(3), cst(1),
                     pad(cst(1), cst(1), Boundary::clamp(), A))));
  inferTypes(P);
  Program Q = rewriteProgram(reduceUnrollRule(), P);
  EXPECT_NE(Q, nullptr);

  // Over the whole (symbolic-length) array: must not apply.
  ParamPtr B = param("B", arrayT(floatT(), N));
  Program P2 = makeProgram(
      {B}, reduceSeq(etaLambda(ufAddFloat()), lit(0.0f), B));
  inferTypes(P2);
  EXPECT_EQ(rewriteProgram(reduceUnrollRule(), P2), nullptr);
}

TEST(Rules, ToLocalMarksIdCopies) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = makeProgram({A}, mapLcl(0, etaLambda(ufIdFloat()), A));
  Program Q = rewriteProgram(toLocalRule(), P);
  ASSERT_NE(Q, nullptr);
  const auto *C = dynCast<CallExpr>(Q->getBody());
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(dynCast<LambdaExpr>(C->getArgs()[0])->getAddrSpace(),
            AddrSpace::Local);
  // Idempotent: it must not match again (address space now Local).
  EXPECT_EQ(rewriteProgram(toLocalRule(), Q), nullptr);
}

TEST(Rules, IterateExpandPreservesSemantics) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr Step = lam("xs", [](ExprPtr Xs) {
    return map(lam("x",
                   [](ExprPtr X) {
                     return apply(ufMultFloat(), {X, lit(2.0f)});
                   }),
               Xs);
  });
  Program P = makeProgram({A}, iterate(3, Step, A));
  std::vector<float> In = iota(6);
  expectRulePreserves(iterateExpandRule(), P, {makeFloatArray(In)},
                      {{N->getVarId(), 6}});
}

//===----------------------------------------------------------------------===//
// Matchers
//===----------------------------------------------------------------------===//

TEST(Matchers, MatchSlideNdRecognizesBuilders) {
  AExpr N = sizeVar("n");
  for (unsigned Dims : {1u, 2u, 3u}) {
    TypePtr Ty = floatT();
    for (unsigned D = 0; D != Dims; ++D)
      Ty = arrayT(Ty, N);
    ParamPtr A = param("A", Ty);
    ExprPtr E = slideNd(Dims, cst(3), cst(1), A);
    std::optional<SlideNdMatch> M = matchSlideNd(E);
    ASSERT_TRUE(M.has_value()) << "dims " << Dims;
    EXPECT_EQ(M->Dims, Dims);
    EXPECT_TRUE(M->Size->isCst(3));
    EXPECT_TRUE(M->Step->isCst(1));
    EXPECT_EQ(M->Inner.get(), A.get());
  }
}

TEST(Matchers, MatchSlideNdSeesThroughToPad) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(arrayT(floatT(), N), N));
  ExprPtr Padded = padNd(2, cst(1), cst(1), Boundary::clamp(), A);
  ExprPtr E = slideNd(2, cst(3), cst(1), Padded);
  std::optional<SlideNdMatch> M = matchSlideNd(E);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Inner.get(), Padded.get());
}

TEST(Matchers, MatchMapNdRecognizesBuilders) {
  AExpr N = sizeVar("n");
  for (unsigned Dims : {1u, 2u, 3u}) {
    TypePtr Ty = floatT();
    for (unsigned D = 0; D != Dims; ++D)
      Ty = arrayT(Ty, N);
    ParamPtr A = param("A", Ty);
    LambdaPtr F = lam("x", [](ExprPtr X) {
      return apply(ufAddFloat(), {X, lit(1.0f)});
    });
    ExprPtr E = mapNd(Dims, F, A);
    std::optional<MapNdMatch> M = matchMapNd(E);
    ASSERT_TRUE(M.has_value());
    EXPECT_EQ(M->Dims, Dims);
    EXPECT_EQ(M->F.get(), F.get());
    EXPECT_EQ(M->Input.get(), A.get());
  }
}

TEST(Matchers, IsLayoutOnly) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  EXPECT_TRUE(isLayoutOnly(slide(cst(3), cst(1), A)));
  EXPECT_TRUE(isLayoutOnly(pad(cst(1), cst(1), Boundary::clamp(), A)));
  EXPECT_TRUE(isLayoutOnly(slideNd(2, cst(3), cst(1),
                                   param("B", arrayT(arrayT(floatT(), N), N)))));
  EXPECT_FALSE(isLayoutOnly(map(etaLambda(ufIdFloat()), A)));
  EXPECT_FALSE(
      isLayoutOnly(reduce(etaLambda(ufAddFloat()), lit(0.0f), A)));
}

} // namespace
