//===- ExprTest.cpp - Unit tests for IR expressions ----------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace lift;
using namespace lift::ir;

namespace {

TEST(Expr, LiteralKinds) {
  ExprPtr F = lit(2.5f);
  ExprPtr I = litInt(7);
  EXPECT_EQ(dynCast<LiteralExpr>(F)->getValue().K, ScalarKind::Float);
  EXPECT_EQ(dynCast<LiteralExpr>(I)->getValue().I, 7);
}

TEST(Expr, DynCastDispatch) {
  ExprPtr L = lit(1.0f);
  EXPECT_NE(dynCast<LiteralExpr>(L), nullptr);
  EXPECT_EQ(dynCast<CallExpr>(L), nullptr);
  EXPECT_EQ(dynCast<ParamExpr>(L), nullptr);
}

TEST(Expr, EtaLambdaExpandsUserFun) {
  LambdaPtr L = etaLambda(ufAddFloat());
  ASSERT_EQ(L->getParams().size(), 2u);
  const auto *C = dynCast<CallExpr>(L->getBody());
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getPrim(), Prim::UserFunCall);
  EXPECT_EQ(C->UF->getName(), "addF");
  // Body arguments are exactly the lambda's parameters.
  EXPECT_EQ(C->getArgs()[0].get(), L->getParams()[0].get());
  EXPECT_EQ(C->getArgs()[1].get(), L->getParams()[1].get());
}

TEST(Expr, SlideCarriesPayload) {
  ParamPtr A = param("A");
  ExprPtr E = slide(cst(3), cst(1), A);
  const auto *C = dynCast<CallExpr>(E);
  ASSERT_NE(C, nullptr);
  EXPECT_TRUE(C->Size->isCst(3));
  EXPECT_TRUE(C->Step->isCst(1));
}

TEST(Expr, ToLocalSetsAddrSpaceWithoutMutatingOriginal) {
  LambdaPtr F = etaLambda(ufIdFloat());
  LambdaPtr L = toLocal(F);
  EXPECT_EQ(F->getAddrSpace(), AddrSpace::Default);
  EXPECT_EQ(L->getAddrSpace(), AddrSpace::Local);
  // Body and params are shared; only the attribute differs.
  EXPECT_EQ(F->getBody().get(), L->getBody().get());
}

TEST(Expr, PrinterRendersListing2Shape) {
  // Paper Listing 2: map(sumNbh, slide(3, 1, pad(1, 1, clamp, A))).
  AExpr N = var("n", Range(1, 1 << 30));
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return at(0, reduce(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  ExprPtr E = map(SumNbh, slide(cst(3), cst(1),
                                pad(cst(1), cst(1), Boundary::clamp(), A)));
  std::string S = toString(E);
  EXPECT_NE(S.find("map("), std::string::npos);
  EXPECT_NE(S.find("slide(3, 1"), std::string::npos);
  EXPECT_NE(S.find("pad(1, 1, clamp"), std::string::npos);
  EXPECT_NE(S.find("reduce("), std::string::npos);
}

TEST(Expr, DeepCloneRemapsBoundParams) {
  LambdaPtr F = lam("x", [](ExprPtr X) {
    return apply(ufAddFloat(), {X, lit(1.0f)});
  });
  ParamPtr A = param("A");
  ExprPtr E = map(F, A);
  ExprPtr Clone = deepClone(E);

  const auto *OrigCall = dynCast<CallExpr>(E);
  const auto *CloneCall = dynCast<CallExpr>(Clone);
  ASSERT_NE(CloneCall, nullptr);
  // Free param A is shared; the lambda's bound param is fresh.
  EXPECT_EQ(CloneCall->getArgs()[1].get(), A.get());
  const auto *OrigLam = dynCast<LambdaExpr>(OrigCall->getArgs()[0]);
  const auto *CloneLam = dynCast<LambdaExpr>(CloneCall->getArgs()[0]);
  EXPECT_NE(OrigLam->getParams()[0].get(), CloneLam->getParams()[0].get());
  // And the cloned body references the cloned param.
  const auto *CloneBody = dynCast<CallExpr>(CloneLam->getBody());
  EXPECT_EQ(CloneBody->getArgs()[0].get(), CloneLam->getParams()[0].get());
}

TEST(Expr, CloneProgramPreservesDeclaredTypes) {
  AExpr N = var("n", Range(1, 1 << 30));
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = makeProgram({A}, map(etaLambda(ufIdFloat()), A));
  Program Q = cloneProgram(P);
  ASSERT_EQ(Q->getParams().size(), 1u);
  EXPECT_NE(Q->getParams()[0].get(), A.get());
  EXPECT_TRUE(typeEquals(Q->getParams()[0]->getDeclaredType(),
                         A->getDeclaredType()));
}

TEST(Expr, BoundaryIndexClamp) {
  using BK = Boundary::Kind;
  EXPECT_EQ(resolveBoundaryIndex(BK::Clamp, -3, 10), 0);
  EXPECT_EQ(resolveBoundaryIndex(BK::Clamp, 12, 10), 9);
  EXPECT_EQ(resolveBoundaryIndex(BK::Clamp, 5, 10), 5);
}

TEST(Expr, BoundaryIndexMirror) {
  using BK = Boundary::Kind;
  // Symmetric reflection with edge duplication.
  EXPECT_EQ(resolveBoundaryIndex(BK::Mirror, -1, 10), 0);
  EXPECT_EQ(resolveBoundaryIndex(BK::Mirror, -2, 10), 1);
  EXPECT_EQ(resolveBoundaryIndex(BK::Mirror, 10, 10), 9);
  EXPECT_EQ(resolveBoundaryIndex(BK::Mirror, 11, 10), 8);
  EXPECT_EQ(resolveBoundaryIndex(BK::Mirror, 4, 10), 4);
}

TEST(Expr, BoundaryIndexWrap) {
  using BK = Boundary::Kind;
  EXPECT_EQ(resolveBoundaryIndex(BK::Wrap, -1, 10), 9);
  EXPECT_EQ(resolveBoundaryIndex(BK::Wrap, 10, 10), 0);
  EXPECT_EQ(resolveBoundaryIndex(BK::Wrap, 13, 10), 3);
  EXPECT_EQ(resolveBoundaryIndex(BK::Wrap, 7, 10), 7);
}

TEST(Expr, PrimNames) {
  // One expectation per primitive table row, in Prim order.
  struct Row {
    const char *Name;
    bool Map, Reduce, Layout;
  };
  const Row Rows[] = {
      {"userFun", false, false, false},
      {"map", true, false, false},
      {"reduce", false, true, false},
      {"iterate", false, false, false},
      {"zip", false, false, true},
      {"split", false, false, true},
      {"join", false, false, true},
      {"transpose", false, false, true},
      {"at", false, false, true},
      {"get", false, false, true},
      {"generate", false, false, true},
      {"sizeVal", false, false, false},
      {"slide", false, false, true},
      {"pad", false, false, true},
      {"slideClamp", false, false, true},
      {"joinClamp", false, false, true},
      {"mapGlb", true, false, false},
      {"mapWrg", true, false, false},
      {"mapLcl", true, false, false},
      {"mapSeq", true, false, false},
      {"reduceSeq", false, true, false},
      {"reduceSeqUnroll", false, true, false},
  };
  ASSERT_EQ(std::size(Rows), NumPrims);
  for (std::size_t I = 0; I != NumPrims; ++I) {
    Prim P = Prim(I);
    EXPECT_STREQ(primName(P), Rows[I].Name);
    EXPECT_EQ(isMapPrim(P), Rows[I].Map) << Rows[I].Name;
    EXPECT_EQ(isReducePrim(P), Rows[I].Reduce) << Rows[I].Name;
    EXPECT_EQ(isLayoutPrim(P), Rows[I].Layout) << Rows[I].Name;
  }
}

TEST(Expr, ConstantPadPrintsItsValue) {
  // Two programs differing only in the pad constant print differently.
  ParamPtr A = param("A");
  EXPECT_EQ(toString(pad(cst(1), cst(1), Boundary::constant(0.0f), A)),
            "pad(1, 1, constant(0), A)");
  EXPECT_EQ(toString(pad(cst(1), cst(1), Boundary::constant(1.5f), A)),
            "pad(1, 1, constant(1.5), A)");
  EXPECT_EQ(toString(Boundary::clamp()), "clamp");
  EXPECT_EQ(toString(Boundary::mirror()), "mirror");
  EXPECT_EQ(toString(Boundary::wrap()), "wrap");
}

} // namespace
