//===- StructuralHashTest.cpp - Structural hash/equality tests ------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ir/StructuralHash.h"

#include "ir/TypeInference.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

#include <functional>
#include <unordered_set>
#include <vector>

using namespace lift;
using namespace lift::ir;
using namespace lift::stencil;

namespace {

AExpr sizeVar(const char *Name) { return var(Name, Range(1, 1 << 30)); }

Program jacobi1D(ParamPtr A) {
  LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
    return theOne(reduce(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
  });
  return makeProgram(
      {A}, map(SumNbh, slide(cst(3), cst(1),
                             pad(cst(1), cst(1), Boundary::clamp(), A))));
}

TEST(StructuralHash, CloneIsEqualWithEqualHash) {
  // cloneProgram freshens every bound parameter, so equality and hash
  // must be alpha-invariant to identify clone and original.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);
  Program Q = cloneProgram(P);
  ASSERT_NE(P.get(), Q.get());
  EXPECT_TRUE(structuralEquals(P, Q));
  EXPECT_TRUE(structuralEquals(Q, P));
  EXPECT_EQ(structuralHash(ExprPtr(P)), structuralHash(ExprPtr(Q)));
}

TEST(StructuralHash, EqualityIsInsensitiveToInferredTypes) {
  // Dedup keys are probed before type inference runs on the candidate;
  // inferred types must not influence the fingerprint.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);
  Program Q = cloneProgram(P);
  inferTypes(Q);
  EXPECT_TRUE(structuralEquals(P, Q));
  EXPECT_EQ(structuralHash(ExprPtr(P)), structuralHash(ExprPtr(Q)));
}

TEST(StructuralHash, DistinguishesPayloads) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));

  auto Build = [&](std::int64_t SlideSize, float Pad) {
    LambdaPtr SumNbh = lam("nbh", [](ExprPtr Nbh) {
      return theOne(reduce(etaLambda(ufAddFloat()), lit(0.0f), Nbh));
    });
    return makeProgram({A}, map(SumNbh, slide(cst(SlideSize), cst(1),
                                              pad(cst(1), cst(1),
                                                  Boundary::constant(Pad),
                                                  A))));
  };

  Program Base = Build(3, 0.0f);
  EXPECT_TRUE(structuralEquals(Base, Build(3, 0.0f)));
  // Different slide size: differs only in an interned AExpr payload.
  EXPECT_FALSE(structuralEquals(Base, Build(5, 0.0f)));
  // Different constant-pad value: differs only in the boundary payload.
  EXPECT_FALSE(structuralEquals(Base, Build(3, 1.0f)));

  // Every payload field of every payload-carrying primitive: Make(0)
  // and Make(1) differ in that one field only.
  auto Id = [] { return etaLambda(ufIdFloat()); };
  auto Pad = [&](int L, int R, Boundary B) {
    return pad(cst(L), cst(R), B, A);
  };
  struct Case {
    const char *Field;
    std::function<ExprPtr(int)> Make;
  };
  const std::vector<Case> Cases = {
      {"mapGlb dim", [&](int V) { return mapGlb(V, Id(), A); }},
      {"mapWrg dim", [&](int V) { return mapWrg(V, Id(), A); }},
      {"mapLcl dim", [&](int V) { return mapLcl(V, Id(), A); }},
      {"split factor", [&](int V) { return split(cst(2 + V), A); }},
      {"slide size", [&](int V) { return slide(cst(3 + V), cst(1), A); }},
      {"slide step", [&](int V) { return slide(cst(3), cst(1 + V), A); }},
      {"slideClamp size",
       [&](int V) { return slideClamp(cst(3 + V), cst(1), A); }},
      {"slideClamp step",
       [&](int V) { return slideClamp(cst(3), cst(1 + V), A); }},
      {"joinClamp size", [&](int V) { return joinClamp(cst(8 + V), A); }},
      {"pad left", [&](int V) { return Pad(1 + V, 1, Boundary::clamp()); }},
      {"pad right", [&](int V) { return Pad(1, 1 + V, Boundary::clamp()); }},
      {"pad boundary kind",
       [&](int V) {
         return Pad(1, 1, V ? Boundary::mirror() : Boundary::clamp());
       }},
      {"pad boundary constant vs wrap",
       [&](int V) {
         return Pad(1, 1, V ? Boundary::wrap() : Boundary::constant(0.0f));
       }},
      {"pad constant",
       [&](int V) { return Pad(1, 1, Boundary::constant(float(V))); }},
      {"at index", [&](int V) { return at(V, A); }},
      {"get index", [&](int V) { return get(V, A); }},
      {"iterate count", [&](int V) { return iterate(1 + V, Id(), A); }},
      {"generate size",
       [&](int V) {
         return generate({cst(4), cst(4 + V)},
                         lam2("i", "j", [](ExprPtr, ExprPtr) {
                           return lit(1.0f);
                         }));
       }},
      {"sizeVal size", [&](int V) { return sizeVal(cst(3 + V)); }},
      {"userFun name",
       [&](int V) {
         return ir::apply(V ? ufMultFloat() : ufAddFloat(),
                          {lit(1.0f), lit(2.0f)});
       }},
  };
  for (const Case &C : Cases) {
    ExprPtr X = C.Make(0), Y = C.Make(1);
    EXPECT_TRUE(structuralEquals(X, C.Make(0))) << C.Field;
    EXPECT_EQ(structuralHash(X), structuralHash(C.Make(0))) << C.Field;
    EXPECT_FALSE(structuralEquals(X, Y)) << C.Field;
    EXPECT_NE(structuralHash(X), structuralHash(Y)) << C.Field;
    EXPECT_NE(toString(X), toString(Y)) << C.Field;
  }
}

TEST(StructuralHash, FreeParametersCompareByIdentity) {
  // Two programs over *different* free inputs are different programs,
  // even though they are textually identical up to input naming.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  ParamPtr B = param("A", arrayT(floatT(), N));
  LambdaPtr Inc = lam("x", [](ExprPtr X) {
    return ir::apply(ufAddFloat(), {X, lit(1.0f)});
  });
  ExprPtr OverA = map(Inc, A);
  ExprPtr OverB = map(Inc, B);
  EXPECT_FALSE(structuralEquals(OverA, OverB));
  // As program bodies with the parameter bound, they unify again.
  EXPECT_TRUE(structuralEquals(makeProgram({A}, OverA),
                               makeProgram({B}, OverB)));
}

TEST(StructuralHash, LambdaBindingPositionsNotNames) {
  // Two lambdas differing only in parameter naming are equal.
  LambdaPtr F = lam("x", [](ExprPtr X) {
    return ir::apply(ufMultFloat(), {X, X});
  });
  LambdaPtr G = lam("y", [](ExprPtr Y) {
    return ir::apply(ufMultFloat(), {Y, Y});
  });
  EXPECT_TRUE(structuralEquals(F, G));
  EXPECT_EQ(structuralHash(ExprPtr(F)), structuralHash(ExprPtr(G)));
  // A function using its parameter differently is not equal.
  LambdaPtr H = lam("z", [](ExprPtr Z) {
    return ir::apply(ufMultFloat(), {Z, lit(2.0f)});
  });
  EXPECT_FALSE(structuralEquals(F, H));
}

TEST(StructuralHash, SetBehavesAsProgramSet) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);

  std::unordered_set<ExprPtr, StructuralExprHash, StructuralExprEq> Set;
  EXPECT_TRUE(Set.insert(P).second);
  EXPECT_FALSE(Set.insert(cloneProgram(P)).second);       // alpha-equal dup
  EXPECT_TRUE(Set.insert(makeProgram({A}, map(lam("x", [](ExprPtr X) {
    return ir::apply(ufAddFloat(), {X, lit(2.0f)});
  }), A))).second);                                       // genuinely new
  EXPECT_EQ(Set.size(), 2u);
}

TEST(StructuralHash, TypeHashConsistentWithTypeEquals) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  TypePtr T1 = arrayT(arrayT(floatT(), M), N);
  TypePtr T2 = arrayT(arrayT(floatT(), M), N);
  EXPECT_TRUE(typeEquals(T1, T2));
  EXPECT_EQ(structuralHash(T1), structuralHash(T2));
  TypePtr T3 = arrayT(arrayT(intT(), M), N);
  EXPECT_FALSE(typeEquals(T1, T3));
}

} // namespace
