//===- ExplorationTest.cpp - Rewrite-space exploration tests --------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "rewrite/Exploration.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ir;
using namespace lift::interp;
using namespace lift::rewrite;
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

TEST(Exploration, ApplyEachSelectsPositions) {
  // A program with two fusable map pairs: map(f, map(g, map(h, A))).
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  auto Mul = [](float C) {
    return lam("x", [C](ExprPtr X) {
      return ir::apply(ufMultFloat(), {X, lit(C)});
    });
  };
  Program P = makeProgram(
      {A}, map(Mul(2), map(Mul(3), map(Mul(5), A))));
  const std::string Before = toString(P->getBody());
  Rule Fusion = mapFusionRule();
  std::vector<ExprPtr> Each = applyEach(Fusion, P->getBody());
  ASSERT_EQ(Each.size(), 2u); // one entry per occurrence, pre-order
  EXPECT_NE(toString(Each[0]), toString(Each[1]));
  EXPECT_TRUE(applyEach(Fusion, A).empty());

  // Entry 0 fuses the outermost pair: map(f . g, map(h, A)), whose data
  // argument is the original innermost map, shared rather than copied.
  const auto *Outer = dynCast<CallExpr>(P->getBody());
  const auto *Middle = dynCast<CallExpr>(Outer->getArgs()[1]);
  const auto *At0 = dynCast<CallExpr>(Each[0]);
  ASSERT_NE(At0, nullptr);
  EXPECT_EQ(At0->getPrim(), Prim::Map);
  EXPECT_EQ(At0->getArgs()[1], Middle->getArgs()[1]);
  // Entry 1 fuses the inner pair under the untouched outer function.
  const auto *At1 = dynCast<CallExpr>(Each[1]);
  ASSERT_NE(At1, nullptr);
  EXPECT_EQ(At1->getArgs()[0], Outer->getArgs()[0]);
  EXPECT_EQ(toString(P->getBody()), Before); // the input is not mutated
}

TEST(Exploration, FindsDistinctVariantsOfJacobi) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);

  ExplorationOptions O;
  O.MaxDepth = 2;
  O.MaxPrograms = 64;
  std::vector<Derivation> Space = explore(P, stencilExplorationRules(), O);

  // The space contains the original plus several rewrites, including
  // at least one tiled derivation.
  EXPECT_GT(Space.size(), 4u);
  bool FoundTiled = false;
  for (const Derivation &D : Space)
    for (const std::string &RuleName : D.RulesApplied)
      FoundTiled |= RuleName == "overlappedTiling1D";
  EXPECT_TRUE(FoundTiled);
}

TEST(Exploration, AllDerivationsAreSemanticallyEqual) {
  // The heart of the paper's claim: every reachable program computes
  // the same function ("provably correct rewrite rules").
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);

  ExplorationOptions O;
  O.MaxDepth = 2;
  O.MaxPrograms = 32;
  std::vector<Derivation> Space = explore(P, stencilExplorationRules(), O);

  // Length 64 satisfies the divisibility constraints of every tile and
  // split size combination reachable within the depth bound (rules can
  // only check constant lengths statically; symbolic ones become
  // obligations on the launch size, enforced by the tuner in
  // production).
  std::vector<float> In(64);
  for (std::size_t I = 0; I != In.size(); ++I)
    In[I] = float((I * 5 + 2) % 11);
  SizeEnv Sizes{{N->getVarId(), 64}};
  std::vector<float> Reference;
  flattenValue(evalProgram(P, {makeFloatArray(In)}, Sizes), Reference);

  for (const Derivation &D : Space) {
    std::vector<float> Got;
    flattenValue(evalProgram(D.P, {makeFloatArray(In)}, Sizes), Got);
    ASSERT_EQ(Got.size(), Reference.size()) << toString(D.P);
    for (std::size_t I = 0; I != Got.size(); ++I)
      ASSERT_FLOAT_EQ(Got[I], Reference[I])
          << "derivation " << toString(D.P) << " differs at " << I;
  }
}

TEST(Exploration, DepthBoundsTheSpace) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);
  ExplorationOptions Shallow;
  Shallow.MaxDepth = 1;
  ExplorationOptions Deep;
  Deep.MaxDepth = 3;
  std::size_t SizeShallow =
      explore(P, stencilExplorationRules(), Shallow).size();
  std::size_t SizeDeep = explore(P, stencilExplorationRules(), Deep).size();
  EXPECT_GT(SizeShallow, 1u);
  EXPECT_GT(SizeDeep, SizeShallow);
}

TEST(Exploration, RespectsProgramBudget) {
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = jacobi1D(A);
  ExplorationOptions O;
  O.MaxDepth = 4;
  O.MaxPrograms = 10;
  EXPECT_LE(explore(P, stencilExplorationRules(), O).size(), 10u);
}

TEST(Exploration, DiscoveryOrderIsDeterministic) {
  // Candidates are deduplicated through a hash set; this regression
  // test pins down that the *output* order never depends on that set's
  // internal iteration order. Two runs — with different amounts of
  // prior interning/allocation history, hence different pointer values
  // and hash layouts — must produce the identical derivation sequence.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  ExplorationOptions O;
  O.MaxDepth = 2;
  O.MaxPrograms = 64;

  std::vector<Derivation> First = explore(jacobi1D(A), // fresh clones inside
                                          stencilExplorationRules(), O);
  // Perturb allocation/interning history between runs so accidental
  // order-dependence on addresses or table layout would show up.
  for (int I = 0; I != 257; ++I)
    (void)add(sizeVar("perturb"), cst(I));
  std::vector<Derivation> Second =
      explore(jacobi1D(A), stencilExplorationRules(), O);

  ASSERT_EQ(First.size(), Second.size());
  for (std::size_t I = 0; I != First.size(); ++I) {
    ASSERT_EQ(First[I].RulesApplied, Second[I].RulesApplied) << "at " << I;
    ASSERT_EQ(toString(First[I].P), toString(Second[I].P)) << "at " << I;
  }
}

TEST(Exploration, MaxProgramsYieldsExactPrefix) {
  // The documented budget contract: a smaller MaxPrograms returns
  // exactly the first k derivations of the larger run's order — a cut,
  // not a sample.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  ExplorationOptions Small, Large;
  Small.MaxDepth = Large.MaxDepth = 2;
  Small.MaxPrograms = 9;
  Large.MaxPrograms = 64;

  std::vector<Derivation> Few =
      explore(jacobi1D(A), stencilExplorationRules(), Small);
  std::vector<Derivation> Many =
      explore(jacobi1D(A), stencilExplorationRules(), Large);

  ASSERT_EQ(Few.size(), 9u);
  ASSERT_GE(Many.size(), Few.size());
  for (std::size_t I = 0; I != Few.size(); ++I) {
    ASSERT_EQ(Few[I].RulesApplied, Many[I].RulesApplied) << "at " << I;
    ASSERT_EQ(toString(Few[I].P), toString(Many[I].P)) << "at " << I;
  }
}

} // namespace
