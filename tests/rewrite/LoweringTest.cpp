//===- LoweringTest.cpp - Lowering strategies end to end -----------------===//
//
// Part of the liftcpp project.
//
// Lowers high-level stencil programs with every option combination,
// compiles them, executes them on the simulator and checks against the
// high-level interpreter — the contract that every point of the
// optimization space is semantics-preserving.
//
//===----------------------------------------------------------------------===//

#include "codegen/Runner.h"
#include "interp/Interpreter.h"
#include "rewrite/Lowering.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ir;
using namespace lift::interp;
using namespace lift::rewrite;
using namespace lift::stencil;
using namespace lift::codegen;

namespace {

AExpr sizeVar(const char *Name) { return var(Name, Range(1, 1 << 30)); }

using SizeRanges = std::unordered_map<unsigned, Range>;

std::vector<float> testData(std::size_t N) {
  std::vector<float> V(N);
  for (std::size_t I = 0; I != N; ++I)
    V[I] = float((I * 11 + 7) % 19) * 0.5f;
  return V;
}

/// Builds the canonical n-dim sum stencil program over an n^d grid.
Program sumStencilProgram(unsigned Dims, AExpr N) {
  TypePtr Ty = floatT();
  for (unsigned D = 0; D != Dims; ++D)
    Ty = arrayT(Ty, N);
  ParamPtr A = param("A", Ty);
  return makeProgram(
      {A}, stencilNd(Dims, sumNeighborhood(Dims), cst(3), cst(1), cst(1),
                     cst(1), Boundary::clamp(), A));
}

Value gridValue(unsigned Dims, const std::vector<float> &Data,
                std::size_t G) {
  if (Dims == 1)
    return makeFloatArray(Data);
  if (Dims == 2)
    return makeFloatArray2D(Data, G, G);
  return makeFloatArray3D(Data, G, G, G);
}

/// Lowers with \p O, runs on the simulator, compares to the
/// interpreter on the high-level program.
void expectLoweringCorrect(unsigned Dims, std::int64_t G,
                           const LoweringOptions &O) {
  AExpr N = sizeVar("n");
  Program High = sumStencilProgram(Dims, N);
  Program Low = lowerStencil(High, O);
  ASSERT_NE(Low, nullptr) << O.describe();

  std::size_t Total = 1;
  for (unsigned D = 0; D != Dims; ++D)
    Total *= std::size_t(G);
  std::vector<float> In = testData(Total);
  ocl::SizeEnv Sizes{{N->getVarId(), G}};

  Value Expected =
      evalProgram(High, {gridValue(Dims, In, std::size_t(G))}, Sizes);
  std::vector<float> ExpectedFlat;
  flattenValue(Expected, ExpectedFlat);

  RunResult R = runOnSim(Low, {In}, Sizes);
  ASSERT_EQ(R.Output.size(), ExpectedFlat.size()) << O.describe();
  for (std::size_t I = 0; I != ExpectedFlat.size(); ++I)
    ASSERT_FLOAT_EQ(R.Output[I], ExpectedFlat[I])
        << O.describe() << " dims=" << Dims << " at " << I;
}

struct LoweringCase {
  unsigned Dims;
  std::int64_t Grid;
  LoweringOptions O;
};

class LoweringProperty : public ::testing::TestWithParam<LoweringCase> {};

TEST_P(LoweringProperty, MatchesInterpreter) {
  const LoweringCase &C = GetParam();
  expectLoweringCorrect(C.Dims, C.Grid, C.O);
}

LoweringOptions opt(bool Tile, std::int64_t TileOut, bool Local, bool Unroll,
                    std::int64_t Coarsen) {
  LoweringOptions O;
  O.Tile = Tile;
  O.TileOutputs = TileOut;
  O.UseLocalMem = Local;
  O.UnrollReduce = Unroll;
  O.Coarsen = Coarsen;
  return O;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, LoweringProperty,
    ::testing::Values(
        // Untiled, 1D/2D/3D.
        LoweringCase{1, 16, opt(false, 0, false, false, 1)},
        LoweringCase{2, 12, opt(false, 0, false, false, 1)},
        LoweringCase{3, 8, opt(false, 0, false, false, 1)},
        // Unrolled reductions.
        LoweringCase{1, 16, opt(false, 0, false, true, 1)},
        LoweringCase{2, 12, opt(false, 0, false, true, 1)},
        // Thread coarsening.
        LoweringCase{1, 16, opt(false, 0, false, false, 4)},
        LoweringCase{2, 12, opt(false, 0, false, false, 3)},
        LoweringCase{3, 8, opt(false, 0, false, false, 2)},
        // Tiled without local memory.
        LoweringCase{1, 16, opt(true, 4, false, false, 1)},
        LoweringCase{2, 12, opt(true, 4, false, false, 1)},
        LoweringCase{3, 8, opt(true, 4, false, false, 1)},
        // Tiled with local memory staging.
        LoweringCase{1, 16, opt(true, 4, true, false, 1)},
        LoweringCase{2, 12, opt(true, 4, true, false, 1)},
        LoweringCase{3, 8, opt(true, 4, true, false, 1)},
        // Tiled + local + unroll (the full §4 stack).
        LoweringCase{2, 12, opt(true, 6, true, true, 1)},
        LoweringCase{2, 16, opt(true, 8, true, true, 1)},
        // PPCG-style: tiled + local with intra-tile thread coarsening.
        LoweringCase{2, 16, opt(true, 8, true, false, 4)},
        LoweringCase{1, 16, opt(true, 8, true, false, 2)},
        LoweringCase{3, 8, opt(true, 4, true, false, 2)}));

TEST(Lowering, TiledUsesWorkgroupsAndLocalMem) {
  AExpr N = sizeVar("n");
  Program High = sumStencilProgram(2, N);
  Program Low = lowerStencil(High, opt(true, 4, true, false, 1));
  ASSERT_NE(Low, nullptr);
  std::vector<float> In = testData(12 * 12);
  RunResult R = runOnSim(Low, {In}, {{N->getVarId(), 12}});
  EXPECT_TRUE(R.NDRange.UsesWorkGroups);
  EXPECT_EQ(R.NDRange.NumGroups[0], 3);
  EXPECT_EQ(R.NDRange.NumGroups[1], 3);
  EXPECT_GT(R.NDRange.LocalMemBytes, 0);
  EXPECT_GT(R.Counters.LocalLoads, 0u);
}

TEST(Lowering, LocalStagingReducesGlobalLoads) {
  // Staging through local memory must eliminate redundant global reads:
  // each input element is loaded once per tile instead of ~9 times.
  AExpr N = sizeVar("n");
  Program High = sumStencilProgram(2, N);
  Program Untiled = lowerStencil(High, opt(false, 0, false, false, 1));
  Program Staged = lowerStencil(High, opt(true, 8, true, false, 1));
  ASSERT_NE(Untiled, nullptr);
  ASSERT_NE(Staged, nullptr);
  std::vector<float> In = testData(32 * 32);
  ocl::SizeEnv Sizes{{N->getVarId(), 32}};
  RunResult RU = runOnSim(Untiled, {In}, Sizes);
  RunResult RS = runOnSim(Staged, {In}, Sizes);
  EXPECT_EQ(RU.Counters.GlobalLoads, 9u * 32 * 32);
  EXPECT_LT(RS.Counters.GlobalLoads, RU.Counters.GlobalLoads / 4);
}

TEST(Lowering, CoarseningShrinksNDRange) {
  AExpr N = sizeVar("n");
  Program High = sumStencilProgram(2, N);
  Program Low = lowerStencil(High, opt(false, 0, false, false, 4));
  ASSERT_NE(Low, nullptr);
  std::vector<float> In = testData(16 * 16);
  RunResult R = runOnSim(Low, {In}, {{N->getVarId(), 16}});
  EXPECT_EQ(R.NDRange.GlobalSize[0], 4); // 16 / 4 threads in dim 0
  EXPECT_EQ(R.NDRange.GlobalSize[1], 16);
}

TEST(Lowering, TilingRequiresSlideNd) {
  // A plain elementwise map has no neighborhood: tiling must refuse.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  Program P = makeProgram(
      {A}, map(lam("x", [](ExprPtr X) {
             return apply(ufAddFloat(), {X, lit(1.0f)});
           }),
           A));
  std::string WhyNot;
  EXPECT_EQ(lowerStencil(P, opt(true, 4, false, false, 1), &WhyNot), nullptr);
  EXPECT_NE(WhyNot.find("neither a slideNd"), std::string::npos) << WhyNot;
}

TEST(Lowering, MixedWindowGeometriesAreDiagnosed) {
  // zip of two neighborhoods with different window shapes (a 3-window
  // and a 5-window): the tiled lowering cannot pick one tile extent, so
  // it must refuse with a reason instead of returning a bare nullptr
  // that callers then dereference.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  ParamPtr B = param("B", arrayT(floatT(), add(N, cst(2))));
  LambdaPtr F = lam("t", [](ExprPtr T) {
    ExprPtr SumA = theOne(
        reduce(etaLambda(ufAddFloat()), lit(0.0f), get(0, T)));
    ExprPtr SumB = theOne(
        reduce(etaLambda(ufAddFloat()), lit(0.0f), get(1, T)));
    return apply(ufAddFloat(), {SumA, SumB});
  });
  Program P = makeProgram(
      {A, B}, map(F, zip(slide(cst(3), cst(1), pad(cst(1), cst(1),
                                                   Boundary::clamp(), A)),
                         slide(cst(5), cst(1), pad(cst(1), cst(1),
                                                   Boundary::clamp(), B)))));
  std::string WhyNot;
  EXPECT_EQ(lowerStencil(P, opt(true, 4, false, false, 1), &WhyNot), nullptr);
  EXPECT_NE(WhyNot.find("mixed window geometries"), std::string::npos)
      << WhyNot;

  // The same program still lowers untiled: the refusal is specific to
  // the tiled strategy, not to the program.
  std::string UntiledWhy;
  EXPECT_NE(lowerStencil(P, opt(false, 0, false, false, 1), &UntiledWhy),
            nullptr)
      << UntiledWhy;
}

TEST(Lowering, IterateExpandsToMultiPhaseKernel) {
  // iterate(2, step) (paper §3.1: "the iterate primitive can be used to
  // perform multiple iterations") expands to two chained stencil
  // phases; the inner phase is lowered too and materializes into a
  // global temporary.
  AExpr N = sizeVar("n");
  ParamPtr A = param("A", arrayT(floatT(), N));
  LambdaPtr StepF = lam("xs", [](ExprPtr Xs) {
    return map(lam("nbh",
                   [](ExprPtr Nbh) {
                     return theOne(reduce(etaLambda(ufAddFloat()),
                                          lit(0.0f), Nbh));
                   }),
               slide(cst(3), cst(1),
                     pad(cst(1), cst(1), Boundary::clamp(), Xs)));
  });
  Program High = makeProgram({A}, iterate(2, StepF, A));

  LoweringOptions O;
  Program Low = lowerStencil(High, O);
  ASSERT_NE(Low, nullptr);

  std::vector<float> In = testData(16);
  ocl::SizeEnv Sizes{{N->getVarId(), 16}};
  Value Expected = evalProgram(High, {makeFloatArray(In)}, Sizes);
  std::vector<float> ExpectedFlat;
  flattenValue(Expected, ExpectedFlat);

  RunResult R = runOnSim(Low, {In}, Sizes);
  ASSERT_EQ(R.Output.size(), ExpectedFlat.size());
  for (std::size_t I = 0; I != ExpectedFlat.size(); ++I)
    EXPECT_FLOAT_EQ(R.Output[I], ExpectedFlat[I]) << "at " << I;
  // Two phases: the first writes a temporary, the second the output.
  EXPECT_EQ(R.Counters.GlobalStores, 2u * 16u);
}

TEST(Lowering, ThreeIterations2D) {
  AExpr N = sizeVar("n");
  Program OneStep = sumStencilProgram(2, N);
  // Wrap the one-step stencil into iterate(3, ...).
  ParamPtr A = param("A", arrayT(arrayT(floatT(), N), N));
  LambdaPtr StepF = lam("xs", [&](ExprPtr Xs) {
    return stencilNd(2, sumNeighborhood(2), cst(3), cst(1), cst(1), cst(1),
                     Boundary::clamp(), Xs);
  });
  Program High = makeProgram({A}, iterate(3, StepF, A));

  LoweringOptions O;
  Program Low = lowerStencil(High, O);
  ASSERT_NE(Low, nullptr);

  std::vector<float> In = testData(10 * 10);
  ocl::SizeEnv Sizes{{N->getVarId(), 10}};
  Value Expected =
      evalProgram(High, {makeFloatArray2D(In, 10, 10)}, Sizes);
  std::vector<float> ExpectedFlat;
  flattenValue(Expected, ExpectedFlat);
  RunResult R = runOnSim(Low, {In}, Sizes);
  ASSERT_EQ(R.Output.size(), ExpectedFlat.size());
  for (std::size_t I = 0; I != ExpectedFlat.size(); ++I)
    EXPECT_FLOAT_EQ(R.Output[I], ExpectedFlat[I]) << "at " << I;
}

TEST(Lowering, OutputExtentsBindTheSizeVariables) {
  // A lowering for a grid narrows each size variable an output
  // dimension determines to its value: `n` for a padded stencil, and
  // `m` through `m - 2` for an unpadded one. Without extents no size
  // is bound and the program stays symbolic.
  for (bool Tile : {false, true}) {
    LoweringOptions O = opt(Tile, 4, Tile, false, 1);
    AExpr N = sizeVar("n");
    Program Padded = sumStencilProgram(2, N);
    Program Symbolic = lowerStencil(Padded, O);
    ASSERT_NE(Symbolic, nullptr);
    Compiled SC = compileProgram(Symbolic, "symbolic");
    ASSERT_EQ(SC.K.SizeArgs.size(), 1u);
    EXPECT_EQ(SC.K.SizeArgs[0].bound(), std::nullopt);

    O.OutputExtents = {12, 12};
    Program Low = lowerStencil(Padded, O);
    ASSERT_NE(Low, nullptr) << O.describe();
    EXPECT_EQ(Low->SizeRanges, (SizeRanges{{N->getVarId(), Range(12, 12)}}));
    Compiled C = compileProgram(Low, "bound");
    ASSERT_EQ(C.K.SizeArgs.size(), 1u);
    EXPECT_EQ(C.K.SizeArgs[0].bound(), std::optional<std::int64_t>(12));

    AExpr M = sizeVar("m");
    ParamPtr A = param("A", arrayT(arrayT(floatT(), M), M));
    Program Unpadded = makeProgram(
        {A}, mapNd(2, sumNeighborhood(2), slideNd(2, cst(3), cst(1), A)));
    O.OutputExtents = {10, 10};
    Low = lowerStencil(Unpadded, O);
    ASSERT_NE(Low, nullptr) << O.describe();
    EXPECT_EQ(Low->SizeRanges, (SizeRanges{{M->getVarId(), Range(12, 12)}}));
  }
}

TEST(Lowering, SymbolicTilingStatesItsMinimumExtents) {
  // A symbolic clamped tiling keeps the full tile advance, so each
  // tiled dimension must hold a whole tile: n >= 4 for a padded
  // stencil, m - 2 >= 4 (m >= 6) for an unpadded one, each within its
  // declared range. An untiled lowering states nothing, and a
  // grid-bound one only the grid's value.
  AExpr N = sizeVar("n");
  Program Padded = sumStencilProgram(2, N);
  Program Tiled = lowerStencil(Padded, opt(true, 4, true, false, 1));
  ASSERT_NE(Tiled, nullptr);
  EXPECT_EQ(Tiled->SizeRanges,
            (SizeRanges{{N->getVarId(), Range(4, 1 << 30)}}));
  Compiled C = compileProgram(Tiled, "tiled");
  ASSERT_EQ(C.K.SizeArgs.size(), 1u);
  EXPECT_EQ(C.K.SizeArgs[0].Valid, std::optional<Range>(Range(4, 1 << 30)));

  AExpr M = sizeVar("m");
  ParamPtr A = param("A", arrayT(arrayT(floatT(), M), M));
  Program Unpadded = makeProgram(
      {A}, mapNd(2, sumNeighborhood(2), slideNd(2, cst(3), cst(1), A)));
  Program UnpaddedTiled = lowerStencil(Unpadded, opt(true, 4, false, false, 1));
  ASSERT_NE(UnpaddedTiled, nullptr);
  EXPECT_EQ(UnpaddedTiled->SizeRanges,
            (SizeRanges{{M->getVarId(), Range(6, 1 << 30)}}));

  Program Untiled = lowerStencil(Padded, opt(false, 4, false, false, 1));
  ASSERT_NE(Untiled, nullptr);
  EXPECT_TRUE(Untiled->SizeRanges.empty());
  LoweringOptions O = opt(true, 4, true, false, 1);
  O.OutputExtents = {12, 12};
  Program Bound = lowerStencil(Padded, O);
  ASSERT_NE(Bound, nullptr);
  EXPECT_EQ(Bound->SizeRanges, (SizeRanges{{N->getVarId(), Range(12, 12)}}));
}

TEST(Lowering, OutputExtentsThatDisagreeAreRefused) {
  // A constant output dimension that differs from its requested extent,
  // and two extents that bind one size variable to different values,
  // name no grid the program can run at: the lowering refuses with a
  // reason instead of ignoring the extent.
  for (bool Tile : {false, true}) {
    LoweringOptions O = opt(Tile, 4, false, false, 1);
    O.OutputExtents = {8, 9};
    std::string WhyNot;
    EXPECT_EQ(lowerStencil(sumStencilProgram(2, cst(8)), O, &WhyNot), nullptr);
    EXPECT_NE(WhyNot.find("OutputExtents[1] = 9 disagrees with the stencil's "
                          "constant output extent 8"),
              std::string::npos)
        << WhyNot;

    WhyNot.clear();
    EXPECT_EQ(lowerStencil(sumStencilProgram(2, sizeVar("n")), O, &WhyNot),
              nullptr);
    EXPECT_NE(WhyNot.find("OutputExtents[1] = 9 needs n = 9, but another "
                          "dimension needs 8"),
              std::string::npos)
        << WhyNot;

    O.OutputExtents = {8, 8};
    EXPECT_NE(lowerStencil(sumStencilProgram(2, cst(8)), O), nullptr);
  }
}

/// Whether \p E holds a mapSeq over \p Trips elements nested inside a
/// mapLcl.
bool hasSeqInsideLcl(const ExprPtr &E, std::int64_t Trips,
                     bool InLcl = false) {
  if (const auto *L = dynCast<LambdaExpr>(E))
    return hasSeqInsideLcl(L->getBody(), Trips, InLcl);
  const auto *C = dynCast<CallExpr>(E);
  if (!C)
    return false;
  if (InLcl && C->getPrim() == Prim::MapSeq) {
    TypePtr In = C->getArgs()[1]->getType();
    if (In && In->getKind() == Type::Kind::Array &&
        In->getSize()->getKind() == ArithExpr::Kind::Cst &&
        In->getSize()->getCst() == Trips)
      return true;
  }
  InLcl |= C->getPrim() == Prim::MapLcl;
  for (const ExprPtr &A : C->getArgs())
    if (hasSeqInsideLcl(A, Trips, InLcl))
      return true;
  return false;
}

TEST(Lowering, CoarsenAppliesToTiledLowerings) {
  // One coarsening option for both forms: tiled, each mapLcl thread
  // walks Coarsen outputs of its tile sequentially.
  LoweringOptions O = opt(true, 16, false, false, 4);
  EXPECT_EQ(O.describe(), "tiled16-coarsen4");
  Program Low = lowerStencil(sumStencilProgram(2, sizeVar("n")), O);
  ASSERT_NE(Low, nullptr);
  EXPECT_TRUE(hasSeqInsideLcl(Low->getBody(), 4)) << toString(Low);

  O.Coarsen = 1;
  Program Plain = lowerStencil(sumStencilProgram(2, sizeVar("n")), O);
  ASSERT_NE(Plain, nullptr);
  EXPECT_FALSE(hasSeqInsideLcl(Plain->getBody(), 4)) << toString(Plain);
}

TEST(Lowering, DescribeNames) {
  EXPECT_EQ(opt(true, 16, true, true, 1).describe(), "tiled16-local-unroll");
  EXPECT_EQ(opt(false, 0, false, false, 4).describe(), "global-coarsen4");
  EXPECT_EQ(opt(false, 0, false, false, 1).describe(), "global");
}

} // namespace
