//===- TunerTest.cpp - Auto-tuner behavior --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;

namespace {

TEST(Tuner, EvaluatesPlainGlobalCandidate) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
  Candidate C; // defaults: untiled, coarsen 1
  Evaluated E = evaluateCandidate(P, deviceNvidiaK20c(), C);
  ASSERT_TRUE(E.Valid);
  EXPECT_GT(E.GElemsPerSec, 0.0);
  EXPECT_GT(E.T.Total, 0.0);
  EXPECT_LE(E.T.Utilization, 1.0);
}

TEST(Tuner, AcceptsNonDividingTileSize) {
  // Since the clamped remainder-tile lowering a tile no longer has to
  // divide the grid: the last tile per dimension shifts left to cover
  // the remainder, so this candidate is evaluated, not pruned.
  const Benchmark &B = findBenchmark("SRAD1"); // 504 x 458
  TuningProblem P = makeProblem(B, false);
  Candidate C;
  C.Options.Tile = true;
  C.Options.TileOutputs = 16; // 458 % 16 != 0: remainder tiles
  Evaluated E = evaluateCandidate(P, deviceNvidiaK20c(), C);
  EXPECT_TRUE(E.Valid) << E.WhyNot;
  EXPECT_GT(E.T.Total, 0.0);
}

TEST(Tuner, RejectsOversizedLocalTile) {
  const Benchmark &B = findBenchmark("Jacobi3D7pt");
  TuningProblem P = makeProblem(B, false);
  Candidate C;
  C.Options.Tile = true;
  C.Options.TileOutputs = 32; // (32+2)^3 floats = 157 KB > 48 KB local
  C.Options.UseLocalMem = true;
  Evaluated E = evaluateCandidate(P, deviceNvidiaK20c(), C);
  EXPECT_FALSE(E.Valid);
}

TEST(Tuner, TilingSupportsZipShapes) {
  // Multi-grid (zipNd) stencils tile too: slided components get
  // overlapping tiles, point-wise ones exact tiles.
  const Benchmark &B = findBenchmark("Hotspot2D"); // two-grid zip
  TuningProblem P = makeProblem(B, false);
  Candidate C;
  C.Options.Tile = true;
  C.Options.TileOutputs = 16;
  C.Options.UseLocalMem = true;
  Evaluated E = evaluateCandidate(P, deviceNvidiaK20c(), C);
  EXPECT_TRUE(E.Valid);
}

TEST(Tuner, SearchFindsValidBest) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = liftSpace();
  // Trim the space to keep the test fast.
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 4};
  S.WorkGroupSizes = {128};
  TuneResult R = tuneStencil(P, deviceNvidiaK20c(), S);
  ASSERT_TRUE(R.Best.Valid);
  EXPECT_GE(R.All.size(), 4u);
  // The best candidate is no slower than any other evaluated one.
  for (const Evaluated &E : R.All)
    EXPECT_LE(R.Best.T.Total, E.T.Total) << E.C.describe();
}

TEST(Tuner, PpcgSpaceIsAlwaysTiled) {
  TuningSpace S = ppcgSpace();
  EXPECT_FALSE(S.AllowUntiled);
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace Trim = S;
  Trim.TileOutputs = {8, 16};
  Trim.TileCoarsenFactors = {1, 4};
  TuneResult R = tuneStencil(P, deviceNvidiaK20c(), Trim);
  ASSERT_TRUE(R.Best.Valid);
  EXPECT_TRUE(R.Best.C.Options.Tile);
  // Not just the winner: the space yields no untiled candidate at all.
  ASSERT_FALSE(R.All.empty());
  for (const Evaluated &E : R.All)
    EXPECT_TRUE(E.C.Options.Tile) << E.C.describe();
}

TEST(Tuner, MaliPrefersNoLocalMemory) {
  // On the Mali-like device local memory is emulated: staging through
  // it can never win (paper §7.2: no ARM best version uses tiling).
  const Benchmark &B = findBenchmark("Jacobi2D9pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = liftSpace();
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 2};
  S.WorkGroupSizes = {64, 128};
  TuneResult R = tuneStencil(P, deviceMaliT628(), S);
  ASSERT_TRUE(R.Best.Valid);
  EXPECT_FALSE(R.Best.C.Options.UseLocalMem) << R.Best.C.describe();
}

TEST(Tuner, SmallInputUnderutilizesBigGpu) {
  // SRAD's 504x458 grid cannot saturate a K20c-like device; the tuner's
  // timing must reflect low utilization relative to a large grid
  // (paper §7.1's explanation for SRAD1/2).
  const Benchmark &Srad = findBenchmark("SRAD1");
  TuningProblem PS = makeProblem(Srad, false);
  Candidate C;
  Evaluated ESmall = evaluateCandidate(PS, deviceNvidiaK20c(), C);
  ASSERT_TRUE(ESmall.Valid);

  const Benchmark &Big = findBenchmark("Stencil2D");
  TuningProblem PB = makeProblem(Big, false);
  Evaluated EBig = evaluateCandidate(PB, deviceNvidiaK20c(), C);
  ASSERT_TRUE(EBig.Valid);

  EXPECT_LT(ESmall.GElemsPerSec, EBig.GElemsPerSec);
}

TEST(Tuner, PruneStatsDescribeListsEveryReasonInOrder) {
  // describe() and total() walk one reason table; the text is what
  // sweep summaries and the all-pruned error print, so it is pinned.
  PruneStats None;
  EXPECT_EQ(None.total(), 0u);
  EXPECT_EQ(None.describe(), "none");

  PruneStats S;
  S.TileStepMisaligned = 1;
  S.TileIndivisible = 2;
  S.TileCoarsenMisaligned = 3;
  S.LocalMemOverflow = 4;
  S.CoarsenIndivisible = 5;
  S.LoweringFailed = 6;
  S.Divisibility = 7;
  S.NativeFailed = 8;
  EXPECT_EQ(S.total(), 36u);
  EXPECT_EQ(S.describe(),
            "tile-step-misaligned=1, tile-indivisible=2, "
            "tile-coarsen-misaligned=3, local-mem-overflow=4, "
            "coarsen-indivisible=5, lowering-failed=6, divisibility=7, "
            "native-compile-failed=8");

  PruneStats One;
  One.LocalMemOverflow = 3;
  EXPECT_EQ(One.total(), 3u);
  EXPECT_EQ(One.describe(), "local-mem-overflow=3");
}

} // namespace
